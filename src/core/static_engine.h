// StaticEngine: the FeatureC++-equivalent composition of the FAME-DBMS
// prototype (paper §2.3). A product is described by a compile-time Cfg
// traits struct; StaticEngine<Cfg> is the engine shell (core/engine_shell.h)
// over the all-constexpr policy derived from it, so unselected features do
// not instantiate and their API members do not exist — "the application
// contains only and exactly the functionality required".
//
// Cfg requirements:
//   using IndexTag            — core::BtreeTag or core::ListTag
//   static constexpr bool kPut, kRemove, kUpdate;   // Access features
//   static constexpr bool kTransactions;            // Transaction feature
//   static constexpr bool kForceCommit;             // commit protocol alt
//   static constexpr const char* kReplacement;      // "lru"|"lfu"|"clock"
//   static constexpr uint32_t kPageSize;
//   static constexpr size_t kBufferFrames;
//   static constexpr size_t kStaticPoolBytes;       // 0 => Dynamic alloc
// Optional members (absent => off; Cfgs written before a feature existed
// keep compiling):
//   kConcurrency, kReverseScan, kObservability, kBackup, kPitr,
//   kReplication, kFailover, kMvcc;                 // bool
//   kWalSegmentBytes;                               // uint64_t, 64 KiB
//
// With Concurrency selected, the transaction surface (Begin/Commit/Abort,
// one transaction per thread) becomes thread-safe and commits batch through
// WAL group commit; the read-only degradation latch turns mutex-guarded.
#ifndef FAME_CORE_STATIC_ENGINE_H_
#define FAME_CORE_STATIC_ENGINE_H_

#include <memory>

#include "core/engine_shell.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "obs/obs.h"
#include "osal/allocator.h"
#include "osal/slab_alloc.h"

namespace fame::core {

/// Index alternatives for the core product line.
struct BtreeTag {
  using Type = index::BPlusTree;
  static constexpr bool kOrdered = true;
  static StatusOr<std::unique_ptr<Type>> Open(storage::BufferManager* b) {
    return Type::Open(b, "core");
  }
};
struct ListTag {
  using Type = index::ListIndex;
  static constexpr bool kOrdered = false;
  static StatusOr<std::unique_ptr<Type>> Open(storage::BufferManager* b) {
    return Type::Open(b, "core");
  }
};

namespace detail {

/// Memory Alloc alternative, selected at compile time. Static products
/// take the whole kPoolBytes budget in one allocation at construction and
/// never touch the heap again: the slab allocator's segregated classes
/// make every Allocate/Deallocate O(1) (the old StaticPoolAllocator
/// first-fit walk remains available when the slab feature is compiled
/// out). Products that deselect the slab build link no fame::osal::slab
/// symbols — the alloc nm probe pair enforces it.
template <size_t kPoolBytes>
struct AllocState {  // Static
#if FAME_SLAB_ENABLED
  osal::slab::StaticSlabAllocator alloc{kPoolBytes};
#else
  osal::StaticPoolAllocator alloc{kPoolBytes};
#endif
  osal::Allocator* get() { return &alloc; }
  const osal::Allocator* get() const { return &alloc; }
};
template <>
struct AllocState<0> {  // Dynamic
  osal::DynamicAllocator alloc;
  osal::Allocator* get() { return &alloc; }
  const osal::Allocator* get() const { return &alloc; }
};

// The one optional-member helper: `Cfg::member` when the Cfg declares it,
// `fallback` otherwise.
#define FAME_CFG_OR(member, fallback)                              \
  [] {                                                             \
    if constexpr (requires { Cfg::member; }) {                     \
      return static_cast<decltype(fallback)>(Cfg::member);         \
    } else {                                                       \
      return fallback;                                             \
    }                                                              \
  }()

/// The all-constexpr feature policy of a Cfg: every feature On or Off.
template <typename Cfg>
class StaticPolicy {
  static constexpr bool kConcurrency = FAME_CFG_OR(kConcurrency, false);
  static constexpr bool kReverseScan = FAME_CFG_OR(kReverseScan, false);
  /// Pinned off in a build that compiles observability out.
  static constexpr bool kObservability =
      FAME_OBS_ENABLED && FAME_CFG_OR(kObservability, false);
  static constexpr bool kBackup = FAME_CFG_OR(kBackup, false);
  static constexpr bool kPitr = FAME_CFG_OR(kPitr, false);
  static constexpr bool kReplication = FAME_CFG_OR(kReplication, false);
  static constexpr bool kFailover = FAME_CFG_OR(kFailover, false);
  static constexpr bool kMvcc = FAME_CFG_OR(kMvcc, false);
  static_assert(!kPitr || kBackup, "Pitr requires Backup");
  static_assert(!kBackup || Cfg::kTransactions, "Backup requires Transaction");
  static_assert(!kReplication || kBackup, "Replication requires Backup");
  static_assert(!kFailover || kReplication, "Failover requires Replication");
  static_assert(!kMvcc || Cfg::kTransactions, "Mvcc requires Transaction");

  /// Selection per Feature, in enum order; the runtime-facade-only
  /// features (Scrub, Verify, Repair, data types) are off.
  static constexpr bool kSelected[] = {
      Cfg::kPut,          Cfg::kRemove,        Cfg::kUpdate,
      Cfg::IndexTag::kOrdered, kReverseScan,   Cfg::kTransactions,
      Cfg::kForceCommit,  kConcurrency,        kMvcc,
      kObservability,     kBackup,             kPitr,
      kReplication,       kFailover,           false,
      false,              false,               false,
      false,              false};
  static_assert(std::size(kSelected) == static_cast<size_t>(Feature::kCount));

 public:
  using Index = typename Cfg::IndexTag::Type;
  using Alloc = AllocState<Cfg::kStaticPoolBytes>;
  static constexpr EngineKnobs knobs{
      Cfg::kPageSize, Cfg::kBufferFrames, Cfg::kReplacement,
      FAME_CFG_OR(kWalSegmentBytes, uint64_t{64 * 1024})};

  static constexpr Binding binding(Feature f) {
    return kSelected[static_cast<size_t>(f)] ? Binding::kOn : Binding::kOff;
  }
  static constexpr bool on(Feature f) { return binding(f) == Binding::kOn; }
  static StatusOr<std::unique_ptr<Index>> OpenIndex(
      storage::BufferManager* b) {
    return Cfg::IndexTag::Open(b);
  }
};

#undef FAME_CFG_OR

}  // namespace detail

template <typename Cfg>
using StaticEngine = EngineShell<detail::StaticPolicy<Cfg>>;

}  // namespace fame::core

#endif  // FAME_CORE_STATIC_ENGINE_H_
