// StaticEngine: the FeatureC++-equivalent composition of the FAME-DBMS
// prototype (paper §2.3). A product is described by a compile-time Cfg
// traits struct; unselected features either do not instantiate (method
// templates are instantiated on use only) or fail the build via
// static_assert — "the application contains only and exactly the
// functionality required".
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
//   static constexpr bool kConcurrency;             // optional Concurrency
//                                                   // feature; absent => off
//   static constexpr bool kReverseScan;             // optional ReverseScan
//                                                   // feature; absent => off
//
// With Concurrency selected, the transaction surface (Begin/Commit/Abort,
// one transaction per thread) becomes thread-safe and commits batch through
// WAL group commit; the read-only degradation latch turns mutex-guarded.
// Deselected products compile to the historical lock-free engine.
#ifndef FAME_CORE_STATIC_ENGINE_H_
#define FAME_CORE_STATIC_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "core/backup.h"
#include "core/engine_core.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "obs/obs.h"
#if FAME_OBS_ENABLED
#include "obs/metrics.h"
#endif
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/slab_alloc.h"
#include "storage/buffer.h"
#include "storage/record.h"
#include "tx/txmgr.h"

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

/// Detects the optional Concurrency feature: Cfg structs written before the
/// feature existed (no kConcurrency member) keep compiling and mean "off".
template <typename Cfg, typename = void>
struct ConcurrencySelected : std::false_type {};
template <typename Cfg>
struct ConcurrencySelected<Cfg, std::void_t<decltype(Cfg::kConcurrency)>>
    : std::bool_constant<Cfg::kConcurrency> {};

/// Detects the optional ReverseScan sub-feature of Access; Cfg structs
/// without a kReverseScan member mean "off".
template <typename Cfg, typename = void>
struct ReverseScanSelected : std::false_type {};
template <typename Cfg>
struct ReverseScanSelected<Cfg, std::void_t<decltype(Cfg::kReverseScan)>>
    : std::bool_constant<Cfg::kReverseScan> {};

/// Detects the optional Observability sub-feature of Storage; Cfg structs
/// without a kObservability member mean "off".
template <typename Cfg, typename = void>
struct ObservabilitySelected : std::false_type {};
template <typename Cfg>
struct ObservabilitySelected<Cfg, std::void_t<decltype(Cfg::kObservability)>>
    : std::bool_constant<Cfg::kObservability> {};

/// Detects the optional Backup sub-feature of Storage (segmented WAL with
/// retention watermarks + hot backup); Cfg structs without a kBackup
/// member mean "off" and keep the legacy single-file log byte for byte.
template <typename Cfg, typename = void>
struct BackupSelected : std::false_type {};
template <typename Cfg>
struct BackupSelected<Cfg, std::void_t<decltype(Cfg::kBackup)>>
    : std::bool_constant<Cfg::kBackup> {};

/// Detects the optional Pitr sub-feature of Backup (archive recycled
/// segments for point-in-time recovery).
template <typename Cfg, typename = void>
struct PitrSelected : std::false_type {};
template <typename Cfg>
struct PitrSelected<Cfg, std::void_t<decltype(Cfg::kPitr)>>
    : std::bool_constant<Cfg::kPitr> {};

/// Detects the optional Replication sub-feature of Storage (epoch-fenced
/// WAL shipping); Cfg structs without a kReplication member mean "off" and
/// carry no fencing state or code.
template <typename Cfg, typename = void>
struct ReplicationSelected : std::false_type {};
template <typename Cfg>
struct ReplicationSelected<Cfg, std::void_t<decltype(Cfg::kReplication)>>
    : std::bool_constant<Cfg::kReplication> {};

/// Detects the optional Failover sub-feature of Replication (promotion).
template <typename Cfg, typename = void>
struct FailoverSelected : std::false_type {};
template <typename Cfg>
struct FailoverSelected<Cfg, std::void_t<decltype(Cfg::kFailover)>>
    : std::bool_constant<Cfg::kFailover> {};

/// Detects the optional Mvcc sub-feature of Transaction (snapshot
/// isolation over version-chained records); Cfg structs without a kMvcc
/// member mean "off" and keep the plain-bytes record codec byte for byte.
template <typename Cfg, typename = void>
struct MvccSelected : std::false_type {};
template <typename Cfg>
struct MvccSelected<Cfg, std::void_t<decltype(Cfg::kMvcc)>>
    : std::bool_constant<Cfg::kMvcc> {};

/// Detects the optional segment-size knob (bytes per WAL segment before a
/// roll); defaults to 64 KiB when the Cfg does not name one.
template <typename Cfg, typename = void>
struct SegmentBytes {
  static constexpr uint64_t value = 64 * 1024;
};
template <typename Cfg>
struct SegmentBytes<Cfg, std::void_t<decltype(Cfg::kWalSegmentBytes)>> {
  static constexpr uint64_t value = Cfg::kWalSegmentBytes;
};

/// Empty stand-in for the metrics registry in products that deselect
/// Observability (the member collapses via [[no_unique_address]]).
struct NoMetrics {};

/// Backup-run counters, sized only for Backup products.
struct BackupCounters {
  uint64_t runs = 0;
  uint64_t bytes = 0;
};
struct NoBackupCounters {};

/// Fencing state, sized only for Replication products.
struct ReplState {
  uint8_t role = 0;  // 0 none, 1 leader, 2 follower
  uint32_t epoch = 0;
};
struct NoReplState {};

/// Timestamp oracle + GC mark, sized only for Mvcc products. Constructing
/// the MvccManager is what pulls tx/mvcc.o out of the library — products
/// without the feature hold NoMvccState and reference nothing.
struct MvccState {
  tx::mvcc::MvccManager mgr;
  uint64_t gc_mark = 0;
};
struct NoMvccState {};

}  // namespace detail

template <typename Cfg>
class StaticEngine : private tx::ApplyTarget {
 public:
  using Index = typename Cfg::IndexTag::Type;
  static constexpr bool kOrdered = Cfg::IndexTag::kOrdered;
  /// Optional Concurrency feature (off for Cfgs that predate it).
  static constexpr bool kConcurrent = detail::ConcurrencySelected<Cfg>::value;
  /// Optional ReverseScan feature (off for Cfgs that predate it).
  static constexpr bool kReverse = detail::ReverseScanSelected<Cfg>::value;
  /// Optional Backup feature: segmented WAL, retention watermarks, hot
  /// backup. Off (legacy single-file log) for Cfgs that predate it.
  static constexpr bool kBackupFeature = detail::BackupSelected<Cfg>::value;
  /// Optional Pitr sub-feature of Backup: archive recycled segments.
  static constexpr bool kPitr = detail::PitrSelected<Cfg>::value;
  static_assert(!kPitr || kBackupFeature, "Pitr requires Backup");
  static_assert(!kBackupFeature || Cfg::kTransactions,
                "Backup requires Transaction");
  /// Optional Replication feature: epoch-fenced WAL shipping. Off for
  /// Cfgs that predate it; selecting it sizes the fencing state and the
  /// stamping code, nothing else — the shipping loop itself lives in
  /// fame::repl and is linked only by products that use it.
  static constexpr bool kReplication = detail::ReplicationSelected<Cfg>::value;
  /// Optional Failover sub-feature of Replication: the promotion ceremony.
  static constexpr bool kFailoverFeature = detail::FailoverSelected<Cfg>::value;
  static_assert(!kReplication || kBackupFeature,
                "Replication requires Backup");
  static_assert(!kFailoverFeature || kReplication,
                "Failover requires Replication");
  /// Optional Mvcc sub-feature of Transaction: snapshot-isolation
  /// transactions over version-chained records, first-committer-wins
  /// commits, watermark GC. Off for Cfgs that predate it — their record
  /// path stays on the plain-bytes codec and links zero fame::tx::mvcc
  /// symbols (cmake/CheckNoMvccSymbols.cmake).
  static constexpr bool kMvcc = detail::MvccSelected<Cfg>::value;
  static_assert(!kMvcc || Cfg::kTransactions, "Mvcc requires Transaction");
#if FAME_OBS_ENABLED
  /// Optional Observability feature (off for Cfgs that predate it). In a
  /// build with FAME_OBS_DISABLE the trait is pinned off and the metrics
  /// surface does not exist at all.
  static constexpr bool kObservability =
      detail::ObservabilitySelected<Cfg>::value;
  /// Plain integers in single-threaded products, relaxed atomics when the
  /// Concurrency feature is selected — the same policy split as the
  /// buffer pool (storage/concurrency.h).
  using ObsCells =
      std::conditional_t<kConcurrent, obs::SharedCells,
                         storage::SingleThreaded>;
#else
  static constexpr bool kObservability = false;
#endif

  StaticEngine() = default;
  ~StaticEngine() override = default;

  /// Opens the engine at `path` in `env`. With the Transaction feature the
  /// WAL is recovered before the call returns.
  Status Open(osal::Env* env, const std::string& path) {
    env_ = env;
    path_ = path;
    storage::PageFileOptions opts;
    opts.page_size = Cfg::kPageSize;
    auto file_or = storage::PageFile::Open(env, path, opts);
    FAME_RETURN_IF_ERROR(file_or.status());
    file_ = std::move(file_or).value();
    if constexpr (kReplication) {
      // Replication fence (epoch, role) persisted in the meta; see
      // core::Database for the packing.
      auto fence_or = file_->GetRootAux("repl.fence");
      if (fence_or.ok()) {
        repl_.epoch = static_cast<uint32_t>(fence_or.value() >> 8);
        repl_.role = static_cast<uint8_t>(fence_or.value() & 0xff);
      }
    }
    auto bm_or = storage::BufferManager::Create(
        file_.get(), Cfg::kBufferFrames, alloc_.get(),
        storage::MakeReplacementPolicy(Cfg::kReplacement));
    FAME_RETURN_IF_ERROR(bm_or.status());
    buffers_ = std::move(bm_or).value();
    auto heap_or = storage::RecordManager::Open(buffers_.get(), "core");
    FAME_RETURN_IF_ERROR(heap_or.status());
    heap_ = std::move(heap_or).value();
    auto idx_or = Cfg::IndexTag::Open(buffers_.get());
    FAME_RETURN_IF_ERROR(idx_or.status());
    index_ = std::move(idx_or).value();
    core_.Bind(heap_.get(), index_.get());
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      core_.SetCursorSink(metrics_.cursors.sink());
    }
#endif
    if constexpr (Cfg::kTransactions) {
      constexpr tx::CommitProtocol kProtocol =
          Cfg::kForceCommit ? tx::CommitProtocol::kForceAtCommit
                            : tx::CommitProtocol::kWalRedo;
      if constexpr (kBackupFeature) {
        // Segmented log: only this branch (and so only Backup products)
        // references the segment machinery's translation unit.
        tx::WalOptions wopts;
        wopts.segment_bytes = detail::SegmentBytes<Cfg>::value;
        wopts.archive = kPitr;
        auto log_or =
            tx::LogManager::OpenSegmented(env, path + ".wal", wopts);
        FAME_RETURN_IF_ERROR(log_or.status());
        auto mgr_or = tx::TransactionManager::Adopt(
            std::move(log_or).value(), this, kProtocol,
            /*group_commit=*/kConcurrent);
        FAME_RETURN_IF_ERROR(mgr_or.status());
        txmgr_ = std::move(mgr_or).value();
      } else {
        auto mgr_or = tx::TransactionManager::Open(
            env, path + ".wal", this, kProtocol,
            /*group_commit=*/kConcurrent);
        FAME_RETURN_IF_ERROR(mgr_or.status());
        txmgr_ = std::move(mgr_or).value();
      }
      // Mvcc: install the oracle before recovery so replayed commits that
      // carry timestamps take the versioned apply path, and seed it from
      // the checkpointed meta BEFORE replay runs — recovery ends in
      // CheckpointEngine(), which re-persists the clock, so seeding after
      // would read back the overwrite and restart the clock at zero.
      if constexpr (kMvcc) {
        txmgr_->EnableMvcc(&mvcc_.mgr);
        auto ts_or = file_->GetRootAux("mvcc.ts");
        if (ts_or.ok()) mvcc_.mgr.SeedClock(ts_or.value());
        auto mark_or = file_->GetRootAux("mvcc.mark");
        if (mark_or.ok()) mvcc_.gc_mark = mark_or.value();
      }
      FAME_RETURN_IF_ERROR(txmgr_->Recover());
      if constexpr (kMvcc) {
        // Ratchet past the highest commit ts replay saw and persist
        // immediately: recovery just truncated the log, so a crash before
        // the next checkpoint must not rewind the clock under chains.
        mvcc_.mgr.SeedClock(txmgr_->recovery_report().max_commit_ts);
        FAME_RETURN_IF_ERROR(PersistMvccMeta());
      }
      if constexpr (kReplication) {
        if (repl_.epoch != 0) txmgr_->SetWalFenceEpoch(repl_.epoch);
      }
    }
    return Status::OK();
  }

  // The access-path bodies live in EngineCore<Index> — the same template
  // Database instantiates over the virtual index interface; here it is
  // instantiated over the concrete index type, so calls devirtualize.
  // StaticEngine adds only compile-time gating and the degradation latch.

  /// Access:get — present in every product.
  Status Get(const Slice& key, std::string* value) {
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.get_ns);
      metrics_.gets.Add(1);
      return GetRecord(key, value);
    }
#endif
    return GetRecord(key, value);
  }

  /// Access:put.
  Status Put(const Slice& key, const Slice& value) {
    static_assert(Cfg::kPut, "feature Access:Put is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.put_ns);
      metrics_.puts.Add(1);
      return NoteWrite(PutRecord(key, value));
    }
#endif
    return NoteWrite(PutRecord(key, value));
  }

  /// Access:remove.
  Status Remove(const Slice& key) {
    static_assert(Cfg::kRemove, "feature Access:Remove is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.remove_ns);
      metrics_.removes.Add(1);
      return NoteWrite(RemoveRecord(key));
    }
#endif
    return NoteWrite(RemoveRecord(key));
  }

  /// Access:update — put that requires the key to exist.
  Status Update(const Slice& key, const Slice& value) {
    static_assert(Cfg::kUpdate, "feature Access:Update is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
    if constexpr (kMvcc) {
      // The key must *visibly* exist: an index hit whose chain is
      // tombstoned at the read timestamp is still absent.
      std::string existing;
      FAME_RETURN_IF_ERROR(
          core_.GetVersionedLatest(key, &existing, &mvcc_.mgr));
    } else {
      uint64_t packed = 0;
      FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
    }
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.put_ns);
      metrics_.puts.Add(1);
      return NoteWrite(PutRecord(key, value));
    }
#endif
    return NoteWrite(PutRecord(key, value));
  }

  /// Pull-based cursor over the engine's records (heap-joined values).
  /// Mutation invalidates open cursors; re-Seek after writes.
  StatusOr<EngineCursor> NewCursor() { return core_.NewCursor(); }

  /// Full scan (index order) — visitor adapter over the cursor.
  Status Scan(const KvVisitor& fn) {
#if FAME_OBS_ENABLED
    if constexpr (kObservability) {
      obs::ScopedLatencyTimer<ObsCells> timer(&metrics_.scan_ns);
      metrics_.scans.Add(1);
      return ScanRecords(fn);
    }
#endif
    return ScanRecords(fn);
  }

  /// Ordered range scan — compile-time gated on the B+-tree alternative.
  Status RangeScan(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    static_assert(kOrdered, "RangeScan requires the B+-Tree alternative");
    if constexpr (kMvcc) {
      // Registered snapshot (not a bare ReadTs): the scan's cursor owns
      // the registration, pinning the GC watermark for the whole walk.
      return core_.SnapshotRangeScan(mvcc_.mgr.BeginSnapshot(), lo, hi,
                                     /*ordered=*/true, fn, &mvcc_.mgr);
    } else {
      return core_.RangeScan(lo, hi, /*ordered=*/true, fn);
    }
  }

  /// Descending scan over [lo, hi) — the ReverseScan feature, gated at
  /// compile time (and model-constrained to the B+-Tree alternative).
  Status ReverseScan(const Slice& lo, const Slice& hi, const KvVisitor& fn) {
    static_assert(kReverse, "feature Access:ReverseScan is not selected");
    static_assert(kOrdered, "ReverseScan requires the B+-Tree alternative");
    if constexpr (kMvcc) {
      return core_.SnapshotReverseScan(mvcc_.mgr.BeginSnapshot(), lo, hi, fn,
                                       &mvcc_.mgr);
    } else {
      return core_.ReverseScan(lo, hi, fn);
    }
  }

  // ---- Transaction feature surface (instantiated on use only) ----
  StatusOr<tx::Transaction*> Begin() {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return txmgr_->Begin();
  }
  Status Commit(tx::Transaction* txn) {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    Status guard = GuardWrite();
    if (!guard.ok()) {
      txmgr_->Abort(txn);  // finish the handle; refuse the mutation
      return guard;
    }
    return NoteWrite(txmgr_->Commit(txn));
  }
  Status Abort(tx::Transaction* txn) {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return txmgr_->Abort(txn);
  }

  // ---- Transaction ▸ Mvcc feature surface (instantiated on use only) ----
  /// [feature Mvcc] Cursor frozen at the current read timestamp: positions
  /// resolve through the version chains, so writers committing after the
  /// open never change what it returns.
  StatusOr<SnapshotCursor> NewSnapshotCursor() {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    // Register the snapshot so the GC watermark cannot pass the cursor's
    // ts while it lives; the cursor owns the release.
    return core_.NewSnapshotCursor(mvcc_.mgr.BeginSnapshot(), &mvcc_.mgr);
  }
  /// [feature Mvcc] Watermark GC: prunes versions no active snapshot can
  /// see, persists the sweep watermark ("mvcc.mark"). Returns versions
  /// pruned.
  StatusOr<uint64_t> MvccGc() {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
    const uint64_t mark = mvcc_.mgr.Watermark();
    uint64_t pruned = 0;
    Status s = txmgr_->WithApplyPaused([&]() -> Status {
      FAME_ASSIGN_OR_RETURN(pruned, core_.MvccSweep(mark, &mvcc_.mgr));
      return Status::OK();
    });
    if (!s.ok()) return NoteWrite(std::move(s));
    mvcc_.gc_mark = mark;
    FAME_RETURN_IF_ERROR(NoteWrite(PersistMvccMeta()));
    return pruned;
  }
  /// [feature Mvcc] Watermark of the last completed GC sweep (persisted).
  uint64_t mvcc_gc_mark() const {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return mvcc_.gc_mark;
  }
  /// [feature Mvcc] Oracle counters.
  tx::mvcc::MvccStats mvcc_stats() const {
    static_assert(kMvcc, "feature Transaction:Mvcc is not selected");
    return mvcc_.mgr.stats();
  }

  Status Checkpoint() {
    FAME_RETURN_IF_ERROR(GuardWrite());
    if constexpr (kBackupFeature) {
      // Segmented products checkpoint through the transaction manager so
      // the retention watermark advances and old segments recycle.
      return NoteWrite(txmgr_->Checkpoint());
    }
    return NoteWrite(buffers_->Checkpoint());
  }

  // ---- Backup / Pitr feature surface (instantiated on use only) ----
  /// [feature Backup] Online hot backup to destination prefix `dest`;
  /// see core::backup::RunBackup for the artifact layout.
  Status Backup(const std::string& dest,
                backup::BackupReport* report = nullptr) {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    FAME_RETURN_IF_ERROR(GuardWrite());
    backup::BackupContext ctx;
    ctx.env = env_;
    ctx.txmgr = txmgr_.get();
    ctx.file = file_.get();
    ctx.db_path = path_;
    ctx.wal_path = path_ + ".wal";
    backup::BackupReport local;
    Status s = backup::RunBackup(ctx, dest, &local);
    if (s.ok()) {
      backup_counters_.runs += 1;
      backup_counters_.bytes += local.bytes_copied;
      if (report != nullptr) *report = local;
    }
    return s;
  }
  /// [feature Backup] Rebuilds a database at `dest_path` from the backup
  /// at prefix `src` (static: runs against files, not a live engine).
  static Status Restore(osal::Env* env, const std::string& src,
                        const std::string& dest_path,
                        const backup::RestoreOptions& opts = {},
                        backup::RestoreReport* report = nullptr) {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    return backup::RunRestore(env, src, dest_path, opts, report);
  }
  /// [feature Backup] End of the durable log — a valid PITR target.
  uint64_t DurableLsn() const {
    static_assert(Cfg::kTransactions, "feature Transaction is not selected");
    return txmgr_->durable_lsn();
  }
  /// [feature Backup] Segment-chain counters.
  tx::WalSegmentStats wal_segment_stats() const {
    static_assert(kBackupFeature, "feature Storage:Backup is not selected");
    return txmgr_->wal_segment_stats();
  }

  // ---- Replication / Failover feature surface (instantiated on use) ----
  /// [feature Replication] Takes (or resumes) leadership under fencing
  /// epoch `epoch`: persisted in the meta and stamped into every segment
  /// created from here on.
  Status StartLeader(uint32_t epoch) {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    if (epoch < repl_.epoch) {
      return Status::InvalidArgument("fencing epoch cannot move backwards");
    }
    repl_.epoch = epoch;
    repl_.role = 1;
    txmgr_->SetWalFenceEpoch(epoch);
    return PersistFenceMeta();
  }
  /// [feature Replication] Fences this product as a read-only follower.
  Status StartFollower(uint32_t epoch) {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    if (epoch < repl_.epoch) {
      return Status::InvalidArgument("fencing epoch cannot move backwards");
    }
    repl_.epoch = epoch;
    repl_.role = 2;
    txmgr_->SetWalFenceEpoch(epoch);
    return PersistFenceMeta();
  }
  /// [feature Failover] Re-fences a follower as leader under `epoch`
  /// (> current). The static product line leaves the integrity gate to
  /// the caller (its Verify feature); the runtime facade's Promote runs
  /// the scrub itself.
  Status Promote(uint32_t epoch) {
    static_assert(kFailoverFeature,
                  "feature Replication:Failover is not selected");
    if (repl_.role != 2) {
      return Status::InvalidArgument("only a follower can be promoted");
    }
    if (epoch <= repl_.epoch) {
      return Status::InvalidArgument("promotion must advance the epoch");
    }
    repl_.epoch = epoch;
    repl_.role = 1;
    txmgr_->SetWalFenceEpoch(epoch);
    return PersistFenceMeta();
  }
  /// [feature Replication] Borrowed live handles for a repl::Leader.
  backup::BackupContext ReplicationSource() {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    backup::BackupContext ctx;
    ctx.env = env_;
    ctx.txmgr = txmgr_.get();
    ctx.file = file_.get();
    ctx.db_path = path_;
    ctx.wal_path = path_ + ".wal";
    return ctx;
  }
  uint32_t repl_epoch() const {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return repl_.epoch;
  }
  bool repl_follower() const {
    static_assert(kReplication,
                  "feature Storage:Replication is not selected");
    return repl_.role == 2;
  }

  // ---- degraded (read-only) mode, mirroring core::Database ----
  /// True after a persistent write failure flipped the engine read-only;
  /// Get/Scan keep serving, mutations are rejected until reopen.
  bool read_only() const {
    storage::LockGuard<LatchMutex> l(latch_mu_);
    return !write_error_.ok();
  }
  const Status& degraded_status() const { return write_error_; }
  /// What WAL recovery found at Open (transactional products).
  tx::RecoveryReport recovery_report() const {
    return txmgr_ != nullptr ? txmgr_->recovery_report() : tx::RecoveryReport{};
  }
  storage::BufferManager* buffers() { return buffers_.get(); }
  osal::Allocator* allocator() { return alloc_.get(); }
  Index* index() { return index_.get(); }

#if FAME_OBS_ENABLED
  /// [feature Observability] Snapshot of every metric this product
  /// collects. Compile-time gated like ReverseScan: products that
  /// deselect the feature fail the static_assert (and carry none of the
  /// collection code).
  obs::MetricsSnapshot GetMetricsSnapshot() const {
    static_assert(kObservability,
                  "feature Storage:Observability is not selected");
    obs::MetricsSnapshot m;
    metrics_.Snapshot(&m);
    storage::BufferStats b = buffers_->stats();
    m.buffer_hits = b.hits;
    m.buffer_misses = b.misses;
    m.buffer_evictions = b.evictions;
    m.buffer_writebacks = b.dirty_writebacks;
    for (size_t i = 0; i < buffers_->shard_count(); ++i) {
      storage::BufferStats s = buffers_->shard_stats(i);
      m.buffer_shards.push_back(
          {s.hits, s.misses, s.evictions, s.dirty_writebacks});
    }
    const auto& io = file_->io_metrics();
    m.file_reads = io.reads.Load();
    m.file_writes = io.writes.Load();
    m.file_syncs = io.syncs.Load();
    m.file_read_bytes = io.read_bytes.Load();
    m.file_write_bytes = io.write_bytes.Load();
    m.file_read_ns = io.read_ns.Snapshot();
    m.file_write_ns = io.write_ns.Snapshot();
    m.file_sync_ns = io.sync_ns.Snapshot();
    m.file_verify_ns = io.verify_ns.Snapshot();
    m.file_seal_ns = io.seal_ns.Snapshot();
    if constexpr (std::is_same_v<Index, index::BPlusTree>) {
      const auto& bt = index_->metrics();
      m.btree_splits = bt.splits.Load();
      m.btree_merges = bt.merges.Load();
      m.btree_descents = bt.descents.Load();
    }
    if constexpr (Cfg::kTransactions) {
      tx::WalStats w = txmgr_->wal_stats();
      m.wal_appends = w.records_appended;
      m.wal_syncs = w.syncs;
      m.wal_batches = w.group_batches;
      m.wal_batched_bytes = w.group_batched_bytes;
      m.wal_batch_records = txmgr_->wal_batch_histogram();
      m.committed_txns = txmgr_->committed();
      m.aborted_txns = txmgr_->aborted();
      tx::RecoveryReport r = txmgr_->recovery_report();
      m.recovery_applied_records = r.applied_records;
      m.recovery_dropped_bytes = r.dropped_bytes;
      if constexpr (kBackupFeature) {
        tx::WalSegmentStats seg = txmgr_->wal_segment_stats();
        m.wal_segmented = true;
        m.wal_segments = seg.segments;
        m.wal_rotations = seg.rotations;
        m.wal_recycled = seg.recycled;
        m.wal_archived = seg.archived;
        m.wal_archive_lag_bytes = seg.archive_lag_bytes;
        m.wal_archive_stalled = seg.archive_stalled;
        m.wal_retained_lsn = seg.retained_lsn;
        m.backup_runs = backup_counters_.runs;
        m.backup_bytes = backup_counters_.bytes;
      }
      if constexpr (kMvcc) {
        tx::mvcc::MvccStats ms = mvcc_.mgr.stats();
        m.mvcc = true;
        m.mvcc_active_snapshots = ms.active_snapshots;
        m.mvcc_conflicts = ms.conflicts;
        m.mvcc_gc_runs = ms.gc_runs;
        m.mvcc_gc_pruned = ms.gc_pruned;
        m.mvcc_watermark = ms.watermark;
        m.mvcc_clock = ms.clock;
        m.mvcc_chain_len = mvcc_.mgr.chain_len_histogram();
      }
    }
    osal::AllocStats alloc = alloc_.get()->stats();
    m.alloc_name = alloc_.get()->name();
    m.alloc_live_bytes = alloc.live_bytes;
    m.alloc_peak_bytes = alloc.peak_bytes;
    m.alloc_remote_frees = alloc.remote_frees;
#if FAME_SLAB_ENABLED
    // Cross-thread frees of pooled per-op objects (cursors, transactions)
    // are process-wide: the pool is thread-local, not per-engine.
    m.alloc_remote_frees += osal::slab::PooledCrossThreadFrees();
#endif
    m.lost_meta_writes = storage::PageFile::lost_meta_writes();
    m.lost_page_writebacks = storage::BufferLostWritebacks();
    m.page_count = file_->page_count();
    m.read_only = read_only();
    return m;
  }
#endif

 private:
  /// The degradation latch is touched from every committer in a concurrent
  /// product; a no-op lock (compiled away) in single-threaded ones.
  using LatchMutex =
      std::conditional_t<kConcurrent, std::mutex,
                         storage::SingleThreaded::Mutex>;

  Status GuardWrite() const {
    if constexpr (kReplication) {
      if (repl_.role == 2) {
        return Status::NotSupported(
            "replica is read-only (follower role); promote to accept writes");
      }
    }
    storage::LockGuard<LatchMutex> l(latch_mu_);
    if (write_error_.ok()) return Status::OK();
    return Status::IOError("engine is read-only after write failure: " +
                           write_error_.ToString());
  }

  /// [feature Replication] Fence persistence in the PageFile meta
  /// (instantiated only from the gated surface above).
  Status PersistFenceMeta() {
    FAME_RETURN_IF_ERROR(file_->SetRoot(
        "repl.fence", storage::kInvalidPageId,
        (static_cast<uint64_t>(repl_.epoch) << 8) | repl_.role));
    return file_->Sync();
  }

  Status NoteWrite(Status s) {
    storage::LockGuard<LatchMutex> l(latch_mu_);
    if (write_error_.ok() &&
        (s.code() == StatusCode::kIOError ||
         s.code() == StatusCode::kCorruption)) {
      write_error_ = s;
    }
    return s;
  }

  // tx::ApplyTarget (reached only in transactional products).
  Status ApplyPut(const std::string& store, const Slice& key,
                  const Slice& value) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    if constexpr (kMvcc) {
      // Legacy (timestamp-less) log records migrate on the fly: each
      // becomes a fresh head version. Sequenced so the watermark is read
      // after the tick (unspecified evaluation order otherwise).
      const uint64_t ts = mvcc_.mgr.AdvanceClock();
      return core_.WriteVersion(key, value, /*tombstone=*/false, ts,
                                mvcc_.mgr.Watermark(), &mvcc_.mgr);
    } else {
      return core_.Put(key, value);
    }
  }
  Status ApplyDelete(const std::string& store, const Slice& key) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    if constexpr (kMvcc) {
      return RemoveRecord(key);
    } else {
      return core_.Remove(key);
    }
  }
  Status ReadCommitted(const std::string& store, const Slice& key,
                       std::string* value) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    return Get(key, value);
  }
  // [feature Mvcc] Versioned apply/read slots; the bodies collapse to the
  // plain codec unless Mvcc is selected (same pattern as PersistWalMark —
  // virtual overrides instantiate with the vtable, so the gate must live
  // inside the body).
  Status ApplyPutVersioned(const std::string& store, const Slice& key,
                           const Slice& value, uint64_t commit_ts) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    if constexpr (kMvcc) {
      mvcc_.mgr.SeedClock(commit_ts);  // replay may precede clock seeding
      return core_.WriteVersion(key, value, /*tombstone=*/false, commit_ts,
                                mvcc_.mgr.Watermark(), &mvcc_.mgr);
    } else {
      (void)commit_ts;
      return core_.Put(key, value);
    }
  }
  Status ApplyDeleteVersioned(const std::string& store, const Slice& key,
                              uint64_t commit_ts) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    if constexpr (kMvcc) {
      mvcc_.mgr.SeedClock(commit_ts);
      uint64_t packed = 0;
      FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
      return core_.WriteVersion(key, Slice(), /*tombstone=*/true, commit_ts,
                                mvcc_.mgr.Watermark(), &mvcc_.mgr);
    } else {
      (void)commit_ts;
      return core_.Remove(key);
    }
  }
  Status ReadAtSnapshot(const std::string& store, const Slice& key,
                        uint64_t ts, std::string* value) override {
    if (store != "core") return Status::InvalidArgument("unknown store");
    if constexpr (kMvcc) {
      return core_.GetVersioned(key, ts, value, &mvcc_.mgr);
    } else {
      (void)ts;
      return Get(key, value);
    }
  }
  Status CheckpointEngine() override {
    FAME_RETURN_IF_ERROR(buffers_->Checkpoint());
    // Checkpoint is the durability point of the timestamp oracle: the WAL
    // below it may be truncated/recycled afterwards.
    if constexpr (kMvcc) FAME_RETURN_IF_ERROR(PersistMvccMeta());
    return Status::OK();
  }

  // ---- [feature Mvcc] record-path seam -----------------------------
  // Plain bytes without the feature, a version-chain append / visible-
  // version resolve at the current read timestamp with it. Every surface
  // access funnels through these.
  Status PutRecord(const Slice& key, const Slice& value) {
    if constexpr (kMvcc) {
      // Auto-commit write through the oracle's conflict table, so MVCC
      // transactions that read this key before the write conflict at
      // their commit (no lost update); the ts stays invisible to new
      // snapshots until the apply lands (FinishCommit).
      const uint64_t commit_ts =
          mvcc_.mgr.PrepareAutoCommit("core:" + key.ToString());
      Status s = core_.WriteVersion(key, value, /*tombstone=*/false,
                                    commit_ts, mvcc_.mgr.Watermark(),
                                    &mvcc_.mgr);
      mvcc_.mgr.FinishCommit(commit_ts);
      return s;
    } else {
      return core_.Put(key, value);
    }
  }
  Status RemoveRecord(const Slice& key) {
    if constexpr (kMvcc) {
      // Preserve Remove's NotFound contract against the *visible* state.
      std::string existing;
      FAME_RETURN_IF_ERROR(
          core_.GetVersionedLatest(key, &existing, &mvcc_.mgr));
      const uint64_t commit_ts =
          mvcc_.mgr.PrepareAutoCommit("core:" + key.ToString());
      Status s = core_.WriteVersion(key, Slice(), /*tombstone=*/true,
                                    commit_ts, mvcc_.mgr.Watermark(),
                                    &mvcc_.mgr);
      mvcc_.mgr.FinishCommit(commit_ts);
      return s;
    } else {
      return core_.Remove(key);
    }
  }
  Status GetRecord(const Slice& key, std::string* value) {
    if constexpr (kMvcc) {
      // The read ts is sampled under the physical latch (see
      // EngineCore::GetVersionedLatest) so concurrent commits cannot prune
      // the version this read resolves.
      return core_.GetVersionedLatest(key, value, &mvcc_.mgr);
    } else {
      return core_.Get(key, value);
    }
  }
  Status ScanRecords(const KvVisitor& fn) {
    if constexpr (kMvcc) {
      return core_.SnapshotScan(mvcc_.mgr.BeginSnapshot(), fn, &mvcc_.mgr);
    } else {
      return core_.Scan(fn);
    }
  }
  /// [feature Mvcc] Oracle + GC-mark persistence in the PageFile meta
  /// (instantiated only from the gated paths above).
  Status PersistMvccMeta() {
    // The raw clock, not the pending-gated read ts: a reopened clock below
    // any persisted chain head would drop fresh writes as replays.
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.ts", storage::kInvalidPageId,
                                        mvcc_.mgr.Clock()));
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.mark", storage::kInvalidPageId,
                                        mvcc_.gc_mark));
    return file_->Sync();
  }
  // [feature Backup] Watermark persistence in the PageFile meta. Virtual
  // slots exist in every product; the bodies collapse to the base-class
  // no-ops unless Backup is selected (and are only ever called by
  // segmented checkpoints).
  Status PersistWalMark(tx::Lsn mark) override {
    if constexpr (kBackupFeature) {
      FAME_RETURN_IF_ERROR(
          file_->SetRoot("wal.mark", storage::kInvalidPageId, mark));
      return file_->Sync();
    } else {
      (void)mark;
      return Status::OK();
    }
  }
  StatusOr<tx::Lsn> LoadWalMark() override {
    if constexpr (kBackupFeature) {
      auto aux_or = file_->GetRootAux("wal.mark");
      if (!aux_or.ok()) return static_cast<tx::Lsn>(0);  // no checkpoint yet
      return aux_or.value();
    } else {
      return static_cast<tx::Lsn>(0);
    }
  }

  osal::Env* env_ = nullptr;
  detail::AllocState<Cfg::kStaticPoolBytes> alloc_;
  std::unique_ptr<storage::PageFile> file_;
  std::unique_ptr<storage::BufferManager> buffers_;
  std::unique_ptr<storage::RecordManager> heap_;
  std::unique_ptr<Index> index_;
  EngineCore<Index> core_;
#if FAME_OBS_ENABLED
  /// Sized only when the product selects Observability; otherwise an
  /// empty tag that [[no_unique_address]] collapses to nothing.
  [[no_unique_address]] mutable std::conditional_t<
      kObservability, obs::BasicMetricsRegistry<ObsCells>, detail::NoMetrics>
      metrics_;
#endif
  std::unique_ptr<tx::TransactionManager> txmgr_;
  std::string path_;
  /// Sized only for Backup products ([[no_unique_address]] otherwise).
  [[no_unique_address]] std::conditional_t<kBackupFeature,
                                           detail::BackupCounters,
                                           detail::NoBackupCounters>
      backup_counters_;
  /// Sized only for Replication products ([[no_unique_address]] otherwise).
  [[no_unique_address]] std::conditional_t<kReplication, detail::ReplState,
                                           detail::NoReplState>
      repl_;
  /// Timestamp oracle + GC mark; sized only for Mvcc products
  /// ([[no_unique_address]] otherwise).
  [[no_unique_address]] std::conditional_t<kMvcc, detail::MvccState,
                                           detail::NoMvccState>
      mvcc_;
  mutable LatchMutex latch_mu_;
  Status write_error_;  // first persistent write failure; OK while healthy
};

}  // namespace fame::core

#endif  // FAME_CORE_STATIC_ENGINE_H_
