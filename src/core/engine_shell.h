// EngineShell: the one engine of the FAME-DBMS product line. Both
// composition styles are this template over a feature policy:
// StaticEngine<Cfg> binds every feature at compile time (the
// FeatureC++-equivalent composition of paper §2.3) and Database binds them
// once at Open from a validated feature configuration (the component
// composition of §2.1). A policy states, per feature, how it is bound:
//
//   Off      not instantiated (`if constexpr`): its state collapses to an
//            empty [[no_unique_address]] member and its API members do not
//            exist (`requires`) — "the application contains only and
//            exactly the functionality required";
//   On       compiled in, no runtime test;
//   Runtime  compiled in and gated by a bit the policy resolved at Open;
//            an unselected surface answers NotSupported.
//
// The shell owns the storage stack and its EngineCore binding, the
// transaction/Mvcc open sequence, the degradation latch, the replication
// fence, the record-path seam, the tx::ApplyTarget overrides and the
// Checkpoint/Backup/Replication/Mvcc/metrics surfaces, so a feature lands
// here once for both engines.
//
// Policy requirements:
//   static constexpr Binding binding(Feature);
//   bool on(Feature) const;          // consulted for Binding::kRuntime only
//   using Index;                     // concrete or virtual index type
//   using Alloc;                     // Memory Alloc state, get() -> Allocator*
//   EngineKnobs knobs;               // static constexpr in static policies
//   StatusOr<std::unique_ptr<Index>> OpenIndex(storage::BufferManager*);
//   using Owner;                     // optional: the derived facade, which
//                                    // then provides OnWriteFailure() and
//                                    // AddOwnerMetrics()
#ifndef FAME_CORE_ENGINE_SHELL_H_
#define FAME_CORE_ENGINE_SHELL_H_

#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "core/backup.h"
#include "core/engine_core.h"
#include "index/bplus_tree.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/slab_alloc.h"
#include "storage/buffer.h"
#include "storage/record.h"
#include "tx/txmgr.h"

namespace fame::core {

/// How one feature is bound in a product.
enum class Binding : uint8_t { kOff, kOn, kRuntime };

/// The features the engines gate. Scrub/Verify/Repair and the data types
/// have no static surface; the runtime facade resolves them with the rest.
enum class Feature : uint8_t {
  kPut,
  kRemove,
  kUpdate,
  kBPlusTree,
  kReverseScan,
  kTransaction,
  kForceCommit,
  kConcurrency,
  kMvcc,
  kObservability,
  kBackup,
  kPitr,
  kReplication,
  kFailover,
  kScrub,
  kVerify,
  kRepair,
  kIntTypes,
  kStringTypes,
  kBlobTypes,
  kCount
};

/// Feature-model names (Figure 2) of the features above, in enum order.
inline constexpr const char* kFeatureNames[] = {
    "Put",     "Remove",        "Update",      "B+-Tree",     "ReverseScan",
    "Transaction", "Force-Commit", "Concurrency", "Mvcc",    "Observability",
    "Backup",  "Pitr",          "Replication", "Failover",    "Scrub",
    "Verify",  "Repair",        "Int-Types",   "String-Types", "Blob-Types"};
static_assert(std::size(kFeatureNames) ==
              static_cast<size_t>(Feature::kCount));

/// Tuning knobs of the storage stack.
struct EngineKnobs {
  uint32_t page_size = 4096;
  size_t buffer_frames = 64;
  const char* replacement = "lru";  // "lru" | "lfu" | "clock"
  uint64_t wal_segment_bytes = 64 * 1024;  // [feature Backup] segment roll
};

template <typename Policy>
class EngineShell;

namespace detail {

/// Stand-in for the state of an Off feature; one type per feature so the
/// [[no_unique_address]] members of several Off features share no byte.
template <Feature F>
struct Without {};

/// [feature Backup] Completed hot backups and their output bytes (atomics:
/// Backup may run from a second thread under Concurrency).
struct BackupCounters {
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> bytes{0};
};

/// [feature Mvcc] Timestamp oracle + GC mark. Constructing the MvccManager
/// is what pulls tx/mvcc.o out of the library — products without the
/// feature hold Without<kMvcc> and reference nothing.
struct MvccState {
  tx::mvcc::MvccManager mgr;
  uint64_t gc_mark = 0;  // watermark of the last completed GC sweep
};

/// Replication fence, persisted as the meta root "repl.fence" with aux
/// `epoch << 8 | role`.
struct Fence {
  uint8_t role = 0;  // kRoleNone / kRoleLeader / kRoleFollower
  uint32_t epoch = 0;
};

}  // namespace detail

template <typename Policy>
class EngineShell : private tx::ApplyTarget {
 protected:
  using enum Feature;
  template <Feature F>
  static constexpr bool kCan = Policy::binding(F) != Binding::kOff;
  template <Feature F>
  static constexpr bool kRuntime = Policy::binding(F) == Binding::kRuntime;
  /// Per-op metrics exist where the product can select Observability and
  /// the build compiles the instrumentation in.
  static constexpr bool kCollect = FAME_OBS_ENABLED && kCan<kObservability>;
  /// A surface's return type: the bare value where the feature is bound
  /// at compile time, StatusOr (NotSupported when unselected) at runtime.
  template <Feature F, typename T>
  using Gated = std::conditional_t<Policy::binding(F) == Binding::kRuntime,
                                   StatusOr<T>, T>;
  /// Plain integers in single-threaded products, relaxed atomics wherever
  /// Concurrency may be selected — the buffer pool's policy split.
  using ObsCells = std::conditional_t<kCan<kConcurrency>, obs::SharedCells,
                                      storage::SingleThreaded>;

 public:
  using Index = typename Policy::Index;
  static constexpr bool kConcurrent =
      Policy::binding(kConcurrency) == Binding::kOn;

  EngineShell() = default;
  ~EngineShell() override = default;
  EngineShell(const EngineShell&) = delete;
  EngineShell& operator=(const EngineShell&) = delete;

  /// Opens the engine at `path` in `env`. With the Transaction feature the
  /// WAL is recovered before the call returns.
  Status Open(osal::Env* env, const std::string& path) {
    env_ = env;
    path_ = path;
    FAME_RETURN_IF_ERROR(OpenStorage());
    // Loaded in every product: a follower's page file must stay read-only
    // even when a product without Replication opens it — local writes into
    // a replica would silently diverge it.
    auto fence_or = file_->GetRootAux("repl.fence");
    if (fence_or.ok()) {
      fence_.epoch = static_cast<uint32_t>(fence_or.value() >> 8);
      fence_.role = static_cast<uint8_t>(fence_or.value() & 0xff);
    }
    if constexpr (kCan<kTransaction>) {
      if (Has<kTransaction>()) return OpenTransactions();
    }
    return Status::OK();
  }

  // ---- Access (the bodies live in EngineCore) ----
  Status Get(const Slice& key, std::string* value) {
    return Instrument(
        obs::TraceOp::kGet,
        [](auto& m) { return std::pair(&m.gets, &m.get_ns); },
        [&] { return GetRecord(key, value); });
  }

  Status Put(const Slice& key, const Slice& value)
    requires kCan<kPut>
  {
    FAME_RETURN_IF_ERROR(Require<kPut>());
    return Instrument(
        obs::TraceOp::kPut,
        [](auto& m) { return std::pair(&m.puts, &m.put_ns); },
        [&] {
          FAME_RETURN_IF_ERROR(GuardWrite());
          return NoteWrite(PutRecord(key, value));
        });
  }

  Status Remove(const Slice& key)
    requires kCan<kRemove>
  {
    FAME_RETURN_IF_ERROR(Require<kRemove>());
    return Instrument(
        obs::TraceOp::kRemove,
        [](auto& m) { return std::pair(&m.removes, &m.remove_ns); },
        [&] {
          FAME_RETURN_IF_ERROR(GuardWrite());
          return NoteWrite(RemoveRecord(key));
        });
  }

  /// Put that requires the key to (visibly) exist.
  Status Update(const Slice& key, const Slice& value)
    requires kCan<kUpdate>
  {
    FAME_RETURN_IF_ERROR(Require<kUpdate>());
    return Instrument(
        obs::TraceOp::kUpdate,
        [](auto& m) { return std::pair(&m.puts, &m.put_ns); },
        [&] {
          FAME_RETURN_IF_ERROR(GuardWrite());
          FAME_RETURN_IF_ERROR(CheckExists(key));
          return NoteWrite(PutRecord(key, value));
        });
  }

  /// Pull-based cursor over the engine's records (heap-joined values).
  /// Mutation invalidates open cursors; re-Seek after writes. With Mvcc the
  /// joined values are raw version chains — NewSnapshotCursor is the
  /// record-level view.
  StatusOr<EngineCursor> NewCursor() { return core_.NewCursor(); }

  /// Full scan in index order over the visible records.
  Status Scan(const KvVisitor& fn) {
    return Instrument(
        obs::TraceOp::kScan,
        [](auto& m) { return std::pair(&m.scans, &m.scan_ns); },
        [&] { return ScanRecords(fn); });
  }

  /// lo <= key < hi, ascending — the B+-Tree alternative only.
  Status RangeScan(const Slice& lo, const Slice& hi, const KvVisitor& fn)
    requires kCan<kBPlusTree>
  {
    FAME_RETURN_IF_ERROR(Require<kBPlusTree>());
    return Instrument(
        obs::TraceOp::kScan,
        [](auto& m) { return std::pair(&m.scans, &m.scan_ns); },
        [&] {
          return WithRecordCursor([&](auto& c) {
            return VisitRange(c, lo, hi, /*ordered=*/true, fn);
          });
        });
  }

  /// [feature ReverseScan] Descending over [lo, hi) (empty hi = from the
  /// last key); the model ties the feature to the B+-Tree.
  Status ReverseScan(const Slice& lo, const Slice& hi, const KvVisitor& fn)
    requires(kCan<kReverseScan> && kCan<kBPlusTree>)
  {
    FAME_RETURN_IF_ERROR(Require<kReverseScan>());
    return Instrument(
        obs::TraceOp::kReverseScan,
        [](auto& m) { return std::pair(&m.scans, &m.scan_ns); },
        [&] {
          return WithRecordCursor(
              [&](auto& c) { return VisitReverse(c, lo, hi, fn); });
        });
  }

  // ---- Transaction ----
  StatusOr<tx::Transaction*> Begin()
    requires kCan<kTransaction>
  {
    FAME_RETURN_IF_ERROR(Require<kTransaction>());
    return txmgr_->Begin();
  }
  Status Commit(tx::Transaction* txn)
    requires kCan<kTransaction>
  {
    FAME_RETURN_IF_ERROR(Require<kTransaction>());
    return Traced(obs::TraceOp::kCommit, [&] {
      Status guard = GuardWrite();
      if (!guard.ok()) {
        // Still finish the transaction (drop writes, release locks) so the
        // handle does not leak, but refuse the mutation.
        txmgr_->Abort(txn);
        return guard;
      }
      return NoteWrite(txmgr_->Commit(txn));
    });
  }
  Status Abort(tx::Transaction* txn)
    requires kCan<kTransaction>
  {
    FAME_RETURN_IF_ERROR(Require<kTransaction>());
    return Traced(obs::TraceOp::kAbort, [&] { return txmgr_->Abort(txn); });
  }

  // ---- Transaction ▸ Mvcc ----
  bool mvcc() const { return Has<kMvcc>(); }
  /// [feature Mvcc] Cursor frozen at the current read timestamp: writers
  /// committing after the open never change what it returns.
  StatusOr<SnapshotCursor> NewSnapshotCursor()
    requires kCan<kMvcc>
  {
    FAME_RETURN_IF_ERROR(Require<kMvcc>());
    // Registered, so the GC watermark cannot pass the cursor's ts while it
    // lives; the cursor owns the release.
    return core_.NewSnapshotCursor(mvcc_.mgr.BeginSnapshot(), &mvcc_.mgr);
  }
  /// [feature Mvcc] Watermark GC: prunes versions no active snapshot can
  /// see (and keys fully dead under a tombstone), then persists the sweep
  /// watermark ("mvcc.mark"). Returns versions pruned.
  StatusOr<uint64_t> MvccGc()
    requires kCan<kMvcc>
  {
    FAME_RETURN_IF_ERROR(Require<kMvcc>());
    FAME_RETURN_IF_ERROR(GuardWrite());
    const uint64_t mark = mvcc_.mgr.Watermark();
    uint64_t pruned = 0;
    // The sweep rewrites heap records in place; exclude concurrent engine
    // applies the same way hot backup does.
    Status s = txmgr_->WithApplyPaused([&]() -> Status {
      FAME_ASSIGN_OR_RETURN(pruned, core_.MvccSweep(mark, &mvcc_.mgr));
      return Status::OK();
    });
    if (!s.ok()) return NoteWrite(std::move(s));
    mvcc_.gc_mark = mark;
    FAME_RETURN_IF_ERROR(NoteWrite(PersistMvccMeta()));
    return pruned;
  }
  /// [feature Mvcc] Watermark of the last completed GC sweep (persisted;
  /// 0 before the first sweep).
  uint64_t mvcc_gc_mark() const
    requires kCan<kMvcc>
  {
    return mvcc_.gc_mark;
  }
  /// [feature Mvcc] Oracle counters (zero-valued while unselected).
  tx::mvcc::MvccStats mvcc_stats() const
    requires kCan<kMvcc>
  {
    return mvcc_.mgr.stats();
  }

  /// Flushes the engine. Transactional products go through the
  /// transaction manager, which truncates the log behind the flush (or,
  /// segmented, advances the retention watermark so old segments recycle).
  Status Checkpoint() {
    FAME_RETURN_IF_ERROR(GuardWrite());
    if constexpr (kCan<kTransaction>) {
      if (txmgr_ != nullptr) return NoteWrite(txmgr_->Checkpoint());
    }
    return NoteWrite(buffers_->Checkpoint());
  }

  // ---- Backup / Pitr ----
  /// [feature Backup] Online hot backup to destination prefix `dest` (page
  /// file at `dest`, segments at `dest.wal.NNNNNN`, CRC-sealed manifest at
  /// `dest.manifest`); see core::backup::RunBackup.
  Status Backup(const std::string& dest, backup::BackupReport* report = nullptr)
    requires kCan<kBackup>
  {
    FAME_RETURN_IF_ERROR(Require<kBackup>());
    FAME_RETURN_IF_ERROR(GuardWrite());
    backup::BackupReport local;
    Status s = backup::RunBackup(LiveHandles(), dest, &local);
    if (s.ok()) {
      backups_.runs.fetch_add(1, std::memory_order_relaxed);
      backups_.bytes.fetch_add(local.bytes_copied, std::memory_order_relaxed);
      if (report != nullptr) *report = local;
    }
    return s;
  }
  /// [feature Backup] Rebuilds a database at `dest_path` from the backup
  /// at prefix `src` (nullptr env = PosixEnv); `opts.target_lsn` past the
  /// backup end replays archived segments (feature Pitr). Open the result
  /// normally to complete recovery.
  static Status Restore(osal::Env* env, const std::string& src,
                        const std::string& dest_path,
                        const backup::RestoreOptions& opts = {},
                        backup::RestoreReport* report = nullptr)
    requires kCan<kBackup>
  {
    return backup::RunRestore(env != nullptr ? env : osal::GetPosixEnv(), src,
                              dest_path, opts, report);
  }
  /// End of the durable log (a valid PITR target); 0 without a log.
  uint64_t DurableLsn() const
    requires kCan<kTransaction>
  {
    return txmgr_ != nullptr ? txmgr_->durable_lsn() : 0;
  }
  /// [feature Backup] Segment-chain counters (zero-valued while
  /// unselected).
  tx::WalSegmentStats wal_segment_stats() const
    requires kCan<kBackup>
  {
    return Has<kBackup>() ? txmgr_->wal_segment_stats() : tx::WalSegmentStats{};
  }

  // ---- Replication / Failover ----
  /// [feature Replication] Takes (or resumes) leadership under fencing
  /// epoch `epoch`: persisted in the meta and stamped into every segment
  /// created from here on. The epoch only moves forward.
  Status StartLeader(uint32_t epoch)
    requires kCan<kReplication>
  {
    return TakeRole(epoch, kRoleLeader);
  }
  /// [feature Replication] Fences this product as a read-only follower:
  /// every local mutation is refused until promotion; the shipped log
  /// (replay by recovery) is the only write path.
  Status StartFollower(uint32_t epoch)
    requires kCan<kReplication>
  {
    return TakeRole(epoch, kRoleFollower);
  }
  /// [feature Failover] Re-fences a follower as leader under `epoch`
  /// (> current). Integrity gating is the caller's: the static product line
  /// leaves it to its Verify feature, Database::Promote scrubs first.
  Status Promote(uint32_t epoch)
    requires kCan<kFailover>
  {
    FAME_RETURN_IF_ERROR(CheckPromotion(epoch));
    return Refence(epoch, kRoleLeader);
  }
  /// [feature Replication] Borrowed live handles for a repl::Leader bound
  /// to this engine (the shape hot backup uses).
  Gated<kReplication, backup::BackupContext> ReplicationSource()
    requires kCan<kReplication>
  {
    if constexpr (kRuntime<kReplication>) {
      FAME_RETURN_IF_ERROR(Require<kReplication>());
    }
    return LiveHandles();
  }
  uint32_t repl_epoch() const { return fence_.epoch; }
  bool repl_follower() const { return fence_.role == kRoleFollower; }

  // ---- degraded (read-only) mode ----
  /// True after a persistent write failure (IO error, or corruption found
  /// on a mutation path) flipped the engine read-only. Reads keep serving;
  /// every mutation is refused until the database is reopened.
  bool read_only() const {
    storage::LockGuard<LatchMutex> l(latch_mu_);
    return !write_error_.ok();
  }
  /// The failure that degraded the engine (OK while healthy).
  const Status& degraded_status() const { return write_error_; }
  /// What WAL recovery found at Open (zero-valued without a log).
  tx::RecoveryReport recovery_report() const {
    return txmgr_ != nullptr ? txmgr_->recovery_report() : tx::RecoveryReport{};
  }

  osal::Env* env() { return env_; }
  storage::BufferManager* buffers() { return buffers_.get(); }
  osal::Allocator* allocator() { return alloc_.get(); }
  Index* index() { return index_.get(); }

  /// [feature Observability] Every metric this product collects: engine
  /// ops, buffer pool per shard, file IO, WAL batching, B+-tree structure,
  /// cursor pipeline, Mvcc oracle, allocator.
  Gated<kObservability, obs::MetricsSnapshot> GetMetricsSnapshot() const
    requires kCan<kObservability>
  {
    if constexpr (kRuntime<kObservability>) {
      FAME_RETURN_IF_ERROR(Require<kObservability>());
    }
    return SnapshotMetrics();
  }

 protected:
  static constexpr uint8_t kRoleNone = 0, kRoleLeader = 1, kRoleFollower = 2;
  /// Store name of the engine's heap and index.
  static constexpr char kStore[] = "core";

  template <Feature F>
  bool Has() const {
    if constexpr (kRuntime<F>) {
      return policy_.on(F);
    } else {
      return kCan<F>;
    }
  }
  /// OK when `F` is selected, NotSupported otherwise (folds away in static
  /// products, where an unselected surface does not exist).
  template <Feature F>
  Status Require() const {
    if (Has<F>()) return Status::OK();
    return Status::NotSupported(std::string("feature ") +
                                kFeatureNames[static_cast<size_t>(F)] +
                                " not selected");
  }

  /// Opens (or, for Repair, re-opens) the page file, buffer pool, heap and
  /// index at path_ and rebinds the access path.
  Status OpenStorage() {
    storage::PageFileOptions opts;
    opts.page_size = policy_.knobs.page_size;
    FAME_ASSIGN_OR_RETURN(file_, storage::PageFile::Open(env_, path_, opts));
    FAME_ASSIGN_OR_RETURN(
        buffers_, storage::BufferManager::Create(
                      file_.get(), policy_.knobs.buffer_frames, alloc_.get(),
                      storage::MakeReplacementPolicy(policy_.knobs.replacement)));
    FAME_ASSIGN_OR_RETURN(heap_,
                          storage::RecordManager::Open(buffers_.get(), kStore));
    FAME_ASSIGN_OR_RETURN(index_, policy_.OpenIndex(buffers_.get()));
    core_.Bind(heap_.get(), index_.get());
#if FAME_OBS_ENABLED
    if constexpr (kCollect) core_.SetCursorSink(metrics_.cursors.sink());
#endif
    return Status::OK();
  }

  /// Opens the transaction manager over the product's log flavor (segmented
  /// with Backup, the single file otherwise), installs and seeds the Mvcc
  /// oracle, and runs recovery.
  Status OpenTransactions()
    requires kCan<kTransaction>
  {
    const tx::CommitProtocol protocol = Has<kForceCommit>()
                                            ? tx::CommitProtocol::kForceAtCommit
                                            : tx::CommitProtocol::kWalRedo;
    const bool group_commit = Has<kConcurrency>();
    const std::string log_path = path_ + ".wal";
    txmgr_.reset();
    if constexpr (kCan<kBackup>) {
      // Segmented log: only this branch (so only Backup products)
      // references the segment machinery's translation unit.
      if (Has<kBackup>()) {
        tx::WalOptions wopts;
        wopts.segment_bytes = policy_.knobs.wal_segment_bytes;
        wopts.archive = Has<kPitr>();
        FAME_ASSIGN_OR_RETURN(
            auto log, tx::LogManager::OpenSegmented(env_, log_path, wopts));
        FAME_ASSIGN_OR_RETURN(
            txmgr_, tx::TransactionManager::Adopt(std::move(log), this,
                                                  protocol, group_commit));
      }
    }
    if (txmgr_ == nullptr) {
      FAME_ASSIGN_OR_RETURN(txmgr_,
                            tx::TransactionManager::Open(env_, log_path, this,
                                                         protocol, group_commit));
    }
    if constexpr (kCan<kMvcc>) {
      // Install the oracle before recovery so replayed commits that carry
      // timestamps take the versioned apply path, and seed it from the
      // checkpointed meta BEFORE replay runs: recovery ends in
      // CheckpointEngine(), which re-persists the clock, so seeding after
      // would read back the overwrite and restart the clock at zero.
      if (Has<kMvcc>()) {
        txmgr_->EnableMvcc(&mvcc_.mgr);
        auto ts_or = file_->GetRootAux("mvcc.ts");
        if (ts_or.ok()) mvcc_.mgr.SeedClock(ts_or.value());
        auto mark_or = file_->GetRootAux("mvcc.mark");
        if (mark_or.ok()) mvcc_.gc_mark = mark_or.value();
      }
    }
    FAME_RETURN_IF_ERROR(txmgr_->Recover());
    if constexpr (kCan<kMvcc>) {
      // Ratchet past the highest commit ts replay saw and persist at once:
      // recovery just truncated the log, so a crash before the next
      // checkpoint must not rewind the clock under existing chains.
      if (Has<kMvcc>()) {
        mvcc_.mgr.SeedClock(txmgr_->recovery_report().max_commit_ts);
        FAME_RETURN_IF_ERROR(PersistMvccMeta());
      }
    }
    if constexpr (kCan<kBackup>) {
      // New segments carry the persisted fence from the first commit, not
      // only after StartLeader/StartFollower re-stamps it.
      if (fence_.epoch != 0) txmgr_->SetWalFenceEpoch(fence_.epoch);
    }
    return Status::OK();
  }

  /// Rejects mutations once the engine is degraded or fenced as a follower.
  Status GuardWrite() const {
    if (fence_.role == kRoleFollower) {
      return Status::NotSupported(
          "replica is read-only (follower role); promote to accept writes");
    }
    storage::LockGuard<LatchMutex> l(latch_mu_);
    if (write_error_.ok()) return Status::OK();
    return Status::IOError("engine is read-only after write failure: " +
                           write_error_.ToString());
  }

  /// Flips the engine read-only when `s` is a persistent write failure and
  /// returns `s` unchanged. IO errors that survived the storage layer's
  /// bounded retries, and corruption found on a mutation path, may have
  /// left a half-applied write on disk: stop mutating instead of
  /// compounding it. Reopening (which re-runs recovery) is the reset.
  Status NoteWrite(Status s) {
    [[maybe_unused]] bool tripped = false;
    {
      storage::LockGuard<LatchMutex> l(latch_mu_);
      if (write_error_.ok() && (s.code() == StatusCode::kIOError ||
                                s.code() == StatusCode::kCorruption)) {
        write_error_ = s;
        tripped = true;
      }
    }
    // The owner's hook runs outside the latch: it may dump state to a file.
    if constexpr (requires { typename Policy::Owner; }) {
      if (!s.ok()) {
        static_cast<typename Policy::Owner*>(this)->OnWriteFailure(s, tripped);
      }
    }
    return s;
  }

  /// [feature Failover] Preconditions of a promotion to `epoch`.
  Status CheckPromotion(uint32_t epoch) const
    requires kCan<kFailover>
  {
    FAME_RETURN_IF_ERROR(Require<kFailover>());
    if (fence_.role != kRoleFollower) {
      return Status::InvalidArgument("only a follower can be promoted");
    }
    if (epoch <= fence_.epoch) {
      return Status::InvalidArgument(
          "promotion must advance the fencing epoch past " +
          std::to_string(fence_.epoch));
    }
    return Status::OK();
  }

  /// Installs (epoch, role) as the fence: the log stamps the epoch into new
  /// segments and the meta persists both.
  Status Refence(uint32_t epoch, uint8_t role) {
    fence_.epoch = epoch;
    fence_.role = role;
    if constexpr (kCan<kBackup>) {
      if (txmgr_ != nullptr) txmgr_->SetWalFenceEpoch(epoch);
    }
    FAME_RETURN_IF_ERROR(file_->SetRoot(
        "repl.fence", storage::kInvalidPageId,
        (static_cast<uint64_t>(epoch) << 8) | role));
    return file_->Sync();
  }

  // ---- record-path seam ----
  // Plain bytes without Mvcc; with it, a version-chain append / a
  // visible-version resolve at the current read timestamp. Every KV,
  // typed-record and SQL access funnels through these.
  Status PutRecord(const Slice& key, const Slice& value) {
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) return WriteAutoCommit(key, value, /*tombstone=*/false);
    }
    return core_.Put(key, value);
  }
  Status RemoveRecord(const Slice& key) {
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
        // Remove's NotFound contract holds against the visible state.
        FAME_RETURN_IF_ERROR(CheckExists(key));
        return WriteAutoCommit(key, Slice(), /*tombstone=*/true);
      }
    }
    return core_.Remove(key);
  }
  Status GetRecord(const Slice& key, std::string* value) {
    if constexpr (kCan<kMvcc>) {
      // The read ts is sampled under the physical latch (see
      // EngineCore::GetVersionedLatest) so concurrent commits cannot prune
      // the version this read resolves.
      if (Has<kMvcc>()) {
        return core_.GetVersionedLatest(key, value, &mvcc_.mgr);
      }
    }
    return core_.Get(key, value);
  }
  /// NotFound unless `key` exists — with Mvcc, visibly: an index hit whose
  /// chain is tombstoned at the read timestamp is still absent.
  Status CheckExists(const Slice& key) {
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
        std::string existing;
        return core_.GetVersionedLatest(key, &existing, &mvcc_.mgr);
      }
    }
    uint64_t packed = 0;
    return index_->Lookup(key, &packed);
  }
  /// Runs `walk(cursor)` over the record-level view — the one place the
  /// read path picks its cursor. With Mvcc a snapshot cursor at a
  /// registered snapshot, not a bare ReadTs: the cursor owns the
  /// registration and pins the GC watermark below it until the walk ends.
  /// Without Mvcc the plain heap-joining cursor.
  template <typename Walk>
  Status WithRecordCursor(Walk&& walk) {
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
        FAME_ASSIGN_OR_RETURN(
            SnapshotCursor c,
            core_.NewSnapshotCursor(mvcc_.mgr.BeginSnapshot(), &mvcc_.mgr));
        return walk(c);
      }
    }
    FAME_ASSIGN_OR_RETURN(EngineCursor c, core_.NewCursor());
    return walk(c);
  }
  Status ScanRecords(const KvVisitor& fn) {
    return WithRecordCursor([&](auto& c) {
      return VisitRange(c, Slice(), Slice(), /*ordered=*/true, fn);
    });
  }
  /// Records whose key starts with `prefix`: a bounded range on the
  /// B+-Tree, a filtered full scan otherwise.
  Status ScanPrefixRecords(const Slice& prefix, const KvVisitor& fn) {
    return WithRecordCursor([&](auto& c) {
      return VisitPrefix(c, prefix, Has<kBPlusTree>(), fn);
    });
  }

  /// The B+-tree behind the index, or nullptr for the List alternative.
  index::BPlusTree* btree() const {
    if constexpr (std::is_same_v<Index, index::BPlusTree>) {
      return index_.get();
    } else if constexpr (std::is_base_of_v<Index, index::BPlusTree>) {
      return Has<kBPlusTree>() ? static_cast<index::BPlusTree*>(index_.get())
                               : nullptr;
    } else {
      return nullptr;
    }
  }

  /// Assembles the metrics view from the registry and the component groups
  /// (GetMetricsSnapshot adds the feature gate).
  obs::MetricsSnapshot SnapshotMetrics() const
    requires kCan<kObservability>
  {
    obs::MetricsSnapshot m;
    metrics_.Snapshot(&m);
    // Null checks: a failed Repair can leave the stack torn down.
    if (buffers_ != nullptr) {
      storage::BufferStats b = buffers_->stats();
      m.buffer_hits = b.hits;
      m.buffer_misses = b.misses;
      m.buffer_evictions = b.evictions;
      m.buffer_writebacks = b.dirty_writebacks;
      for (size_t i = 0; i < buffers_->shard_count(); ++i) {
        storage::BufferStats sh = buffers_->shard_stats(i);
        m.buffer_shards.push_back(
            {sh.hits, sh.misses, sh.evictions, sh.dirty_writebacks});
      }
    }
#if FAME_OBS_ENABLED
    if (file_ != nullptr) {
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
    }
    if (const index::BPlusTree* bt = btree(); bt != nullptr) {
      m.btree_splits = bt->metrics().splits.Load();
      m.btree_merges = bt->metrics().merges.Load();
      m.btree_descents = bt->metrics().descents.Load();
    }
#endif
    if constexpr (kCan<kTransaction>) {
      if (txmgr_ != nullptr) {
        tx::WalStats w = txmgr_->wal_stats();
        m.wal_appends = w.records_appended;
        m.wal_syncs = w.syncs;
        m.wal_batches = w.group_batches;
        m.wal_batched_bytes = w.group_batched_bytes;
        FAME_OBS(m.wal_batch_records = txmgr_->wal_batch_histogram();)
        m.committed_txns = txmgr_->committed();
        m.aborted_txns = txmgr_->aborted();
        tx::RecoveryReport r = txmgr_->recovery_report();
        m.recovery_applied_records = r.applied_records;
        m.recovery_dropped_bytes = r.dropped_bytes;
        if constexpr (kCan<kBackup>) {
          if (Has<kBackup>()) {
            tx::WalSegmentStats seg = txmgr_->wal_segment_stats();
            m.wal_segmented = true;
            m.wal_segments = seg.segments;
            m.wal_rotations = seg.rotations;
            m.wal_recycled = seg.recycled;
            m.wal_archived = seg.archived;
            m.wal_archive_lag_bytes = seg.archive_lag_bytes;
            m.wal_archive_stalled = seg.archive_stalled;
            m.wal_retained_lsn = seg.retained_lsn;
            m.backup_runs = backups_.runs.load(std::memory_order_relaxed);
            m.backup_bytes = backups_.bytes.load(std::memory_order_relaxed);
          }
        }
      }
    }
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
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
    if (fence_.role != kRoleNone) {
      m.repl = true;
      m.repl_follower = fence_.role == kRoleFollower;
      m.repl_epoch = fence_.epoch;
    }
    if (const osal::Allocator* alloc = alloc_.get(); alloc != nullptr) {
      osal::AllocStats a = alloc->stats();
      m.alloc_name = alloc->name();
      m.alloc_live_bytes = a.live_bytes;
      m.alloc_peak_bytes = a.peak_bytes;
      m.alloc_remote_frees = a.remote_frees;
#if FAME_SLAB_ENABLED
      // Pooled per-op objects (cursors, transactions) are thread-local and
      // process-wide, not per-engine; their cross-thread frees fold in.
      m.alloc_remote_frees += osal::slab::PooledCrossThreadFrees();
#endif
    }
    m.lost_meta_writes = storage::PageFile::lost_meta_writes();
    m.lost_page_writebacks = storage::BufferLostWritebacks();
    if (file_ != nullptr) m.page_count = file_->page_count();
    m.read_only = read_only();
    if constexpr (requires { typename Policy::Owner; }) {
      static_cast<const typename Policy::Owner*>(this)->AddOwnerMetrics(&m);
    }
    return m;
  }

  /// The degradation latch is touched from every committer where
  /// Concurrency may be selected; a no-op lock (compiled away) elsewhere.
  using LatchMutex = std::conditional_t<kCan<kConcurrency>, std::mutex,
                                        storage::SingleThreaded::Mutex>;

  [[no_unique_address]] Policy policy_;
  osal::Env* env_ = nullptr;
  std::string path_;
  [[no_unique_address]] typename Policy::Alloc alloc_;
  std::unique_ptr<storage::PageFile> file_;
  std::unique_ptr<storage::BufferManager> buffers_;
  std::unique_ptr<storage::RecordManager> heap_;
  std::unique_ptr<Index> index_;
  EngineCore<Index> core_;
  /// Engine-op and lifecycle counters; sized only where Observability can
  /// be selected.
  [[no_unique_address]] mutable std::conditional_t<
      kCan<kObservability>, obs::BasicMetricsRegistry<ObsCells>,
      detail::Without<kObservability>>
      metrics_;
  std::unique_ptr<tx::TransactionManager> txmgr_;
  [[no_unique_address]] std::conditional_t<kCan<kMvcc>, detail::MvccState,
                                           detail::Without<kMvcc>>
      mvcc_;
  [[no_unique_address]] std::conditional_t<
      kCan<kBackup>, detail::BackupCounters, detail::Without<kBackup>>
      backups_;
  detail::Fence fence_;
  mutable LatchMutex latch_mu_;
  Status write_error_;  // first persistent write failure; OK while healthy

 private:
  /// One engine op's instrumentation where metrics are collected: the
  /// counter and latency histogram `pick` selects from the registry, and a
  /// trace span; a plain call everywhere else.
  template <typename Pick, typename Body>
  Status Instrument(obs::TraceOp op, Pick pick, Body&& body) {
    if constexpr (kCollect) {
      auto [count, latency] = pick(metrics_);
      count->Add(1);
      obs::ScopedLatencyTimer<ObsCells> timer(latency);
      return Traced(op, std::forward<Body>(body));
    } else {
      (void)op;
      (void)pick;
      return body();
    }
  }
  template <typename Body>
  Status Traced([[maybe_unused]] obs::TraceOp op, Body&& body) {
#if FAME_OBS_TRACING_ENABLED
    if constexpr (kCollect) {
      obs::ScopedOpSpan span(op);
      Status s = body();
      span.set_error(!s.ok() && !s.IsNotFound());
      return s;
    }
#endif
    return body();
  }

  Status TakeRole(uint32_t epoch, uint8_t role)
    requires kCan<kReplication>
  {
    FAME_RETURN_IF_ERROR(Require<kReplication>());
    if (epoch < fence_.epoch) {
      return Status::InvalidArgument(
          "fencing epoch cannot move backwards: have " +
          std::to_string(fence_.epoch) + ", asked for " +
          std::to_string(epoch));
    }
    return Refence(epoch, role);
  }

  /// Live handles for hot backup and WAL shipping.
  backup::BackupContext LiveHandles()
    requires kCan<kBackup>
  {
    backup::BackupContext ctx;
    ctx.env = env_;
    ctx.txmgr = txmgr_.get();
    ctx.file = file_.get();
    ctx.db_path = path_;
    ctx.wal_path = path_ + ".wal";
    return ctx;
  }

  /// [feature Mvcc] Auto-commit versioned write through the oracle's
  /// conflict table — not a bare clock tick — so an MVCC transaction that
  /// read this key before the write loses first-committer-wins at its own
  /// commit instead of silently overwriting it (lost update). The ts stays
  /// in flight (invisible to new snapshots) until the apply lands; the
  /// watermark is read after PrepareAutoCommit, which pins it below the
  /// new commit ts.
  Status WriteAutoCommit(const Slice& key, const Slice& value, bool tombstone)
    requires kCan<kMvcc>
  {
    const uint64_t commit_ts =
        mvcc_.mgr.PrepareAutoCommit(std::string(kStore) + ":" + key.ToString());
    Status s = core_.WriteVersion(key, value, tombstone, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
    mvcc_.mgr.FinishCommit(commit_ts);
    return s;
  }

  /// [feature Mvcc] Persists the raw clock ("mvcc.ts") and the GC
  /// watermark ("mvcc.mark") in the PageFile meta. The raw clock, not the
  /// pending-gated read ts: a reopened clock below any persisted chain head
  /// would make WriteVersion drop fresh writes as replays.
  Status PersistMvccMeta()
    requires kCan<kMvcc>
  {
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.ts", storage::kInvalidPageId,
                                        mvcc_.mgr.Clock()));
    FAME_RETURN_IF_ERROR(file_->SetRoot("mvcc.mark", storage::kInvalidPageId,
                                        mvcc_.gc_mark));
    return file_->Sync();
  }

  // ---- tx::ApplyTarget (reached only in transactional products) ----
  Status ApplyPut(const std::string& store, const Slice& key,
                  const Slice& value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (kCan<kMvcc>) {
      // A legacy (timestamp-less) record replaying into an Mvcc product
      // becomes a fresh head version. Sequenced so the watermark is read
      // after the tick: an unspecified evaluation order could hand
      // WriteVersion a prune floor equal to its own commit ts.
      if (Has<kMvcc>()) {
        const uint64_t ts = mvcc_.mgr.AdvanceClock();
        return core_.WriteVersion(key, value, /*tombstone=*/false, ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    return core_.Put(key, value);
  }
  Status ApplyDelete(const std::string& store, const Slice& key) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) return RemoveRecord(key);
    }
    return core_.Remove(key);
  }
  Status ReadCommitted(const std::string& store, const Slice& key,
                       std::string* value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    return Get(key, value);
  }
  // Versioned apply/read slots: virtual overrides instantiate with the
  // vtable, so the Mvcc gate lives inside the bodies.
  Status ApplyPutVersioned(const std::string& store, const Slice& key,
                           const Slice& value, uint64_t commit_ts) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
        mvcc_.mgr.SeedClock(commit_ts);  // replay may precede clock seeding
        return core_.WriteVersion(key, value, /*tombstone=*/false, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    (void)commit_ts;
    return core_.Put(key, value);
  }
  Status ApplyDeleteVersioned(const std::string& store, const Slice& key,
                              uint64_t commit_ts) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) {
        mvcc_.mgr.SeedClock(commit_ts);
        // A key with no chain at all stays NotFound (recovery treats
        // replayed deletes of absent keys as already applied).
        uint64_t packed = 0;
        FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
        return core_.WriteVersion(key, Slice(), /*tombstone=*/true, commit_ts,
                                  mvcc_.mgr.Watermark(), &mvcc_.mgr);
      }
    }
    (void)commit_ts;
    return core_.Remove(key);
  }
  Status ReadAtSnapshot(const std::string& store, const Slice& key,
                        uint64_t ts, std::string* value) override {
    if (store != kStore) return Status::InvalidArgument("unknown store");
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) return core_.GetVersioned(key, ts, value, &mvcc_.mgr);
    }
    (void)ts;
    return Get(key, value);
  }
  Status CheckpointEngine() override {
    FAME_RETURN_IF_ERROR(buffers_->Checkpoint());
    // Checkpoint is the durability point of the timestamp oracle: the WAL
    // below it may be truncated or recycled afterwards.
    if constexpr (kCan<kMvcc>) {
      if (Has<kMvcc>()) FAME_RETURN_IF_ERROR(PersistMvccMeta());
    }
    return Status::OK();
  }
  // [feature Backup] Watermark persistence in the PageFile meta (root
  // "wal.mark"). Called only by segmented checkpoints, inside their
  // exclusive section, so the unserialized meta mutation is safe.
  Status PersistWalMark(tx::Lsn mark) override {
    if constexpr (kCan<kBackup>) {
      FAME_RETURN_IF_ERROR(
          file_->SetRoot("wal.mark", storage::kInvalidPageId, mark));
      return file_->Sync();
    }
    (void)mark;
    return Status::OK();
  }
  StatusOr<tx::Lsn> LoadWalMark() override {
    if constexpr (kCan<kBackup>) {
      auto aux_or = file_->GetRootAux("wal.mark");
      if (aux_or.ok()) return aux_or.value();
    }
    return static_cast<tx::Lsn>(0);  // no checkpoint yet
  }
};

}  // namespace fame::core

#endif  // FAME_CORE_ENGINE_SHELL_H_
