// Database: the runtime facade of the FAME-DBMS product line (the API
// feature). Where the StaticEngine products are composed at compile time
// (FeatureC++-equivalent), Database composes *components at runtime* from a
// validated feature Configuration — the component-based comparator the
// paper discusses in §2.1 (flexible, but paying dispatch overhead; the
// ablation bench measures exactly that gap). Both are the one engine shell
// (core/engine_shell.h); only the feature policy differs.
#ifndef FAME_CORE_DATABASE_H_
#define FAME_CORE_DATABASE_H_

#include <atomic>
#include <bitset>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/datatypes.h"
#include "core/engine_shell.h"
#include "featuremodel/fame_model.h"
#include "index/index.h"
#include "obs/metrics.h"
#if FAME_OBS_ENABLED
#include "obs/blackbox.h"
#endif
#include "osal/allocator.h"
#include "osal/env.h"
#include "storage/buffer.h"
#include "storage/integrity.h"
#include "tx/txmgr.h"

namespace fame::core {

/// Open options: a feature selection plus tuning knobs. Feature names are
/// those of the Figure 2 model; Open() validates the selection against the
/// model (propagation + completeness) before composing anything.
struct DbOptions {
  /// Feature names to select; everything forced by the model is added by
  /// propagation, everything else is excluded (minimal completion).
  std::vector<std::string> features = {"Linux", "Dynamic", "LRU", "B+-Tree",
                                       "BTree-Search", "Int-Types",
                                       "String-Types", "Get", "Put", "API"};
  std::string path = "fame.db";
  uint32_t page_size = 4096;
  size_t buffer_frames = 64;
  size_t static_pool_bytes = 256 * 1024;  // used with feature Static
  uint64_t nutos_capacity_bytes = 0;      // device budget with feature NutOS
  /// [feature Backup] Segment roll threshold of the segmented WAL.
  uint64_t wal_segment_bytes = 64 * 1024;
  /// Env for feature Linux; NutOS products create an owned MemEnv.
  osal::Env* env = nullptr;  // nullptr = GetPosixEnv()
};

class SqlEngine;

/// One-stop observability snapshot (Database::GetStats): buffer pool,
/// scrubbing, fault/degradation, repair, and transaction counters that were
/// previously scattered across component accessors or stderr logs. The
/// legacy named fields are kept for existing callers; `metrics` carries the
/// same values (plus the Observability extensions) and is what ToString
/// renders — there is exactly one serializer (obs::RenderText).
struct DbStats {
  storage::BufferStats buffer;
  storage::ScrubStats scrub;
  /// Process-wide meta writes lost in destructor-time best-effort closes.
  uint64_t lost_meta_writes = 0;
  /// Process-wide dirty-page writebacks lost in destructor-time best-effort
  /// buffer flushes (the FlushAll status the destructor cannot return).
  uint64_t lost_page_writebacks = 0;
  /// WAL counters (fsync count, group-commit batching) — zero-valued
  /// without the Transaction feature.
  tx::WalStats wal;
  uint64_t page_count = 0;
  uint64_t verify_runs = 0;
  uint64_t repair_runs = 0;
  uint64_t pages_quarantined = 0;
  uint64_t records_salvaged = 0;
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  bool read_only = false;
  tx::RecoveryReport recovery;
  /// The full Observability view the fields above are derived from.
  obs::MetricsSnapshot metrics;

  std::string ToString() const;
};

class Database;

/// The runtime feature policy: every feature Binding::kRuntime, its bit
/// resolved once at Open from the derived fm::Configuration. The index is
/// reached through the virtual interface, so one instantiation serves every
/// runtime product.
class RuntimePolicy {
 public:
  using Index = index::KeyValueIndex;
  using Owner = Database;
  /// Memory Alloc state: the allocator the facade chose at Open.
  struct Alloc {
    std::unique_ptr<osal::Allocator> owned;
    osal::Allocator* get() const { return owned.get(); }
  };

  static constexpr Binding binding(Feature) { return Binding::kRuntime; }
  bool on(Feature f) const { return bits_.test(static_cast<size_t>(f)); }
  void Select(Feature f) { bits_.set(static_cast<size_t>(f)); }
  StatusOr<std::unique_ptr<Index>> OpenIndex(storage::BufferManager* b) const;

  EngineKnobs knobs;
  /// NutOS / Win32 environment shims; owned here so they outlive the
  /// storage stack opened over them.
  std::unique_ptr<osal::Env> owned_env;

 private:
  std::bitset<static_cast<size_t>(Feature::kCount)> bits_;
};

/// A composed FAME-DBMS instance: the engine shell over the runtime policy,
/// plus what only the runtime facade offers — typed records, SQL, the
/// integrity features, the flight recorder and integrity-gated promotion.
class Database : public EngineShell<RuntimePolicy> {
 public:
  /// Validates `options.features` against the FAME-DBMS feature model,
  /// derives the minimal valid variant containing them, and composes the
  /// product. ConfigInvalid when the selection violates the model.
  static StatusOr<std::unique_ptr<Database>> Open(const DbOptions& options);

  ~Database() override;

  // ---- typed record API (Data Types feature) ----
  Status CreateTable(const Schema& schema);
  StatusOr<Schema> GetSchema(const std::string& table);
  Status InsertRow(const std::string& table, const Row& row);
  StatusOr<Row> FindRow(const std::string& table, const Value& pk);
  Status DeleteRow(const std::string& table, const Value& pk);
  Status ScanTable(const std::string& table,
                   const std::function<bool(const Row&)>& fn);

  // ---- SQL Engine feature ----
  /// nullptr when the SQL-Engine feature is not selected.
  SqlEngine* sql() { return sql_.get(); }

  /// The complete derived configuration this instance runs.
  const fm::Configuration& configuration() const { return config_; }
  bool HasFeature(const std::string& name) const;

  // ---- Replication / Failover features (runtime-gated) ----
  /// [feature Failover] Integrity-gated promotion: verifies the store
  /// (DataLoss on any finding — a damaged replica must not take
  /// leadership), then re-fences as leader under `epoch` (> current).
  Status Promote(uint32_t epoch);
  /// Lag gauges fed by the shipping loop (repl::LeaderOptions::lag_sink).
  void SetReplLag(uint64_t lag_bytes, uint64_t lag_epochs) {
    repl_lag_bytes_.store(lag_bytes, std::memory_order_relaxed);
    repl_lag_epochs_.store(lag_epochs, std::memory_order_relaxed);
  }

  // ---- integrity features (Scrub / Verify / Repair, runtime-gated) ----
  /// [feature Scrub] Incremental scrubbing: checks up to `max_pages` pages,
  /// resuming across calls; call from idle time. Returns pages checked.
  StatusOr<uint32_t> Scrub(uint32_t max_pages);
  /// [feature Verify] Full integrity pass: page scrub + free-list audit +
  /// index invariants + heap/index cross-check + WAL scan. Fills `report`
  /// either way; returns OK only when the report is clean. Read-only.
  Status VerifyIntegrity(storage::IntegrityReport* report);
  /// [feature Repair] Quarantines corrupt pages (raw images appended to
  /// `<path>.quarantine`), salvages every record still readable, rebuilds
  /// the file and index from the salvage, replays the WAL for anything
  /// newer than the last checkpoint, and lifts the read-only latch.
  /// Committed records on corrupt pages are lost (and say so in `report`);
  /// everything else survives. Fails InvalidArgument with transactions
  /// still active.
  Status Repair(storage::IntegrityReport* report = nullptr);
  /// Unified observability counters (always available; GetMetricsSnapshot
  /// is the feature-gated full view).
  DbStats GetStats() const;
  /// [feature FlightRecorder] Persists the flight-recorder black box as
  /// `<path>.blackbox` (trigger, feature set, recent errors, last trace
  /// spans, metrics snapshot) via an atomic tmp+rename install, decodable
  /// by `fame_check --blackbox`. Invoked automatically when the read-only
  /// latch trips and when Repair runs; this is the on-demand entry.
  /// NotSupported unless the FlightRecorder feature is selected.
  Status DumpBlackBox(const std::string& reason);
  /// Accumulated findings of incremental Scrub() calls (VerifyIntegrity
  /// uses its own per-call report instead).
  const storage::IntegrityReport& scrub_findings() const {
    return scrub_findings_;
  }

 private:
  friend class SqlEngine;
  friend class EngineShell<RuntimePolicy>;  // owner hooks
  using Shell = EngineShell<RuntimePolicy>;
  Database() = default;

  Status ComposeComponents(const DbOptions& options);
  /// Integrity features keep one scrubber so incremental cycles and stats
  /// survive across calls; rebuilt whenever the storage stack reopens.
  void OpenScrubber();

  /// Owner hooks of the shell: flight-recorder breadcrumbs for a failed
  /// write (a dump when it tripped the read-only latch), and the
  /// facade-only slice of the metrics snapshot.
  void OnWriteFailure(const Status& s, bool tripped);
  void AddOwnerMetrics(obs::MetricsSnapshot* m) const;

  static std::string TableKey(const std::string& table, const Value& pk);
  static std::string SchemaKey(const std::string& table);

  std::unique_ptr<fm::FeatureModel> model_;
  fm::Configuration config_;
  std::unique_ptr<SqlEngine> sql_;
  std::unique_ptr<storage::Scrubber> scrubber_;  // with Scrub/Verify
  storage::IntegrityReport scrub_findings_;      // incremental Scrub() only
  std::atomic<uint64_t> repl_lag_bytes_{0};
  std::atomic<uint64_t> repl_lag_epochs_{0};
#if FAME_OBS_ENABLED
  /// [feature FlightRecorder] Degradation breadcrumbs + dump machinery;
  /// null without the feature.
  std::unique_ptr<obs::BlackBox> blackbox_;
#endif
};

extern template class EngineShell<RuntimePolicy>;

}  // namespace fame::core

#endif  // FAME_CORE_DATABASE_H_
