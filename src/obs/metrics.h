// Metrics registry for the Observability feature: counters, gauges, and
// fixed-bucket latency histograms, templated on a *cells policy* so the
// same registry compiles to plain integers in single-threaded products and
// relaxed atomics in concurrent ones — the policy is the existing
// threading policy of storage/concurrency.h (`storage::SingleThreaded`
// satisfies it directly; concurrent instantiations use SharedCells below,
// which matches storage::MultiThreaded's Counter without pulling the mutex
// machinery into headers that deliberately include no threading code).
//
// Everything here is a header-only template: a product that never
// instantiates a metric emits no obs symbols (the obs_off_probe nm test
// pins that down). The only .cc-backed pieces of the subsystem live in
// trace.cc and serialize.cc.
//
// Snapshot types (HistogramSnapshot, MetricsSnapshot) are plain structs —
// the one concrete currency shared by Database::GetMetricsSnapshot(), the
// serializers, the NFP feedback hook, and tests.
#ifndef FAME_OBS_METRICS_H_
#define FAME_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fame::obs {

/// Cells policy for metrics owned by components that are shared across
/// threads regardless of the buffer pool's threading policy (PageFile, WAL,
/// B+-tree, the runtime-composed Database): relaxed atomics. Distinct from
/// storage::MultiThreaded only in that including it does not drag
/// <mutex>/<shared_mutex> into storage headers that promise not to.
struct SharedCells {
  using Counter = std::atomic<uint64_t>;
};

namespace detail {

/// Counter-cell adapters: one code path for plain integers and atomics.
/// Plain cells get ordinary loads/adds (compiled to the same code as a
/// hand-written `++counter`); atomic cells get relaxed operations so the
/// hot paths never pay a fence for bookkeeping.
template <typename Cell>
inline void CellAdd(Cell& c, uint64_t n) {
  if constexpr (requires { c.fetch_add(n, std::memory_order_relaxed); }) {
    c.fetch_add(n, std::memory_order_relaxed);
  } else {
    c += n;
  }
}

template <typename Cell>
inline uint64_t CellLoad(const Cell& c) {
  if constexpr (requires { c.load(std::memory_order_relaxed); }) {
    return c.load(std::memory_order_relaxed);
  } else {
    return c;
  }
}

template <typename Cell>
inline void CellStore(Cell& c, uint64_t v) {
  if constexpr (requires { c.store(v, std::memory_order_relaxed); }) {
    c.store(v, std::memory_order_relaxed);
  } else {
    c = v;
  }
}

}  // namespace detail

/// Monotonic nanoseconds since the first call in the process. Used for
/// latency timing and trace timestamps; small values keep dumps readable.
inline uint64_t NowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Monotonically increasing event counter.
template <typename Cells>
class BasicCounter {
 public:
  void Add(uint64_t n = 1) { detail::CellAdd(cell_, n); }
  uint64_t Load() const { return detail::CellLoad(cell_); }
  void Reset() { detail::CellStore(cell_, 0); }

 private:
  typename Cells::Counter cell_{};
};

/// Settable level (open cursors, pinned frames, ...). Add/Sub store a
/// two's-complement delta so plain and atomic cells share the code path.
template <typename Cells>
class BasicGauge {
 public:
  void Set(uint64_t v) { detail::CellStore(cell_, v); }
  void Add(uint64_t n = 1) { detail::CellAdd(cell_, n); }
  void Sub(uint64_t n = 1) { detail::CellAdd(cell_, ~n + 1); }
  uint64_t Load() const { return detail::CellLoad(cell_); }

 private:
  typename Cells::Counter cell_{};
};

/// Snapshot of one histogram: plain integers, safe to copy around.
struct HistogramSnapshot {
  /// Base-4 exponential buckets: bucket b counts values in [4^b, 4^(b+1)),
  /// bucket 0 additionally holds 0, the last bucket is unbounded above.
  /// 16 buckets span 1ns..~4.3s for latencies and 1..~4e9 for sizes.
  static constexpr size_t kBuckets = 16;

  uint64_t counts[kBuckets] = {};
  uint64_t count = 0;  ///< total samples
  uint64_t sum = 0;    ///< sum of sampled values

  /// Inclusive upper bound reported for bucket b (4^(b+1) - 1).
  static uint64_t BucketBound(size_t b) {
    return (uint64_t{1} << (2 * (b + 1))) - 1;
  }

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  void Merge(const HistogramSnapshot& o) {
    for (size_t b = 0; b < kBuckets; ++b) counts[b] += o.counts[b];
    count += o.count;
    sum += o.sum;
  }
};

/// Fixed-bucket histogram (exponential base-4). Record() is two counter
/// adds plus a bit_width — no floating point, no allocation, no locks.
template <typename Cells>
class BasicHistogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  static size_t BucketOf(uint64_t v) {
    if (v == 0) return 0;
    size_t b = static_cast<size_t>(std::bit_width(v) - 1) / 2;
    return b < kBuckets ? b : kBuckets - 1;
  }

  void Record(uint64_t v) {
    detail::CellAdd(counts_[BucketOf(v)], 1);
    detail::CellAdd(count_, 1);
    detail::CellAdd(sum_, v);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t b = 0; b < kBuckets; ++b) {
      s.counts[b] = detail::CellLoad(counts_[b]);
    }
    s.count = detail::CellLoad(count_);
    s.sum = detail::CellLoad(sum_);
    return s;
  }

  void Reset() {
    for (auto& c : counts_) detail::CellStore(c, 0);
    detail::CellStore(count_, 0);
    detail::CellStore(sum_, 0);
  }

 private:
  typename Cells::Counter counts_[kBuckets] = {};
  typename Cells::Counter count_{};
  typename Cells::Counter sum_{};
};

/// Records wall time (ns) of a scope into a histogram on destruction —
/// error paths are timed too, deliberately.
template <typename Cells>
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(BasicHistogram<Cells>* h)
      : histo_(h), start_(NowNanos()) {}
  ~ScopedLatencyTimer() { histo_->Record(NowNanos() - start_); }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  BasicHistogram<Cells>* histo_;
  uint64_t start_;
};

// ---------------------------------------------------------------------------
// Component metric groups. Each instrumented component owns its group and
// exposes a snapshot accessor; the engine above assembles MetricsSnapshot.
// ---------------------------------------------------------------------------

/// PageFile IO: counts, bytes, and latency histograms per operation kind.
/// read_ns and write_ns time the whole call; verify_ns (checksum verify on a
/// paranoid read) and seal_ns (checksum seal before a write) are the parts
/// of them spent on checksums.
template <typename Cells>
struct BasicFileMetrics {
  BasicCounter<Cells> reads, writes, syncs;
  BasicCounter<Cells> read_bytes, write_bytes;
  BasicHistogram<Cells> read_ns, write_ns, sync_ns;
  BasicHistogram<Cells> verify_ns, seal_ns;
};

/// B+-tree structural events. A descent is one root-to-leaf traversal
/// (Lookup / Insert / Remove each count one).
template <typename Cells>
struct BasicBtreeMetrics {
  BasicCounter<Cells> splits, merges, descents;
};

/// Flush target for per-cursor counters. EngineCursor is a concrete
/// (non-templated) class, so it cannot name a Cells-typed registry; it
/// carries this two-word sink instead and the registry instantiates the
/// flush function over its own cells. Cursors accumulate in plain locals
/// (single-owner, race-free) and flush once per Seek/destruction.
struct CursorSink {
  void* ctx = nullptr;
  void (*flush)(void* ctx, uint64_t seeks, uint64_t scanned,
                uint64_t returned) = nullptr;
  void (*track_open)(void* ctx, bool open) = nullptr;
};

/// Cursor-pipeline totals: seeks (Seek*/SeekToFirst/SeekToLast calls),
/// rows scanned (positions visited) vs rows returned (values materialized
/// through the heap join), plus an open-cursor gauge.
template <typename Cells>
struct BasicCursorMetrics {
  BasicCounter<Cells> seeks, rows_scanned, rows_returned;
  BasicGauge<Cells> open;

  CursorSink sink() {
    CursorSink s;
    s.ctx = this;
    s.flush = [](void* ctx, uint64_t seeks, uint64_t scanned,
                 uint64_t returned) {
      auto* self = static_cast<BasicCursorMetrics*>(ctx);
      self->seeks.Add(seeks);
      self->rows_scanned.Add(scanned);
      self->rows_returned.Add(returned);
    };
    s.track_open = [](void* ctx, bool open) {
      auto* self = static_cast<BasicCursorMetrics*>(ctx);
      if (open) {
        self->open.Add(1);
      } else {
        self->open.Sub(1);
      }
    };
    return s;
  }
};

// ---------------------------------------------------------------------------
// Snapshot: the concrete, policy-free view of everything above, assembled
// by the engines and consumed by serializers, tests, and the NFP feedback
// hook. Counters from concurrent components are internally consistent per
// cell (each read is atomic) but the snapshot as a whole is not a fenced
// cross-counter transaction — same contract as BufferStats/WalStats.
// ---------------------------------------------------------------------------

/// Per-shard buffer-pool counters (mirrors storage::BufferStats fields).
struct BufferShardSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

struct MetricsSnapshot {
  // Buffer pool (aggregate + per shard).
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  uint64_t buffer_writebacks = 0;
  std::vector<BufferShardSnapshot> buffer_shards;

  // PageFile IO.
  uint64_t file_reads = 0;
  uint64_t file_writes = 0;
  uint64_t file_syncs = 0;
  uint64_t file_read_bytes = 0;
  uint64_t file_write_bytes = 0;
  HistogramSnapshot file_read_ns, file_write_ns, file_sync_ns;
  HistogramSnapshot file_verify_ns, file_seal_ns;  ///< checksum share of IO

  // WAL.
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_batches = 0;
  uint64_t wal_batched_bytes = 0;
  HistogramSnapshot wal_batch_records;  ///< records per group-commit batch

  // Segmented WAL + backup ([feature Backup]; all zero otherwise).
  bool wal_segmented = false;
  uint64_t wal_segments = 0;           ///< live segment files in the chain
  uint64_t wal_rotations = 0;          ///< segment rolls since open
  uint64_t wal_recycled = 0;           ///< segments retired by checkpoints
  uint64_t wal_archived = 0;           ///< segments copied to the archive
  uint64_t wal_archive_lag_bytes = 0;  ///< recyclable but not yet archived
  bool wal_archive_stalled = false;    ///< archiving paused after IO failure
  uint64_t wal_retained_lsn = 0;       ///< durable retention watermark
  uint64_t backup_runs = 0;            ///< completed hot backups
  uint64_t backup_bytes = 0;           ///< bytes written by hot backups

  // Replication ([feature Replication]; all zero otherwise).
  bool repl = false;                   ///< this node carries a fence
  bool repl_follower = false;          ///< fenced as follower (read-only)
  uint64_t repl_epoch = 0;             ///< current fencing epoch
  uint64_t repl_lag_bytes = 0;         ///< durable WAL bytes not yet acked
  uint64_t repl_lag_epochs = 0;        ///< ship rounds behind (0 = caught up)

  // B+-tree.
  uint64_t btree_splits = 0;
  uint64_t btree_merges = 0;
  uint64_t btree_descents = 0;

  // Cursor pipeline.
  uint64_t cursor_seeks = 0;
  uint64_t cursor_rows_scanned = 0;
  uint64_t cursor_rows_returned = 0;
  uint64_t cursors_open = 0;

  // Engine ops.
  uint64_t engine_gets = 0;
  uint64_t engine_puts = 0;
  uint64_t engine_removes = 0;
  uint64_t engine_scans = 0;
  HistogramSnapshot get_ns, put_ns, remove_ns, scan_ns;

  // Integrity / lifecycle.
  uint64_t verify_runs = 0;
  uint64_t repair_runs = 0;
  uint64_t pages_quarantined = 0;
  uint64_t records_salvaged = 0;
  uint64_t scrub_pages_checked = 0;
  uint64_t scrub_corrupt_pages = 0;
  uint64_t scrub_cycles = 0;
  uint64_t lost_meta_writes = 0;
  uint64_t lost_page_writebacks = 0;

  // Transactions.
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t recovery_applied_records = 0;  ///< WAL records replayed at open
  uint64_t recovery_dropped_bytes = 0;    ///< WAL bytes dropped at open

  // Mvcc ([feature Mvcc]; all zero otherwise).
  bool mvcc = false;                    ///< snapshot isolation selected
  uint64_t mvcc_active_snapshots = 0;   ///< open (unreleased) snapshots
  uint64_t mvcc_conflicts = 0;          ///< first-committer-wins refusals
  uint64_t mvcc_gc_runs = 0;            ///< completed GC sweeps
  uint64_t mvcc_gc_pruned = 0;          ///< versions dropped by GC
  uint64_t mvcc_watermark = 0;          ///< min active snapshot ts
  uint64_t mvcc_clock = 0;              ///< last assigned commit ts
  HistogramSnapshot mvcc_chain_len;     ///< version-chain length per write

  // Memory path (Memory-Alloc alternative + slab pools).
  std::string alloc_name;             ///< engine allocator ("dynamic", ...)
  uint64_t alloc_live_bytes = 0;      ///< bytes currently handed out
  uint64_t alloc_peak_bytes = 0;      ///< high-water mark of live bytes
  uint64_t alloc_remote_frees = 0;    ///< cross-thread frees (slab pools +
                                      ///< pooled cursor/tx objects)

  // File shape.
  uint64_t page_count = 0;
  bool read_only = false;
};

/// The registry proper: the engine-op and lifecycle metrics one engine
/// instance owns, plus the cursor-pipeline sink. Instantiated with
/// storage::SingleThreaded in single-threaded static products (plain
/// integers) and SharedCells everywhere threads may race (relaxed atomics,
/// torn-read safe — this is what fixes the DbStats non-atomic reads).
template <typename Cells>
class BasicMetricsRegistry {
 public:
  BasicCounter<Cells> gets, puts, removes, scans;
  BasicHistogram<Cells> get_ns, put_ns, remove_ns, scan_ns;

  BasicCounter<Cells> verify_runs, repair_runs;
  BasicCounter<Cells> pages_quarantined, records_salvaged;

  BasicCursorMetrics<Cells> cursors;

  /// Fills the registry-owned slice of `out` (component groups are
  /// assembled by the engine that owns the components).
  void Snapshot(MetricsSnapshot* out) const {
    out->engine_gets = gets.Load();
    out->engine_puts = puts.Load();
    out->engine_removes = removes.Load();
    out->engine_scans = scans.Load();
    out->get_ns = get_ns.Snapshot();
    out->put_ns = put_ns.Snapshot();
    out->remove_ns = remove_ns.Snapshot();
    out->scan_ns = scan_ns.Snapshot();
    out->verify_runs = verify_runs.Load();
    out->repair_runs = repair_runs.Load();
    out->pages_quarantined = pages_quarantined.Load();
    out->records_salvaged = records_salvaged.Load();
    out->cursor_seeks = cursors.seeks.Load();
    out->cursor_rows_scanned = cursors.rows_scanned.Load();
    out->cursor_rows_returned = cursors.rows_returned.Load();
    out->cursors_open = cursors.open.Load();
  }
};

}  // namespace fame::obs

#endif  // FAME_OBS_METRICS_H_
