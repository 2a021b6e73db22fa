// Shared harness of the product-line benchmark: a closed-loop single-client
// loop, a counting and timing Env wrapper, in-memory spans, latency
// percentiles and the result line. Each workload executable links one
// product plus this harness and implements the Workload interface.
//
// Every timing here is taken from outside the product: around the calls the
// harness makes into public functions, and inside the Env seam the product
// is handed. Counters the product already exposes are read before and after
// the timed phase.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "osal/env.h"

namespace perfbench {

uint64_t NowNs();

/// The benchmark's own input generator (xorshift64*). Inputs depend only on
/// the seed and this code, never on generators inside the product.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n), n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Hot-key pick in [0, n): the shape of the Figure 1b query stream
  /// (an exponent drawn uniformly, then a uniform pick below 2^(e+1)).
  uint64_t Skewed(uint64_t n);
  /// Fills `out` with `n` printable bytes.
  void Fill(std::string* out, size_t n);

 private:
  uint64_t state_;
};

/// Scan callback, the shape both product families take.
using RowVisitor = std::function<bool(const fame::Slice&, const fame::Slice&)>;

/// 8-byte big-endian key, the encoding the products' ordered indexes sort.
std::string Key(uint64_t v);

// ---------------------------------------------------------------- heap

/// Global operator new calls made while armed. The harness arms the counter
/// only around product calls, so its own allocations never count.
void ArmNewCounter(bool on);
uint64_t NewCount();

// ---------------------------------------------------------------- spans

enum OpType : uint8_t { kGet = 0, kWrite = 1, kScan = 2, kNumOpTypes = 3 };
const char* OpName(OpType t);

/// Span kinds: the three user-op kinds, then Env children and GC.
enum SpanKind : uint8_t {
  kSpanGet = kGet,
  kSpanWrite = kWrite,
  kSpanScan = kScan,
  kSpanPageRead,
  kSpanPageWrite,
  kSpanPageSync,
  kSpanWalRead,
  kSpanWalWrite,
  kSpanWalSync,
  kSpanGc,
  kNumSpanKinds
};

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t op_id = 0;  ///< user op the span belongs to (0 = none)
  uint8_t kind = 0;
};

/// Spans of the traced run. Totals cover every span; the first kKeptSpans
/// spans (whole ops with their children) are kept in memory for the
/// Chrome-trace file written when the run ends.
class Tracer {
 public:
  static constexpr size_t kKeptSpans = 100000;

  Tracer();
  void BeginOp(uint32_t op_id);
  void EndOp(OpType type, uint32_t op_id, uint64_t start, uint64_t end);
  /// Env child span, charged to the current op if one is open.
  void Child(SpanKind kind, uint64_t start, uint64_t end);
  void Gc(uint64_t start, uint64_t end);

  /// Op time minus the part its Env children cover, per op type.
  uint64_t self_ns(OpType t) const { return op_ns_[t] - child_in_op_ns_[t]; }
  uint64_t op_ns(OpType t) const { return op_ns_[t]; }
  uint64_t ops(OpType t) const { return ops_[t]; }
  uint64_t gc_ns() const { return gc_ns_; }

  /// Chrome-trace JSON of the kept spans, timestamps relative to `t0`.
  bool WriteChromeTrace(const std::string& path, uint64_t t0) const;

 private:
  uint32_t current_op_ = 0;
  bool keep_current_ = false;
  uint64_t current_child_ns_ = 0;
  uint64_t op_ns_[kNumOpTypes] = {};
  uint64_t child_in_op_ns_[kNumOpTypes] = {};
  uint64_t ops_[kNumOpTypes] = {};
  uint64_t gc_ns_ = 0;
  std::vector<Span> kept_;
};

/// The tracer the Env wrapper reports to; null when tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* t);

// ---------------------------------------------------------------- osal

/// Env-level work on one class of file.
struct IoCounters {
  uint64_t reads = 0, read_ns = 0;
  uint64_t writes = 0, write_bytes = 0, write_ns = 0;
  uint64_t syncs = 0, sync_ns = 0;
};

/// Counting and timing Env wrapper. Files whose name contains ".wal" are
/// the write-ahead log; every other file is the page file.
class CountingEnv final : public fame::osal::Env {
 public:
  explicit CountingEnv(fame::osal::Env* base) : base_(base) {}

  fame::StatusOr<std::unique_ptr<fame::osal::RandomAccessFile>> OpenFile(
      const std::string& name, bool create) override;
  fame::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  fame::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  fame::Status ListFiles(const std::string& prefix,
                         std::vector<std::string>* out) const override {
    return base_->ListFiles(prefix, out);
  }
  uint64_t NowNanos() const override { return base_->NowNanos(); }
  const char* name() const override { return base_->name(); }

  /// Bytes held by files named `prefix*` (page file plus WAL).
  uint64_t BytesOnMedium(const std::string& prefix);

  IoCounters page;
  IoCounters wal;

 private:
  fame::osal::Env* base_;
};

// ---------------------------------------------------------------- run

/// Counters the product exposes, snapshotted before and after the timed
/// phase. Fields a product does not expose stay 0.
struct LayerCounters {
  uint64_t buf_hits = 0, buf_misses = 0, buf_writebacks = 0;
  uint64_t pf_reads = 0, pf_read_ns = 0, pf_writes = 0, pf_write_ns = 0;
  uint64_t bt_descents = 0, bt_splits = 0, bt_merges = 0;
  uint64_t wal_records = 0;
  uint64_t mvcc_conflicts = 0, mvcc_gc_runs = 0, mvcc_gc_pruned = 0;
};

/// Percentile summary of one latency sample set.
struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
  size_t count = 0;   ///< samples
  size_t chunks = 0;  ///< consecutive chunks the percentiles are taken over
};

/// Splits the samples, in the order they were taken, into up to
/// kMaxChunks consecutive chunks of at least kMinChunkSamples each, takes
/// nearest-rank percentiles per chunk and reports the median over chunks.
/// A stall of the host that covers less than half the chunks does not move
/// the result, and every chunk's p99 has at least 50 samples beyond it.
constexpr size_t kMaxChunks = 20;
constexpr size_t kMinChunkSamples = 5000;
LatencySummary Summarize(const std::vector<uint64_t>& samples_ns);

/// Median of `v` (mean of the middle two for an even count; 0 when empty).
double Median(std::vector<double> v);

/// State of one measured run: op counts, failures, latency samples and the
/// windows in which bytes written are charged to the user.
class Run {
 public:
  /// Runs one user op around `body`: times it, counts heap allocations,
  /// records its span, and counts a non-OK status as a failure.
  template <typename F>
  fame::Status Op(OpType type, F&& body) {
    const uint32_t id = ++op_id_;
    if (tracer_ != nullptr) tracer_->BeginOp(id);
    ArmNewCounter(true);
    const uint64_t t0 = NowNs();
    fame::Status s = body();
    const uint64_t t1 = NowNs();
    ArmNewCounter(false);
    if (tracer_ != nullptr) tracer_->EndOp(type, id, t0, t1);
    if (recording_) samples_[type].push_back(t1 - t0);
    ++ops_[type];
    ++attempted_;
    if (!s.ok()) ++failed_;
    return s;
  }

  /// Untimed correctness check (oracle comparison, read-back).
  void Check(bool ok) {
    if (!ok) ++failed_;
  }
  /// A check that is an attempted operation of its own (read-back).
  void Verify(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// While recording, op latencies are sampled and Env bytes written are
  /// charged against AddUserBytes (the write_amp window).
  void SetRecording(bool on);
  void AddUserBytes(uint64_t n) {
    if (recording_) user_bytes_ += n;
  }

  void set_env(CountingEnv* env) { env_ = env; }
  CountingEnv* env() const { return env_; }
  void set_tracer(Tracer* t) { tracer_ = t; }

  uint64_t ops(OpType t) const { return ops_[t]; }
  uint64_t total_ops() const { return ops_[kGet] + ops_[kWrite] + ops_[kScan]; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<uint64_t>& samples(OpType t) const { return samples_[t]; }
  uint64_t user_bytes() const { return user_bytes_; }
  uint64_t env_bytes_written() const { return env_bytes_; }

  /// Times maintenance that is not a user op (MVCC GC): it gets a span of
  /// its own but no latency sample, and a non-OK status is a failure.
  template <typename F>
  fame::Status Maintenance(F&& body) {
    const uint64_t t0 = NowNs();
    fame::Status s = body();
    if (tracer_ != nullptr) tracer_->Gc(t0, NowNs());
    Verify(s.ok());
    return s;
  }
  /// Scan rows returned, for core.scan.rows_per_call.
  void AddScanRows(uint64_t n) { scan_rows_ += n; }
  uint64_t scan_rows() const { return scan_rows_; }
  /// Commits issued (write ops that are transactions).
  void AddCommit() { ++commits_; }
  uint64_t commits() const { return commits_; }

 private:
  uint64_t EnvWritten() const;

  CountingEnv* env_ = nullptr;
  Tracer* tracer_ = nullptr;
  uint32_t op_id_ = 0;
  bool recording_ = false;
  uint64_t ops_[kNumOpTypes] = {};
  uint64_t attempted_ = 0, failed_ = 0;
  uint64_t user_bytes_ = 0, env_bytes_ = 0, env_mark_ = 0;
  uint64_t scan_rows_ = 0, commits_ = 0;
  std::vector<uint64_t> samples_[kNumOpTypes];
};

// ---------------------------------------------------------------- workload

/// One product driven by one closed-loop client.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Opens a fresh product, loads it and warms it up (setup_s).
  virtual fame::Status Setup(uint64_t seed, Run* run) = 0;
  /// One closed-loop step: one or more user ops, each checked.
  virtual void Step(Run* run) = 0;
  /// Reads every live key back and checks it against the oracle.
  virtual void VerifyAll(Run* run) = 0;
  virtual LayerCounters Counters() = 0;
  /// Page-file plus WAL bytes on the medium, and live user bytes. Read
  /// after setup plus space_steps() untimed steps, a fixed op count, so
  /// space_amp sees growth from the workload's own traffic without
  /// depending on how many ops a timed phase managed.
  virtual uint64_t StoredBytes() = 0;
  virtual uint64_t LiveUserBytes() = 0;
  virtual uint64_t space_steps() const = 0;
  /// Set-ups per untraced run; setup_s is their median. Short set-ups get
  /// more, so the median stays steady.
  virtual size_t setups() const { return 3; }
  /// Name prefix of the per-op self-time metric ("core" or "bdb").
  virtual const char* self_layer() const { return "core"; }
  /// Extra pass/fail lines (durability); false fails the run.
  virtual bool ExtraChecks(uint64_t seed, std::string* report) {
    (void)seed;
    (void)report;
    return true;
  }
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(const std::string& dir);

/// Entry point shared by the workload executables:
///   <exe> --seed N --seconds S --trace 0|1 --dir D
///   <exe> --selftest --dir D
/// `selftest`, when set, runs workload-specific self-tests after the
/// harness's own.
int Main(int argc, char** argv, const char* workload, WorkloadFactory make,
         bool (*selftest)(const std::string& dir));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
