#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Rng::Rng(uint64_t seed) {
  // splitmix64 of the seed, so nearby seeds give unrelated streams.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  state_ = z != 0 ? z : 0x9e3779b97f4a7c15ull;
}

uint64_t Rng::Next() {
  uint64_t x = state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state_ = x;
  return x * 0x2545f4914f6cdd1dull;
}

uint64_t Rng::Skewed(uint64_t n) {
  const uint64_t bits = Uniform(64);
  const uint64_t max = bits >= 63 ? ~0ull : (1ull << (bits + 1));
  return Uniform(max) % n;
}

void Rng::Fill(std::string* out, size_t n) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = kAlphabet[Uniform(sizeof(kAlphabet) - 1)];
  }
}

std::string Key(uint64_t v) {
  std::string k(8, '\0');
  for (int i = 7; i >= 0; --i) {
    k[i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return k;
}

// ---------------------------------------------------------------- spans

const char* OpName(OpType t) {
  switch (t) {
    case kGet: return "get";
    case kWrite: return "write";
    case kScan: return "scan";
    default: return "?";
  }
}

namespace {

const char* SpanName(uint8_t kind) {
  static const char* const kNames[kNumSpanKinds] = {
      "get",       "write",      "scan",     "env.page.read", "env.page.write",
      "env.page.sync", "env.wal.read", "env.wal.write", "env.wal.sync",
      "mvcc.gc"};
  return kind < kNumSpanKinds ? kNames[kind] : "?";
}

Tracer* g_active_tracer = nullptr;

}  // namespace

Tracer* ActiveTracer() { return g_active_tracer; }
void SetActiveTracer(Tracer* t) { g_active_tracer = t; }

Tracer::Tracer() { kept_.reserve(kKeptSpans); }

void Tracer::BeginOp(uint32_t op_id) {
  current_op_ = op_id;
  current_child_ns_ = 0;
  // Keep an op only while there is room left for it and some children.
  keep_current_ = kept_.size() + 64 < kKeptSpans;
}

void Tracer::EndOp(OpType type, uint32_t op_id, uint64_t start, uint64_t end) {
  op_ns_[type] += end - start;
  child_in_op_ns_[type] += current_child_ns_;
  ++ops_[type];
  if (keep_current_) kept_.push_back({start, end, op_id, type});
  current_op_ = 0;
  current_child_ns_ = 0;
  keep_current_ = false;
}

void Tracer::Child(SpanKind kind, uint64_t start, uint64_t end) {
  if (current_op_ != 0) current_child_ns_ += end - start;
  if (keep_current_ && kept_.size() < kKeptSpans) {
    kept_.push_back({start, end, current_op_, kind});
  }
}

void Tracer::Gc(uint64_t start, uint64_t end) {
  gc_ns_ += end - start;
  if (kept_.size() < kKeptSpans) kept_.push_back({start, end, 0, kSpanGc});
}

bool Tracer::WriteChromeTrace(const std::string& path, uint64_t t0) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : kept_) {
    const double ts = static_cast<double>(s.start_ns - t0) / 1000.0;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"op\":%u}}",
                 first ? "" : ",\n", SpanName(s.kind), ts, dur, s.op_id);
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- osal

namespace {

class CountingFile final : public fame::osal::RandomAccessFile {
 public:
  CountingFile(std::unique_ptr<fame::osal::RandomAccessFile> base,
               IoCounters* c, bool wal)
      : base_(std::move(base)), c_(c), wal_(wal) {}

  fame::Status Read(uint64_t offset, size_t n, char* scratch,
                    fame::Slice* result) const override {
    const uint64_t t0 = NowNs();
    fame::Status s = base_->Read(offset, n, scratch, result);
    const uint64_t t1 = NowNs();
    ++c_->reads;
    c_->read_ns += t1 - t0;
    Trace(wal_ ? kSpanWalRead : kSpanPageRead, t0, t1);
    return s;
  }
  fame::Status Write(uint64_t offset, const fame::Slice& data) override {
    const uint64_t t0 = NowNs();
    fame::Status s = base_->Write(offset, data);
    const uint64_t t1 = NowNs();
    ++c_->writes;
    c_->write_bytes += data.size();
    c_->write_ns += t1 - t0;
    Trace(wal_ ? kSpanWalWrite : kSpanPageWrite, t0, t1);
    return s;
  }
  fame::Status Sync() override {
    const uint64_t t0 = NowNs();
    fame::Status s = base_->Sync();
    const uint64_t t1 = NowNs();
    ++c_->syncs;
    c_->sync_ns += t1 - t0;
    Trace(wal_ ? kSpanWalSync : kSpanPageSync, t0, t1);
    return s;
  }
  fame::StatusOr<uint64_t> Size() const override { return base_->Size(); }
  fame::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }

 private:
  static void Trace(SpanKind kind, uint64_t t0, uint64_t t1) {
    if (Tracer* t = ActiveTracer()) t->Child(kind, t0, t1);
  }

  std::unique_ptr<fame::osal::RandomAccessFile> base_;
  IoCounters* c_;
  bool wal_;
};

}  // namespace

fame::StatusOr<std::unique_ptr<fame::osal::RandomAccessFile>>
CountingEnv::OpenFile(const std::string& name, bool create) {
  auto file_or = base_->OpenFile(name, create);
  if (!file_or.ok()) return file_or.status();
  const bool is_wal = name.find(".wal") != std::string::npos;
  return std::unique_ptr<fame::osal::RandomAccessFile>(new CountingFile(
      std::move(file_or).value(), is_wal ? &wal : &page, is_wal));
}

uint64_t CountingEnv::BytesOnMedium(const std::string& prefix) {
  std::vector<std::string> names;
  if (!base_->ListFiles(prefix, &names).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& n : names) {
    auto f = base_->OpenFile(n, /*create=*/false);
    if (!f.ok()) continue;
    auto size = f.value()->Size();
    if (size.ok()) total += size.value();
  }
  return total;
}

// ---------------------------------------------------------------- run

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

LatencySummary Summarize(const std::vector<uint64_t>& samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.chunks = std::clamp<size_t>(samples.size() / kMinChunkSamples, 1,
                                  kMaxChunks);
  std::vector<double> p50s, p99s;
  for (size_t c = 0; c < out.chunks; ++c) {
    std::vector<uint64_t> chunk(
        samples.begin() + samples.size() * c / out.chunks,
        samples.begin() + samples.size() * (c + 1) / out.chunks);
    std::sort(chunk.begin(), chunk.end());
    auto rank = [&](double p) {  // nearest rank
      size_t idx = static_cast<size_t>(std::ceil(p * chunk.size()));
      idx = std::min(idx == 0 ? 0 : idx - 1, chunk.size() - 1);
      return static_cast<double>(chunk[idx]) / 1000.0;
    };
    p50s.push_back(rank(0.50));
    p99s.push_back(rank(0.99));
  }
  out.p50_us = Median(p50s);
  out.p99_us = Median(p99s);
  return out;
}

uint64_t Run::EnvWritten() const {
  return env_ == nullptr ? 0 : env_->page.write_bytes + env_->wal.write_bytes;
}

void Run::SetRecording(bool on) {
  if (on == recording_) return;
  if (on) {
    env_mark_ = EnvWritten();
  } else {
    env_bytes_ += EnvWritten() - env_mark_;
  }
  recording_ = on;
}

// ---------------------------------------------------------------- main

namespace {

struct Args {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      a->selftest = true;
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--dir" && has_value) {
      a->dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return a->seconds > 0;
}

/// Ordered (name, value, unit) list, rendered as the result JSON.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& m = items_[i];
      std::snprintf(buf, sizeof(buf), "%.9g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }
  bool WriteTable(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "metric\tvalue\tunit\n");
    for (const Item& m : items_) {
      std::fprintf(f, "%s\t%.6g\t%s\n", m.name.c_str(), m.value, m.unit);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// One timed phase on a set-up workload: closed loop for `seconds`.
struct Phase {
  uint64_t wall_ns = 0;
  uint64_t ops = 0;
  double ops_per_s = 0;  ///< median over kMaxChunks equal time windows
  uint64_t news = 0;
  uint64_t commits = 0;
  uint64_t scan_rows = 0;
  uint64_t scans = 0;
  IoCounters page, wal;
  LayerCounters before, after;
};

IoCounters Minus(const IoCounters& a, const IoCounters& b) {
  IoCounters d;
  d.reads = a.reads - b.reads;
  d.read_ns = a.read_ns - b.read_ns;
  d.writes = a.writes - b.writes;
  d.write_bytes = a.write_bytes - b.write_bytes;
  d.write_ns = a.write_ns - b.write_ns;
  d.syncs = a.syncs - b.syncs;
  d.sync_ns = a.sync_ns - b.sync_ns;
  return d;
}

Phase RunTimed(Workload* wl, Run* run, double seconds) {
  Phase p;
  CountingEnv* env = run->env();
  const IoCounters page0 = env->page, wal0 = env->wal;
  p.before = wl->Counters();
  const uint64_t ops0 = run->total_ops(), news0 = NewCount();
  const uint64_t commits0 = run->commits(), rows0 = run->scan_rows();
  const uint64_t scans0 = run->ops(kScan);
  run->SetRecording(true);
  const uint64_t limit = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = NowNs();
  uint64_t now = start;
  // Throughput per equal time window; the median window is reported.
  std::vector<double> rates;
  uint64_t window_start = start, window_ops = run->total_ops();
  while (now - start < limit) {
    wl->Step(run);
    now = NowNs();
    if (now - start >= limit / kMaxChunks * (rates.size() + 1)) {
      rates.push_back(
          Ratio(static_cast<double>(run->total_ops() - window_ops),
                static_cast<double>(now - window_start) / 1e9));
      window_start = now;
      window_ops = run->total_ops();
    }
  }
  run->SetRecording(false);
  p.ops_per_s = Median(rates);
  p.wall_ns = now - start;
  p.after = wl->Counters();
  p.ops = run->total_ops() - ops0;
  p.news = NewCount() - news0;
  p.commits = run->commits() - commits0;
  p.scan_rows = run->scan_rows() - rows0;
  p.scans = run->ops(kScan) - scans0;
  p.page = Minus(env->page, page0);
  p.wal = Minus(env->wal, wal0);
  return p;
}

/// Median ns of fame::Crc32 over one 4 KiB buffer.
double Crc32NsPer4k() {
  std::string buf;
  Rng rng(4096);
  rng.Fill(&buf, 4096);
  std::vector<double> per_call;
  uint32_t sink = 0;
  for (int rep = 0; rep < 201; ++rep) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < 16; ++i) sink ^= fame::Crc32(buf.data(), buf.size());
    per_call.push_back(static_cast<double>(NowNs() - t0) / 16);
  }
  if (sink == 0x12345678u) std::fprintf(stderr, " ");  // keep the calls
  return Median(per_call);
}

void AddLayerMetrics(Metrics* m, Workload* wl, const Phase& p,
                     const Tracer& tr, double untraced_ops_per_s) {
  const double ops = static_cast<double>(p.ops);
  const double commits = static_cast<double>(p.commits);
  const LayerCounters& a = p.after;
  const LayerCounters& b = p.before;
  const double hits = static_cast<double>(a.buf_hits - b.buf_hits);
  const double misses = static_cast<double>(a.buf_misses - b.buf_misses);
  const double pf_reads = static_cast<double>(a.pf_reads - b.pf_reads);
  const double pf_writes = static_cast<double>(a.pf_writes - b.pf_writes);
  const double syncs = static_cast<double>(p.page.syncs + p.wal.syncs);
  const double sync_ns = static_cast<double>(p.page.sync_ns + p.wal.sync_ns);

  m->Add("osal.env.page_reads_per_op", Ratio(p.page.reads, ops), "count");
  m->Add("osal.env.page_read_us_per_op", Ratio(p.page.read_ns / 1e3, ops),
         "us");
  m->Add("osal.env.page_writes_per_op", Ratio(p.page.writes, ops), "count");
  m->Add("osal.env.wal_bytes_per_commit", Ratio(p.wal.write_bytes, commits),
         "B");
  m->Add("osal.env.syncs_per_commit", Ratio(syncs, commits), "count");
  m->Add("osal.env.sync_us_per_commit", Ratio(sync_ns / 1e3, commits), "us");
  m->Add("osal.heap.news_per_op", Ratio(p.news, ops), "count");
  m->Add("common.crc32.ns_per_4k", Crc32NsPer4k(), "ns");
  m->Add("storage.pagefile.verify_us_per_read",
         Ratio((static_cast<double>(a.pf_read_ns - b.pf_read_ns) -
                static_cast<double>(p.page.read_ns)) / 1e3,
               pf_reads),
         "us");
  m->Add("storage.pagefile.seal_us_per_write",
         Ratio((static_cast<double>(a.pf_write_ns - b.pf_write_ns) -
                static_cast<double>(p.page.write_ns)) / 1e3,
               pf_writes),
         "us");
  m->Add("storage.buffer.hit_rate", Ratio(hits, hits + misses), "ratio");
  m->Add("storage.buffer.misses_per_op", Ratio(misses, ops), "count");
  m->Add("storage.buffer.fetches_per_op", Ratio(hits + misses, ops), "count");
  m->Add("storage.buffer.writebacks_per_op",
         Ratio(static_cast<double>(a.buf_writebacks - b.buf_writebacks), ops),
         "count");
  m->Add("index.btree.descents_per_op",
         Ratio(static_cast<double>(a.bt_descents - b.bt_descents), ops),
         "count");
  m->Add("index.btree.splits_per_kop",
         Ratio(static_cast<double>(a.bt_splits - b.bt_splits) * 1e3, ops),
         "count");
  m->Add("index.btree.merges_per_kop",
         Ratio(static_cast<double>(a.bt_merges - b.bt_merges) * 1e3, ops),
         "count");
  const bool bdb = std::strcmp(wl->self_layer(), "bdb") == 0;
  auto self_us = [&](OpType t) {
    return Ratio(static_cast<double>(tr.self_ns(t)) / 1e3,
                 static_cast<double>(tr.ops(t)));
  };
  m->Add("core.get.self_us", bdb ? 0.0 : self_us(kGet), "us");
  m->Add("core.write.self_us", bdb ? 0.0 : self_us(kWrite), "us");
  m->Add("core.scan.self_us", bdb ? 0.0 : self_us(kScan), "us");
  m->Add("bdb.get.self_us", bdb ? self_us(kGet) : 0.0, "us");
  m->Add("core.scan.rows_per_call", Ratio(p.scan_rows, p.scans), "count");
  m->Add("tx.wal.records_per_commit",
         Ratio(static_cast<double>(a.wal_records - b.wal_records), commits),
         "count");
  const double gc_runs = static_cast<double>(a.mvcc_gc_runs - b.mvcc_gc_runs);
  m->Add("tx.mvcc.gc_us_per_run",
         Ratio(static_cast<double>(tr.gc_ns()) / 1e3, gc_runs), "us");
  m->Add("tx.mvcc.gc_pruned_per_kcommit",
         Ratio(static_cast<double>(a.mvcc_gc_pruned - b.mvcc_gc_pruned) * 1e3,
               commits),
         "count");
  m->Add("tx.mvcc.conflicts_per_kcommit",
         Ratio(static_cast<double>(a.mvcc_conflicts - b.mvcc_conflicts) * 1e3,
               commits),
         "count");
  m->Add("bench.trace_overhead_pct",
         Ratio(untraced_ops_per_s - p.ops_per_s, untraced_ops_per_s) * 100,
         "%");
  const double covered = static_cast<double>(
      tr.op_ns(kGet) + tr.op_ns(kWrite) + tr.op_ns(kScan) + tr.gc_ns());
  m->Add("bench.span_coverage_pct", Ratio(covered, p.wall_ns) * 100, "%");
}

bool HarnessSelfTest() {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ok = ok && cond;
  };
  // Nearest-rank percentiles on 1..100 us and on a single sample.
  std::vector<uint64_t> v;
  for (uint64_t i = 100; i >= 1; --i) v.push_back(i * 1000);
  LatencySummary s = Summarize(v);
  expect(s.count == 100, "sample count of 100 samples");
  expect(s.p50_us == 50.0, "p50 of 1..100 us is 50 us");
  expect(s.p99_us == 99.0, "p99 of 1..100 us is 99 us");
  s = Summarize({7000});
  expect(s.count == 1 && s.p50_us == 7.0 && s.p99_us == 7.0, "one sample");
  s = Summarize({});
  expect(s.count == 0 && s.p50_us == 0.0, "no samples");
  // 5000 samples, one chunk: p99 is the 4950th smallest.
  v.clear();
  for (uint64_t i = 1; i <= 5000; ++i) v.push_back(i * 1000);
  s = Summarize(v);
  expect(s.p99_us == 4950.0 && s.chunks == 1, "p99 of 1..5000 us");
  // 25000 samples in five chunks; a stall that slows one chunk tenfold
  // moves neither percentile.
  std::vector<uint64_t> steady, stalled;
  for (uint64_t c = 0; c < 5; ++c) {
    for (uint64_t i = 1; i <= 5000; ++i) {
      steady.push_back(i * 1000);
      stalled.push_back(c == 2 ? i * 10000 : i * 1000);
    }
  }
  s = Summarize(steady);
  const LatencySummary st = Summarize(stalled);
  expect(s.count == 25000 && s.chunks == 5 && s.p50_us == 2500.0 &&
             s.p99_us == 4950.0,
         "five chunks of 1..5000 us");
  expect(st.p50_us == 2500.0 && st.p99_us == 4950.0, "one stalled chunk");
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5, "median");
  // The heap counter counts only while armed.
  const uint64_t n0 = NewCount();
  auto* unarmed = new int(1);
  ArmNewCounter(true);
  auto* armed = new int(2);
  ArmNewCounter(false);
  expect(NewCount() - n0 == 1, "operator new counted only while armed");
  delete unarmed;
  delete armed;
  // Run bookkeeping: a failed op and a failed check both count.
  Run run;
  run.Op(kGet, [] { return fame::Status::OK(); });
  run.Op(kGet, [] { return fame::Status::IOError("x"); });
  run.Check(false);
  expect(run.attempted() == 2 && run.failed() == 2, "failure accounting");
  return ok;
}

}  // namespace

int Main(int argc, char** argv, const char* workload, WorkloadFactory make,
         bool (*selftest)(const std::string& dir)) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (args.selftest) {
    const bool ok =
        HarnessSelfTest() && (selftest == nullptr || selftest(args.dir));
    std::printf("selftest %s: %s\n", workload, ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
  }

  Metrics metrics;
  // One Run spans every setup of the invocation: failures anywhere count,
  // and samples recorded during setups pool across them.
  Run run;
  std::unique_ptr<Workload> wl;
  auto setup = [&](double* seconds) -> bool {
    wl.reset();
    wl = make(args.dir);
    const uint64_t t0 = NowNs();
    fame::Status s = wl->Setup(args.seed, &run);
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (!s.ok()) {
      std::fprintf(stderr, "%s: setup failed: %s\n", workload,
                   s.ToString().c_str());
      return false;
    }
    return true;
  };

  std::string extra;
  bool extra_ok = true;
  if (!args.trace) {
    // Set up wl->setups() times (read from the first instance); that
    // instance also runs the fixed space_amp steps, and the last instance
    // runs the timed phase.
    std::vector<double> setups;
    size_t want = 1;
    double space_amp = 0;
    while (setups.size() < want) {
      double secs = 0;
      if (!setup(&secs)) return 1;
      setups.push_back(secs);
      if (setups.size() == 1) {
        want = wl->setups();
        for (uint64_t i = 0; i < wl->space_steps(); ++i) wl->Step(&run);
        space_amp = Ratio(wl->StoredBytes(), wl->LiveUserBytes());
      }
    }
    Phase p = RunTimed(wl.get(), &run, args.seconds);
    wl->VerifyAll(&run);
    metrics.Add("setup_s", Median(setups), "s");
    metrics.Add("ops_per_s", p.ops_per_s, "1/s");
    for (OpType t : {kGet, kWrite, kScan}) {
      LatencySummary l = Summarize(run.samples(t));
      const std::string n = OpName(t);
      metrics.Add(n + "_p50_us", l.p50_us, "us");
      metrics.Add(n + "_p99_us", l.p99_us, "us");
      metrics.Add(n + "_samples", static_cast<double>(l.count), "count");
    }
    metrics.Add("failed_ratio", Ratio(run.failed(), run.attempted()), "ratio");
    metrics.Add("write_amp",
                Ratio(run.env_bytes_written(), run.user_bytes()), "ratio");
    metrics.Add("space_amp", space_amp, "ratio");
    extra_ok = wl->ExtraChecks(args.seed, &extra);
  } else {
    // Untraced baseline, then a separate traced run with the same seed.
    double secs = 0;
    if (!setup(&secs)) return 1;
    Phase base = RunTimed(wl.get(), &run, args.seconds);
    const double untraced = base.ops_per_s;
    if (!setup(&secs)) return 1;
    Tracer tracer;
    run.set_tracer(&tracer);
    SetActiveTracer(&tracer);
    const uint64_t t0 = NowNs();
    Phase p = RunTimed(wl.get(), &run, args.seconds);
    SetActiveTracer(nullptr);
    run.set_tracer(nullptr);
    wl->VerifyAll(&run);
    AddLayerMetrics(&metrics, wl.get(), p, tracer, untraced);
    const std::string stem =
        args.dir + "/" + workload + "-seed" + std::to_string(args.seed);
    if (!tracer.WriteChromeTrace(stem + ".trace.json", t0) ||
        !metrics.WriteTable(stem + ".layers.tsv")) {
      std::fprintf(stderr, "could not write the trace files under %s\n",
                   args.dir.c_str());
    }
  }
  wl.reset();
  if (!extra.empty()) std::printf("%s\n", extra.c_str());
  const uint64_t attempted = run.attempted(), failed = run.failed();
  const bool correct = failed == 0 && extra_ok;
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"metrics\": %s}\n",
      workload, correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace perfbench
