// Observability subsystem tests:
//   - metric primitives (counter, gauge, base-4 histogram) under both cell
//     policies, including multi-threaded exactness of the atomic cells
//   - serializers (text report, Prometheus exposition, histogram line)
//   - the per-thread trace ring (runtime gate, wraparound, merge order,
//     error spans)
//   - Database integration: snapshot contents after a real workload, the
//     Observability feature gate, legacy DbStats parity
//   - the NFP feedback hook (IngestMetrics)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/sql.h"
#include "nfp/feedback.h"
#include "obs/blackbox.h"
#include "obs/obs.h"
#include "obs/metrics.h"
#include "obs/serialize.h"
#include "obs/trace.h"
#include "osal/env.h"
#include "osal/fault_env.h"
#include "storage/concurrency.h"
#include "tx/txmgr.h"

namespace fame::obs {
namespace {

using Plain = storage::SingleThreaded;

// ------------------------------------------------------------- primitives

TEST(ObsMetricsTest, CounterAndGaugeBothPolicies) {
  BasicCounter<Plain> c;
  EXPECT_EQ(c.Load(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Load(), 42u);
  c.Reset();
  EXPECT_EQ(c.Load(), 0u);

  BasicCounter<SharedCells> ac;
  ac.Add(7);
  EXPECT_EQ(ac.Load(), 7u);

  BasicGauge<SharedCells> g;
  g.Add(5);
  g.Sub(2);
  EXPECT_EQ(g.Load(), 3u);
  g.Set(10);
  EXPECT_EQ(g.Load(), 10u);
}

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  using H = BasicHistogram<Plain>;
  // Bucket b covers [4^b, 4^(b+1)); bucket 0 additionally holds zero.
  EXPECT_EQ(H::BucketOf(0), 0u);
  EXPECT_EQ(H::BucketOf(1), 0u);
  EXPECT_EQ(H::BucketOf(3), 0u);
  EXPECT_EQ(H::BucketOf(4), 1u);
  EXPECT_EQ(H::BucketOf(15), 1u);
  EXPECT_EQ(H::BucketOf(16), 2u);
  EXPECT_EQ(H::BucketOf(63), 2u);
  EXPECT_EQ(H::BucketOf(64), 3u);
  // Values past the last bucket boundary clamp into the final bucket.
  EXPECT_EQ(H::BucketOf(UINT64_MAX), HistogramSnapshot::kBuckets - 1);
  // The reported inclusive bound of bucket b is 4^(b+1)-1.
  EXPECT_EQ(HistogramSnapshot::BucketBound(0), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketBound(1), 15u);
  EXPECT_EQ(HistogramSnapshot::BucketBound(2), 63u);
}

TEST(ObsMetricsTest, HistogramRecordSnapshotMergeReset) {
  BasicHistogram<Plain> h;
  h.Record(0);
  h.Record(3);
  h.Record(4);
  h.Record(100);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 107u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[3], 1u);  // 100 in [64, 256)
  EXPECT_DOUBLE_EQ(s.Mean(), 107.0 / 4.0);

  HistogramSnapshot other = s;
  s.Merge(other);
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.sum, 214u);
  EXPECT_EQ(s.counts[0], 4u);

  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(ObsMetricsTest, SharedCellsExactUnderThreads) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  BasicCounter<SharedCells> counter;
  BasicHistogram<SharedCells> histo;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histo] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(1);
        histo.Record(static_cast<uint64_t>(i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Load(), uint64_t{kThreads} * kIters);
  HistogramSnapshot s = histo.Snapshot();
  EXPECT_EQ(s.count, uint64_t{kThreads} * kIters);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.counts) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsMetricsTest, CursorSinkFlushesIntoRegistry) {
  BasicCursorMetrics<Plain> cursors;
  CursorSink sink = cursors.sink();
  ASSERT_NE(sink.flush, nullptr);
  ASSERT_NE(sink.track_open, nullptr);
  sink.track_open(sink.ctx, true);
  sink.flush(sink.ctx, 2, 100, 40);
  sink.flush(sink.ctx, 1, 10, 10);
  sink.track_open(sink.ctx, false);
  EXPECT_EQ(cursors.seeks.Load(), 3u);
  EXPECT_EQ(cursors.rows_scanned.Load(), 110u);
  EXPECT_EQ(cursors.rows_returned.Load(), 50u);
  EXPECT_EQ(cursors.open.Load(), 0u);
}

// ------------------------------------------------------------ serializers

MetricsSnapshot SampleSnapshot() {
  MetricsSnapshot m;
  m.buffer_hits = 10;
  m.buffer_misses = 4;
  m.engine_gets = 3;
  m.engine_puts = 5;
  m.get_ns.counts[2] = 3;
  m.get_ns.count = 3;
  m.get_ns.sum = 90;
  m.page_count = 7;
  m.read_only = false;
  return m;
}

TEST(ObsSerializeTest, RenderTextKeepsLegacyKeysAndAddsSections) {
  std::string text = RenderText(SampleSnapshot());
  // The historical DbStats::ToString block, line-for-line greppable.
  EXPECT_NE(text.find("pages: 7"), std::string::npos);
  EXPECT_NE(text.find("buffer hits: 10"), std::string::npos);
  EXPECT_NE(text.find("buffer misses: 4"), std::string::npos);
  EXPECT_NE(text.find("read-only: no"), std::string::npos);
  // Observability sections appear once they carry samples.
  EXPECT_NE(text.find("engine gets: 3"), std::string::npos);
  EXPECT_NE(text.find("engine puts: 5"), std::string::npos);
}

TEST(ObsSerializeTest, RenderPrometheusEmitsCountersAndBuckets) {
  std::string prom = RenderPrometheus(SampleSnapshot());
  EXPECT_NE(prom.find("fame_buffer_hits_total 10"), std::string::npos);
  EXPECT_NE(prom.find("fame_buffer_misses_total 4"), std::string::npos);
  // Histogram series: cumulative buckets plus +Inf, sum, and count.
  EXPECT_NE(prom.find("fame_get_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("fame_get_latency_ns_sum 90"), std::string::npos);
  EXPECT_NE(prom.find("fame_get_latency_ns_count 3"), std::string::npos);
}

TEST(ObsSerializeTest, RenderCarriesAllocGauges) {
  MetricsSnapshot m = SampleSnapshot();
  m.alloc_name = "static-slab";
  m.alloc_live_bytes = 4096;
  m.alloc_peak_bytes = 8192;
  m.alloc_remote_frees = 12;
  std::string text = RenderText(m);
  EXPECT_NE(text.find("alloc name: static-slab"), std::string::npos);
  EXPECT_NE(text.find("alloc live bytes: 4096"), std::string::npos);
  EXPECT_NE(text.find("alloc peak bytes: 8192"), std::string::npos);
  EXPECT_NE(text.find("alloc remote frees: 12"), std::string::npos);
  std::string prom = RenderPrometheus(m);
  EXPECT_NE(prom.find("fame_alloc_live_bytes{allocator=\"static-slab\"} 4096"),
            std::string::npos);
  EXPECT_NE(prom.find("fame_alloc_peak_bytes{allocator=\"static-slab\"} 8192"),
            std::string::npos);
  EXPECT_NE(
      prom.find("fame_alloc_remote_frees_total{allocator=\"static-slab\"} 12"),
      std::string::npos);
}

TEST(ObsSerializeTest, RenderOmitsAllocGaugesWithoutAllocator) {
  // Engines that predate the allocator snapshot leave alloc_name empty; the
  // render output must stay byte-identical to the legacy form.
  MetricsSnapshot m = SampleSnapshot();
  EXPECT_EQ(RenderText(m).find("alloc"), std::string::npos);
  EXPECT_EQ(RenderPrometheus(m).find("fame_alloc"), std::string::npos);
}

TEST(ObsSerializeTest, RenderCarriesMvccSection) {
  MetricsSnapshot m = SampleSnapshot();
  m.mvcc = true;
  m.mvcc_active_snapshots = 2;
  m.mvcc_conflicts = 3;
  m.mvcc_gc_runs = 4;
  m.mvcc_gc_pruned = 17;
  m.mvcc_watermark = 40;
  m.mvcc_clock = 42;
  m.mvcc_chain_len.counts[1] = 5;
  m.mvcc_chain_len.count = 5;
  m.mvcc_chain_len.sum = 9;
  std::string text = RenderText(m);
  EXPECT_NE(text.find("mvcc active snapshots: 2"), std::string::npos);
  EXPECT_NE(text.find("mvcc conflicts: 3"), std::string::npos);
  EXPECT_NE(text.find("mvcc gc runs: 4"), std::string::npos);
  EXPECT_NE(text.find("mvcc gc pruned versions: 17"), std::string::npos);
  EXPECT_NE(text.find("mvcc watermark: 40"), std::string::npos);
  EXPECT_NE(text.find("mvcc commit clock: 42"), std::string::npos);
  EXPECT_NE(text.find("mvcc chain length"), std::string::npos);
  std::string prom = RenderPrometheus(m);
  EXPECT_NE(prom.find("fame_mvcc_active_snapshots 2"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_conflicts_total 3"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_gc_runs_total 4"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_gc_pruned_total 17"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_watermark 40"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_commit_clock 42"), std::string::npos);
  // Histogram series: cumulative buckets plus +Inf, sum, and count.
  EXPECT_NE(prom.find("fame_mvcc_chain_len_bucket"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_chain_len_sum 9"), std::string::npos);
  EXPECT_NE(prom.find("fame_mvcc_chain_len_count 5"), std::string::npos);
}

TEST(ObsSerializeTest, RenderOmitsMvccWithoutTheFeature) {
  // Products without snapshot isolation (m.mvcc false) keep the historical
  // output byte-identical — no mvcc keys in either renderer, even when
  // stale numbers sit in the fields.
  MetricsSnapshot m = SampleSnapshot();
  m.mvcc_clock = 99;
  m.mvcc_conflicts = 7;
  EXPECT_EQ(RenderText(m).find("mvcc"), std::string::npos);
  EXPECT_EQ(RenderPrometheus(m).find("fame_mvcc"), std::string::npos);
}

TEST(ObsSerializeTest, RenderHistogramElidesEmptyBuckets) {
  HistogramSnapshot h;
  EXPECT_NE(RenderHistogram(h).find("count=0"), std::string::npos);
  h.counts[1] = 2;
  h.count = 2;
  h.sum = 10;
  std::string line = RenderHistogram(h);
  EXPECT_NE(line.find("count=2"), std::string::npos);
  EXPECT_NE(line.find("sum=10"), std::string::npos);
  EXPECT_NE(line.find("le15:2"), std::string::npos);
  // Only the populated bucket is printed.
  EXPECT_EQ(line.find("le3:"), std::string::npos);
}

TEST(ObsSerializeTest, HistogramPercentileInterpolatesWithinBuckets) {
  HistogramSnapshot h;
  EXPECT_EQ(HistogramPercentile(h, 0.5), 0u);  // empty -> 0
  // Two samples in bucket 1, which spans [4, 16): the median rank falls
  // halfway through the bucket, so linear interpolation gives 4 + 6 = 10.
  h.counts[1] = 2;
  h.count = 2;
  h.sum = 10;
  EXPECT_EQ(HistogramPercentile(h, 0.50), 10u);
  // q clamps to [0, 1] and the estimate never leaves the bucket range.
  EXPECT_GE(HistogramPercentile(h, 0.0), 4u);
  EXPECT_LE(HistogramPercentile(h, 1.0), 16u);
  EXPECT_EQ(HistogramPercentile(h, 2.0), HistogramPercentile(h, 1.0));
  // Monotone in q.
  EXPECT_LE(HistogramPercentile(h, 0.25), HistogramPercentile(h, 0.75));

  // Skewed shape: three tiny samples, one large one — the median stays in
  // the small bucket, the tail quantile lands in the large one.
  HistogramSnapshot mix;
  mix.counts[0] = 3;  // [0, 4)
  mix.counts[3] = 1;  // [64, 256)
  mix.count = 4;
  EXPECT_LE(HistogramPercentile(mix, 0.50), 4u);
  EXPECT_GE(HistogramPercentile(mix, 0.99), 64u);
  // RenderHistogram carries the same numbers (shared estimator).
  std::string line = RenderHistogram(h);
  EXPECT_NE(line.find("p50=10"), std::string::npos);
}

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ObsSerializeTest, PrometheusAnnouncesFamiliesOnceAndEscapesLabels) {
  MetricsSnapshot m = SampleSnapshot();
  m.buffer_shards.resize(2);
  m.buffer_shards[0].hits = 1;
  m.buffer_shards[1].hits = 2;
  m.alloc_name = "odd\"name\\with\nnewline";
  m.alloc_live_bytes = 1;
  std::string prom = RenderPrometheus(m);
  // A multi-label family (one sample per shard) is announced exactly once.
  EXPECT_EQ(CountOccurrences(prom, "# HELP fame_buffer_shard_hits_total"), 1u);
  EXPECT_EQ(CountOccurrences(prom, "# TYPE fame_buffer_shard_hits_total counter"),
            1u);
  EXPECT_NE(prom.find("fame_buffer_shard_hits_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("fame_buffer_shard_hits_total{shard=\"1\"} 2"),
            std::string::npos);
  // The announcement precedes the family's first sample.
  EXPECT_LT(prom.find("# TYPE fame_buffer_hits_total counter"),
            prom.find("fame_buffer_hits_total 10"));
  // Type classification: _total -> counter, otherwise gauge; histograms
  // are histograms.
  EXPECT_NE(prom.find("# TYPE fame_page_count gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fame_get_latency_ns histogram"),
            std::string::npos);
  // Label-value escaping per the exposition format: backslash, quote, and
  // newline are backslash-escaped inside the quoted value.
  EXPECT_NE(prom.find("allocator=\"odd\\\"name\\\\with\\nnewline\""),
            std::string::npos);
  EXPECT_EQ(CountOccurrences(prom, "# HELP fame_alloc_live_bytes"), 1u);
}

TEST(ObsSerializeTest, PrometheusMatchesGoldenFile) {
#ifdef FAME_TEST_GOLDEN_DIR
  // Mirrors tests/golden/prometheus.txt; regenerate by copying the
  // `prometheus.actual` this test writes into the build directory on
  // mismatch.
  MetricsSnapshot m;
  m.page_count = 7;
  m.buffer_hits = 10;
  m.buffer_misses = 4;
  m.buffer_evictions = 2;
  m.buffer_writebacks = 1;
  m.buffer_shards.resize(2);
  m.buffer_shards[0].hits = 6;
  m.buffer_shards[0].misses = 3;
  m.buffer_shards[1].hits = 4;
  m.buffer_shards[1].misses = 1;
  m.buffer_shards[1].evictions = 2;
  m.buffer_shards[1].dirty_writebacks = 1;
  m.file_reads = 9;
  m.file_read_bytes = 4608;
  m.file_read_ns.counts[2] = 9;
  m.file_read_ns.count = 9;
  m.file_read_ns.sum = 270;
  m.file_verify_ns.counts[2] = 9;  // the checksum share of those reads
  m.file_verify_ns.count = 9;
  m.file_verify_ns.sum = 180;
  m.engine_gets = 3;
  m.engine_puts = 5;
  m.get_ns.counts[2] = 3;
  m.get_ns.count = 3;
  m.get_ns.sum = 90;
  m.committed_txns = 2;
  m.alloc_name = "slab \"v2\" back\\slash";
  m.alloc_live_bytes = 4096;
  m.alloc_peak_bytes = 8192;
  m.alloc_remote_frees = 12;
  std::string want;
  ASSERT_TRUE(osal::GetPosixEnv()
                  ->ReadFileToString(
                      std::string(FAME_TEST_GOLDEN_DIR) + "/prometheus.txt",
                      &want)
                  .ok());
  std::string got = RenderPrometheus(m);
  if (got != want) {
    (void)osal::GetPosixEnv()->WriteStringToFile("prometheus.actual", got);
  }
  EXPECT_EQ(got, want)
      << "exposition output drifted from tests/golden/prometheus.txt; "
         "the rendered text was written to prometheus.actual";
#else
  GTEST_SKIP() << "FAME_TEST_GOLDEN_DIR not defined";
#endif
}

// ------------------------------------------------------------------ trace

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Reset();
    Trace::Enable(true);
  }
  void TearDown() override {
    Trace::Enable(false);
    Trace::Reset();
  }
};

TEST_F(TraceFixture, DisabledRecordsNothing) {
  Trace::Enable(false);
  Trace::Record(SpanKind::kOpBegin, TraceOp::kGet);
  EXPECT_TRUE(Trace::Collect(0).empty());
}

TEST_F(TraceFixture, RecordsInTimestampOrderAndHonorsLastN) {
  {
    ScopedOpSpan span(TraceOp::kPut);
    Trace::Record(SpanKind::kPageRead, TraceOp::kNone, 12, 4096);
  }
  std::vector<TraceEvent> events = Trace::Collect(0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, SpanKind::kOpBegin);
  EXPECT_EQ(events[0].op, TraceOp::kPut);
  EXPECT_EQ(events[1].kind, SpanKind::kPageRead);
  EXPECT_EQ(events[1].a, 12u);
  EXPECT_EQ(events[1].b, 4096u);
  EXPECT_EQ(events[2].kind, SpanKind::kOpEnd);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_ns, events[i - 1].t_ns);
  }
  EXPECT_EQ(Trace::Collect(2).size(), 2u);
  EXPECT_EQ(Trace::Collect(2)[1].kind, SpanKind::kOpEnd);
}

TEST_F(TraceFixture, RingWrapsKeepingTheNewestEvents) {
  for (uint64_t i = 0; i < Trace::kRingSlots + 50; ++i) {
    Trace::Record(SpanKind::kPageWrite, TraceOp::kNone, i);
  }
  std::vector<TraceEvent> events = Trace::Collect(0);
  ASSERT_EQ(events.size(), Trace::kRingSlots);
  // The survivors are the newest kRingSlots events, still in order.
  EXPECT_EQ(events.front().a, 50u);
  EXPECT_EQ(events.back().a, Trace::kRingSlots + 49);
}

TEST_F(TraceFixture, ErrorSpansAreDetectable) {
  {
    ScopedOpSpan span(TraceOp::kGet);
    span.set_error(true);
  }
  std::vector<TraceEvent> events = Trace::Collect(0);
  EXPECT_TRUE(HasErrorSpan(events, SpanKind::kOpEnd));
  EXPECT_FALSE(HasErrorSpan(events, SpanKind::kOpBegin));
  std::string dump = Trace::Dump(0);
  EXPECT_NE(dump.find(TraceOpName(TraceOp::kGet)), std::string::npos);
}

TEST_F(TraceFixture, MergesRingsAcrossThreads) {
  std::thread other([] {
    for (int i = 0; i < 5; ++i) {
      Trace::Record(SpanKind::kWalSync, TraceOp::kNone, 3);
    }
  });
  other.join();
  for (int i = 0; i < 5; ++i) {
    Trace::Record(SpanKind::kPageRead, TraceOp::kNone, 1, 64);
  }
  std::vector<TraceEvent> events = Trace::Collect(0);
  ASSERT_EQ(events.size(), 10u);
  bool saw_sync = false, saw_read = false;
  for (const TraceEvent& e : events) {
    saw_sync |= e.kind == SpanKind::kWalSync;
    saw_read |= e.kind == SpanKind::kPageRead;
  }
  EXPECT_TRUE(saw_sync);
  EXPECT_TRUE(saw_read);
}

TEST_F(TraceFixture, SpanTreeLinksParentsChildrenAndPointEvents) {
  {
    ScopedOpSpan outer(TraceOp::kSql);
    Trace::Record(SpanKind::kPageRead, TraceOp::kNone, 1, 512);
    {
      ScopedOpSpan inner(TraceOp::kGet);
      Trace::Record(SpanKind::kPageRead, TraceOp::kNone, 2, 512);
    }
  }
  std::vector<TraceEvent> events = Trace::Collect(0);
  ASSERT_EQ(events.size(), 6u);
  const TraceEvent& outer_begin = events[0];
  const TraceEvent& outer_read = events[1];
  const TraceEvent& inner_begin = events[2];
  const TraceEvent& inner_read = events[3];
  const TraceEvent& inner_end = events[4];
  const TraceEvent& outer_end = events[5];
  // The root span opens a fresh trace and has no parent.
  ASSERT_EQ(outer_begin.kind, SpanKind::kOpBegin);
  EXPECT_EQ(outer_begin.op, TraceOp::kSql);
  EXPECT_NE(outer_begin.trace_id, 0u);
  EXPECT_NE(outer_begin.span_id, 0u);
  EXPECT_EQ(outer_begin.parent_id, 0u);
  // Everything recorded inside the scope shares the root's trace id.
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, outer_begin.trace_id);
  }
  // Point events carry no span of their own; they parent to the innermost
  // active span at record time.
  EXPECT_EQ(outer_read.span_id, 0u);
  EXPECT_EQ(outer_read.parent_id, outer_begin.span_id);
  EXPECT_EQ(inner_read.parent_id, inner_begin.span_id);
  // The nested span parents to the outer one and gets a distinct id.
  EXPECT_EQ(inner_begin.op, TraceOp::kGet);
  EXPECT_EQ(inner_begin.parent_id, outer_begin.span_id);
  EXPECT_NE(inner_begin.span_id, outer_begin.span_id);
  // End events repeat their span's ids so B/E pairs match up.
  EXPECT_EQ(inner_end.span_id, inner_begin.span_id);
  EXPECT_EQ(outer_end.span_id, outer_begin.span_id);

  // Once the root closes, the next root starts a brand-new trace.
  { ScopedOpSpan next(TraceOp::kPut); }
  std::vector<TraceEvent> again = Trace::Collect(2);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_NE(again[0].trace_id, outer_begin.trace_id);
}

TEST_F(TraceFixture, GroupCommitFlowLinksFollowerToLeaderBatch) {
  // The WAL leader's protocol: allocate a batch span id, record the sync
  // under it; followers on other threads record kWalJoin naming that id.
  uint64_t batch = Trace::NewId();
  Trace::RecordWithSpanId(SpanKind::kWalSync, TraceOp::kNone, batch,
                          /*records=*/3, /*bytes=*/4096);
  std::thread follower([batch] {
    Trace::Record(SpanKind::kWalJoin, TraceOp::kNone, batch, /*records=*/3);
  });
  follower.join();
  std::vector<TraceEvent> events = Trace::Collect(0);
  const TraceEvent* sync = nullptr;
  const TraceEvent* join = nullptr;
  for (const TraceEvent& e : events) {
    if (e.kind == SpanKind::kWalSync) sync = &e;
    if (e.kind == SpanKind::kWalJoin) join = &e;
  }
  ASSERT_NE(sync, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(sync->span_id, batch);
  EXPECT_EQ(join->a, batch);  // the join names the batch it rode
  EXPECT_NE(sync->thread, join->thread);
}

// Regression test for the per-slot seqlock: a collector racing a writer
// that wraps the ring must never decode a slot whose words mix two writes.
// The writer maintains an invariant between the payload words; a torn read
// would break it.
TEST_F(TraceFixture, CollectDropsTornSlotsWhileTheRingWraps) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Trace::Record(SpanKind::kPageWrite, TraceOp::kNone, i, i * 2 + 1);
      written.store(++i, std::memory_order_relaxed);
    }
  });
  // Wait until the writer has wrapped its ring at least once, then keep
  // collecting while it keeps wrapping.
  while (written.load(std::memory_order_relaxed) < Trace::kRingSlots + 1) {
  }
  for (int round = 0; round < 200; ++round) {
    for (const TraceEvent& e : Trace::Collect(0)) {
      if (e.kind != SpanKind::kPageWrite) continue;
      ASSERT_EQ(e.b, e.a * 2 + 1)
          << "torn slot escaped Collect at a=" << e.a;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(written.load(), Trace::kRingSlots);  // the ring really wrapped
}

// --- minimal JSON well-formedness checker (no third-party parser) --------

bool JsonSkipValue(const std::string& s, size_t* i);

void JsonSkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

bool JsonSkipString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size()) {
    if (s[*i] == '\\') {
      *i += 2;
      continue;
    }
    if (s[*i] == '"') {
      ++*i;
      return true;
    }
    ++*i;
  }
  return false;
}

bool JsonSkipObject(const std::string& s, size_t* i) {
  ++*i;  // '{'
  JsonSkipWs(s, i);
  if (*i < s.size() && s[*i] == '}') {
    ++*i;
    return true;
  }
  while (true) {
    JsonSkipWs(s, i);
    if (!JsonSkipString(s, i)) return false;
    JsonSkipWs(s, i);
    if (*i >= s.size() || s[*i] != ':') return false;
    ++*i;
    if (!JsonSkipValue(s, i)) return false;
    JsonSkipWs(s, i);
    if (*i >= s.size()) return false;
    if (s[*i] == ',') {
      ++*i;
      continue;
    }
    if (s[*i] == '}') {
      ++*i;
      return true;
    }
    return false;
  }
}

bool JsonSkipArray(const std::string& s, size_t* i) {
  ++*i;  // '['
  JsonSkipWs(s, i);
  if (*i < s.size() && s[*i] == ']') {
    ++*i;
    return true;
  }
  while (true) {
    if (!JsonSkipValue(s, i)) return false;
    JsonSkipWs(s, i);
    if (*i >= s.size()) return false;
    if (s[*i] == ',') {
      ++*i;
      continue;
    }
    if (s[*i] == ']') {
      ++*i;
      return true;
    }
    return false;
  }
}

bool JsonSkipValue(const std::string& s, size_t* i) {
  JsonSkipWs(s, i);
  if (*i >= s.size()) return false;
  char c = s[*i];
  if (c == '{') return JsonSkipObject(s, i);
  if (c == '[') return JsonSkipArray(s, i);
  if (c == '"') return JsonSkipString(s, i);
  if (c == 't') {
    if (s.compare(*i, 4, "true") != 0) return false;
    *i += 4;
    return true;
  }
  if (c == 'f') {
    if (s.compare(*i, 5, "false") != 0) return false;
    *i += 5;
    return true;
  }
  if (c == 'n') {
    if (s.compare(*i, 4, "null") != 0) return false;
    *i += 4;
    return true;
  }
  size_t start = *i;
  while (*i < s.size() &&
         (s[*i] == '-' || s[*i] == '+' || s[*i] == '.' || s[*i] == 'e' ||
          s[*i] == 'E' || (s[*i] >= '0' && s[*i] <= '9'))) {
    ++*i;
  }
  return *i > start;
}

bool IsWellFormedJson(const std::string& s) {
  size_t i = 0;
  if (!JsonSkipValue(s, &i)) return false;
  JsonSkipWs(s, &i);
  return i == s.size();
}

TEST_F(TraceFixture, DumpJsonIsLoadableChromeTraceEventFormat) {
  {
    ScopedOpSpan sql(TraceOp::kSql);
    Trace::Record(SpanKind::kPageRead, TraceOp::kNone, 7, 4096);
  }
  uint64_t batch = Trace::NewId();
  Trace::RecordWithSpanId(SpanKind::kWalSync, TraceOp::kNone, batch, 2, 128);
  Trace::Record(SpanKind::kWalJoin, TraceOp::kNone, batch, 2);
  std::string json = Trace::DumpJson(0);

  // The export is one complete JSON document...
  ASSERT_TRUE(IsWellFormedJson(json)) << json;
  // ...in the Chrome trace-event container format.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Spans become B/E slice pairs, point events thread-scoped instants.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 3u);
  EXPECT_GE(CountOccurrences(json, "\"s\":\"t\""), 3u);
  // The group-commit epoch becomes a flow arrow: one source at the batch
  // event, one sink at the join, correlated by id.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"id\":" + std::to_string(batch)), 2u);
  // Every event carries the required keys.
  size_t events = CountOccurrences(json, "\"ph\":\"");
  EXPECT_EQ(CountOccurrences(json, "\"ts\":"), events);
  EXPECT_EQ(CountOccurrences(json, "\"pid\":1"), events);
  EXPECT_EQ(CountOccurrences(json, "\"tid\":"), events);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\""), events);
  // The B event exposes the causal ids for tooling.
  EXPECT_NE(json.find("\"args\":{\"trace\":"), std::string::npos);
}

// ----------------------------------------------------- Database integration

core::DbOptions ObsOptions(osal::Env* env, bool observability) {
  core::DbOptions opts;
  opts.features = {"Linux",     "B+-Tree",      "Transaction", "Update",
                   "BTree-Update", "Int-Types", "String-Types"};
  if (observability) opts.features.push_back("Observability");
  opts.env = env;
  opts.path = "obs_db";
  // Small pages + a small pool: the workload cannot stay cached, so the
  // buffer pool must miss and evict and the snapshot shows real IO.
  opts.page_size = 512;
  opts.buffer_frames = 8;
  return opts;
}

/// Puts enough data to overflow the pool, reads it back, commits a couple
/// of transactions, and scans — every instrumented layer sees traffic.
void RunObsWorkload(core::Database* db) {
  for (int i = 0; i < 300; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(db->Put(Slice(key), Slice("value" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 100; ++i) {
    std::string key = "key" + std::to_string(i * 3);
    std::string value;
    ASSERT_TRUE(db->Get(Slice(key), &value).ok());
  }
  for (int t = 0; t < 3; ++t) {
    auto txn_or = db->Begin();
    ASSERT_TRUE(txn_or.ok());
    for (int i = 0; i < 4; ++i) {
      std::string key = "txn" + std::to_string(t * 4 + i);
      ASSERT_TRUE((*txn_or)->Put("core", key, "v").ok());
    }
    ASSERT_TRUE(db->Commit(*txn_or).ok());
  }
  uint64_t rows = 0;
  ASSERT_TRUE(db->Scan([&rows](const Slice&, const Slice&) {
                  ++rows;
                  return true;
                })
                  .ok());
  EXPECT_GT(rows, 300u);
}

#if FAME_OBS_ENABLED
// Instrumented hot paths only exist when the build compiles the feature;
// a -DFAME_OBSERVABILITY=OFF build keeps the surfaces but reports only the
// unconditional lifecycle counters, so the workload-signal assertions are
// gated with the instrumentation they probe.
TEST(ObsDatabaseTest, SnapshotCarriesWorkloadSignal) {
  auto env = osal::NewMemEnv(0);
  auto db_or = core::Database::Open(ObsOptions(env.get(), true));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  core::Database* db = db_or->get();
  RunObsWorkload(db);

  auto snap_or = db->GetMetricsSnapshot();
  ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
  const MetricsSnapshot& m = *snap_or;

  EXPECT_EQ(m.engine_puts, 300u);
  EXPECT_EQ(m.engine_gets, 100u);
  EXPECT_EQ(m.engine_scans, 1u);
  EXPECT_EQ(m.put_ns.count, 300u);
  EXPECT_EQ(m.get_ns.count, 100u);
  EXPECT_GT(m.buffer_hits, 0u);
  EXPECT_GT(m.buffer_misses, 0u);  // 8-frame pool cannot hold the workload
  EXPECT_GT(m.file_writes, 0u);
  EXPECT_GT(m.file_write_bytes, 0u);
  EXPECT_GT(m.btree_descents, 0u);
  EXPECT_GT(m.btree_splits, 0u);
  EXPECT_GT(m.wal_appends, 0u);
  EXPECT_GT(m.wal_batch_records.count, 0u);
  EXPECT_EQ(m.committed_txns, 3u);
  EXPECT_GT(m.page_count, 0u);

  // Legacy DbStats fields derive from the same snapshot; the text report
  // keeps the historical keys.
  auto stats = db->GetStats();
  EXPECT_EQ(stats.metrics.engine_puts, m.engine_puts);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("buffer hits:"), std::string::npos);
  EXPECT_NE(text.find("read-only: no"), std::string::npos);
  EXPECT_NE(text.find("engine puts: 300"), std::string::npos);
}

#endif  // FAME_OBS_ENABLED

// The MVCC gauges flow end-to-end (oracle -> snapshot -> renderers) on any
// Observability+Mvcc product; they are lifecycle counters, not FAME_OBS
// instrumentation, so this holds in -DFAME_OBSERVABILITY=OFF builds too.
TEST(ObsDatabaseTest, SnapshotCarriesMvccSignal) {
  auto env = osal::NewMemEnv(0);
  core::DbOptions opts = ObsOptions(env.get(), true);
  opts.features.push_back("Remove");
  opts.features.push_back("BTree-Remove");
  opts.features.push_back("Mvcc");
  auto db_or = core::Database::Open(opts);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  core::Database* db = db_or->get();

  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 4; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          (*txn)->Put("core", "k" + std::to_string(i), "g" + std::to_string(gen))
              .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
  }
  // One first-committer-wins refusal.
  auto t1 = db->Begin();
  auto t2 = db->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*t1)->Put("core", "k0", "winner").ok());
  ASSERT_TRUE((*t2)->Put("core", "k0", "loser").ok());
  ASSERT_TRUE(db->Commit(*t1).ok());
  ASSERT_TRUE(db->Commit(*t2).IsBusy());
  // One GC sweep with history to prune.
  auto pruned = db->MvccGc();
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(*pruned, 0u);

  auto snap_cursor = db->NewSnapshotCursor();
  ASSERT_TRUE(snap_cursor.ok());
  auto snap_or = db->GetMetricsSnapshot();
  ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
  const MetricsSnapshot& m = *snap_or;
  EXPECT_TRUE(m.mvcc);
  EXPECT_GE(m.mvcc_active_snapshots, 1u);  // the live cursor's registration
  EXPECT_GE(m.mvcc_conflicts, 1u);
  EXPECT_GE(m.mvcc_gc_runs, 1u);
  EXPECT_GT(m.mvcc_gc_pruned, 0u);
  EXPECT_GT(m.mvcc_clock, 0u);
  EXPECT_GT(m.mvcc_chain_len.count, 0u);  // every versioned write recorded

  std::string prom = RenderPrometheus(m);
  EXPECT_NE(prom.find("fame_mvcc_commit_clock"), std::string::npos);
  std::string text = RenderText(m);
  EXPECT_NE(text.find("mvcc commit clock"), std::string::npos);

  // Mvcc-less twin: the section stays absent end-to-end.
  auto env2 = osal::NewMemEnv(0);
  auto plain_or = core::Database::Open(ObsOptions(env2.get(), true));
  ASSERT_TRUE(plain_or.ok());
  auto plain_snap = (*plain_or)->GetMetricsSnapshot();
  ASSERT_TRUE(plain_snap.ok());
  EXPECT_FALSE(plain_snap->mvcc);
  EXPECT_EQ(RenderText(*plain_snap).find("mvcc"), std::string::npos);
}

TEST(ObsDatabaseTest, SnapshotRequiresObservabilityFeature) {
  auto env = osal::NewMemEnv(0);
  auto db_or = core::Database::Open(ObsOptions(env.get(), false));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto snap_or = (*db_or)->GetMetricsSnapshot();
  EXPECT_TRUE(snap_or.status().IsNotSupported());
  // GetStats keeps working without the feature (legacy surface).
  auto stats = (*db_or)->GetStats();
  EXPECT_NE(stats.ToString().find("read-only: no"), std::string::npos);
}

#if FAME_OBS_TRACING_ENABLED
TEST(ObsDatabaseTest, TracingFeatureProducesSpans) {
  Trace::Reset();
  auto env = osal::NewMemEnv(0);
  core::DbOptions opts = ObsOptions(env.get(), true);
  opts.features.push_back("Tracing");
  auto db_or = core::Database::Open(opts);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ASSERT_TRUE((*db_or)->Put(Slice("k"), Slice("v")).ok());
  std::string value;
  ASSERT_TRUE((*db_or)->Get(Slice("k"), &value).ok());
  std::vector<TraceEvent> events = Trace::Collect(0);
  bool saw_put = false, saw_get = false;
  for (const TraceEvent& e : events) {
    saw_put |= e.kind == SpanKind::kOpEnd && e.op == TraceOp::kPut;
    saw_get |= e.kind == SpanKind::kOpEnd && e.op == TraceOp::kGet;
  }
  EXPECT_TRUE(saw_put);
  EXPECT_TRUE(saw_get);
  Trace::Enable(false);
  Trace::Reset();
}

#endif  // FAME_OBS_TRACING_ENABLED

// ------------------------------------------------- SQL PROFILE and tracing

core::DbOptions SqlObsOptions(osal::Env* env) {
  core::DbOptions opts;
  opts.features = {"Linux",        "B+-Tree",   "SQL-Engine",
                   "Optimizer",    "Update",    "BTree-Update",
                   "Remove",       "BTree-Remove", "Int-Types",
                   "String-Types", "Observability"};
  opts.env = env;
  opts.path = "obs_sql_db";
  // Small pages + a small pool so a table scan produces real file reads.
  opts.page_size = 512;
  opts.buffer_frames = 8;
  return opts;
}

#if FAME_OBS_ENABLED
// The acceptance bar for PROFILE: its numbers are the same counters the
// metrics registry reports, bracketed around the statement — not a second
// bookkeeping path that can drift.
TEST(ObsSqlTest, ProfileCountsMatchRegistryDeltas) {
  auto env = osal::NewMemEnv(0);
  auto db_or = core::Database::Open(SqlObsOptions(env.get()));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  core::Database* db = db_or->get();
  auto exec = [db](const std::string& sql) {
    auto rs = db->sql()->Execute(sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
  };
  exec("CREATE TABLE t (k INT, grp INT)");
  for (int i = 0; i < 120; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
         std::to_string(i % 4) + ")");
  }

  auto before_or = db->GetMetricsSnapshot();
  ASSERT_TRUE(before_or.ok());
  // WHERE on a non-key column: a full scan that examines every row once.
  auto rs_or = db->sql()->Execute("PROFILE SELECT * FROM t WHERE grp = 1");
  ASSERT_TRUE(rs_or.ok()) << rs_or.status().ToString();
  auto after_or = db->GetMetricsSnapshot();
  ASSERT_TRUE(after_or.ok());

  const core::ResultSet& rs = *rs_or;
  EXPECT_EQ(rs.plan, "full-scan");
  ASSERT_EQ(rs.columns.size(), 6u);
  const std::vector<core::Value>* scan = nullptr;
  const std::vector<core::Value>* total = nullptr;
  for (const auto& row : rs.rows) {
    if (row[0].AsString() == "scan:full-scan") scan = &row;
    if (row[0].AsString() == "total") total = &row;
  }
  ASSERT_NE(scan, nullptr) << "no scan operator row in PROFILE output";
  ASSERT_NE(total, nullptr) << "no total row in PROFILE output";

  // rows_in of the scan operator == every row the statement examined ==
  // the registry's cursor_rows_scanned delta (two independent paths over
  // the same rows).
  const uint64_t scanned_delta =
      after_or->cursor_rows_scanned - before_or->cursor_rows_scanned;
  EXPECT_EQ((*scan)[1].AsInt(), 120);
  EXPECT_EQ(static_cast<uint64_t>((*scan)[1].AsInt()), scanned_delta);
  // grp = 1 matches a quarter of the table.
  EXPECT_EQ((*scan)[2].AsInt(), 30);
  EXPECT_EQ((*total)[2].AsInt(), 30);
  EXPECT_GT((*total)[3].AsInt(), 0);  // wall time was measured
  // The IO columns are registry deltas by construction; check the scan
  // row against an independent bracket of the same counters.
  const uint64_t reads_delta = after_or->file_reads - before_or->file_reads;
  EXPECT_EQ(static_cast<uint64_t>((*scan)[4].AsInt()), reads_delta);
  const uint64_t hits_delta = after_or->buffer_hits - before_or->buffer_hits;
  EXPECT_EQ(static_cast<uint64_t>((*scan)[5].AsInt()), hits_delta);
}
#endif  // FAME_OBS_ENABLED

#if FAME_OBS_TRACING_ENABLED
TEST(ObsSqlTest, SqlStatementIsTheRootSpanOfItsTrace) {
  Trace::Reset();
  auto env = osal::NewMemEnv(0);
  core::DbOptions opts = SqlObsOptions(env.get());
  opts.features.push_back("Tracing");
  auto db_or = core::Database::Open(opts);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  core::Database* db = db_or->get();
  {
    auto rs = db->sql()->Execute("CREATE TABLE t (k INT, v TEXT)");
    ASSERT_TRUE(rs.ok());
    rs = db->sql()->Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    ASSERT_TRUE(rs.ok());
  }
  // Isolate the SELECT's trace.
  Trace::Reset();
  auto rs_or = db->sql()->Execute("SELECT * FROM t");
  ASSERT_TRUE(rs_or.ok());
  std::vector<TraceEvent> events = Trace::Collect(0);

  const TraceEvent* sql_begin = nullptr;
  for (const TraceEvent& e : events) {
    if (e.kind == SpanKind::kOpBegin && e.op == TraceOp::kSql) sql_begin = &e;
  }
  ASSERT_NE(sql_begin, nullptr) << "no kSql root span recorded";
  EXPECT_EQ(sql_begin->parent_id, 0u);  // the statement is the root
  EXPECT_NE(sql_begin->trace_id, 0u);
  // Engine work done on behalf of the statement nests under it: same
  // trace, parented (directly) to the statement's span.
  bool saw_child = false;
  for (const TraceEvent& e : events) {
    if (&e == sql_begin || e.trace_id != sql_begin->trace_id) continue;
    if (e.parent_id == sql_begin->span_id) saw_child = true;
  }
  EXPECT_TRUE(saw_child)
      << "no engine event attributed to the SQL statement's span";
  Trace::Enable(false);
  Trace::Reset();
}
#endif  // FAME_OBS_TRACING_ENABLED

// ---------------------------------------------------------- flight recorder

#if FAME_OBS_ENABLED
TEST(ObsBlackBoxTest, PersistRoundTripsThroughTheCrcSeal) {
  auto env = osal::NewMemEnv(0);
  BlackBox box;
  box.NoteStatus("put", "IO error: disk glitch");
  box.NoteStatus("wal.sync", "IO error: lost write");
  ASSERT_TRUE(box.Persist(env.get(), "bb_db", "unit-test trigger",
                          "B+-Tree,Linux", "pages: 1\n")
                  .ok());
  auto body = ReadBlackBox(env.get(), BlackBoxPath("bb_db"));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("[trigger]"), std::string::npos);
  EXPECT_NE(body->find("unit-test trigger"), std::string::npos);
  EXPECT_NE(body->find("[features]"), std::string::npos);
  EXPECT_NE(body->find("B+-Tree,Linux"), std::string::npos);
  EXPECT_NE(body->find("[errors]"), std::string::npos);
  EXPECT_NE(body->find("wal.sync"), std::string::npos);
  EXPECT_NE(body->find("[spans]"), std::string::npos);
  EXPECT_NE(body->find("[metrics]"), std::string::npos);
  EXPECT_NE(body->find("pages: 1"), std::string::npos);
}

TEST(ObsBlackBoxTest, ErrorRingIsBoundedAndAccountsDrops) {
  BlackBox box;
  for (size_t i = 0; i < BlackBox::kMaxErrors + 5; ++i) {
    box.NoteStatus("op" + std::to_string(i), "IO error");
  }
  std::string errors = box.RenderErrors();
  EXPECT_NE(errors.find("dropped=5"), std::string::npos);
  // The oldest five fell out, the newest survived.
  EXPECT_EQ(errors.find("op0:"), std::string::npos);
  EXPECT_NE(errors.find("op" + std::to_string(BlackBox::kMaxErrors + 4)),
            std::string::npos);
}

TEST(ObsBlackBoxTest, TornOrEditedFilesAreRejected) {
  auto env = osal::NewMemEnv(0);
  ASSERT_TRUE(
      PersistBlackBox(env.get(), "bb2", "t", "f", "", "metrics\n").ok());
  std::string raw;
  ASSERT_TRUE(env->ReadFileToString(BlackBoxPath("bb2"), &raw).ok());
  // Flip a bit in the body: the CRC seal must catch it.
  std::string flipped = raw;
  flipped[flipped.size() - 1] =
      static_cast<char>(flipped[flipped.size() - 1] ^ 0x40);
  ASSERT_TRUE(env->WriteStringToFile(BlackBoxPath("bb2"), flipped).ok());
  EXPECT_TRUE(
      ReadBlackBox(env.get(), BlackBoxPath("bb2")).status().IsCorruption());
  // A torn (truncated) file is rejected by the length check.
  ASSERT_TRUE(env->WriteStringToFile(BlackBoxPath("bb2"),
                                     raw.substr(0, raw.size() / 2))
                  .ok());
  EXPECT_TRUE(
      ReadBlackBox(env.get(), BlackBoxPath("bb2")).status().IsCorruption());
  // A file that is not a black box at all is rejected by the magic.
  std::string magicless = raw;
  magicless[0] = 'X';
  ASSERT_TRUE(env->WriteStringToFile(BlackBoxPath("bb2"), magicless).ok());
  EXPECT_TRUE(
      ReadBlackBox(env.get(), BlackBoxPath("bb2")).status().IsCorruption());
  // Missing file is NotFound, not Corruption.
  EXPECT_FALSE(
      ReadBlackBox(env.get(), BlackBoxPath("nope")).status().IsCorruption());
}

TEST(ObsBlackBoxTest, DatabaseDumpIsFeatureGatedAndOnDemand) {
  auto env = osal::NewMemEnv(0);
  // Without FlightRecorder the surface exists but refuses.
  auto plain_or = core::Database::Open(ObsOptions(env.get(), true));
  ASSERT_TRUE(plain_or.ok());
  EXPECT_TRUE((*plain_or)->DumpBlackBox("x").IsNotSupported());
  EXPECT_FALSE(env->FileExists(BlackBoxPath("obs_db")));

  // With it, an on-demand dump writes a decodable box carrying the
  // trigger, the product signature, and the metrics snapshot.
  core::DbOptions opts = ObsOptions(env.get(), true);
  opts.path = "obs_fr_db";
  opts.features.push_back("FlightRecorder");
  auto db_or = core::Database::Open(opts);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ASSERT_TRUE((*db_or)->Put(Slice("k"), Slice("v")).ok());
  ASSERT_TRUE((*db_or)->DumpBlackBox("operator request").ok());
  auto body = ReadBlackBox(env.get(), BlackBoxPath("obs_fr_db"));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("operator request"), std::string::npos);
  EXPECT_NE(body->find("FlightRecorder"), std::string::npos);
  EXPECT_NE(body->find("engine puts: 1"), std::string::npos);
}

// A fault-injected degradation seals the box without being asked: a
// corrupted eviction writeback trips the read-only latch, and the trip
// itself dumps. Puts are buffered, so the fault is armed as a one-write
// window and Puts continue until the pool overflows and a writeback hits
// it; Corruption is excluded from the storage layer's transient retry, so
// that one faulted write deterministically fails the Put — and the window
// is spent by the time the dump's own writes run.
TEST(ObsBlackBoxTest, ReadOnlyLatchTripSealsTheBlackBoxUnprompted) {
  auto base = osal::NewMemEnv(0);
  osal::FaultInjectionEnv fault(base.get());
  core::DbOptions opts = ObsOptions(&fault, true);
  opts.path = "obs_latch_db";
  opts.features.push_back("FlightRecorder");
  auto db_or = core::Database::Open(opts);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ASSERT_FALSE(fault.FileExists(BlackBoxPath("obs_latch_db")));

  fault.FailRange(osal::FaultOp::kWrite,
                  fault.op_count(osal::FaultOp::kWrite), 1,
                  Status::Corruption("injected mutation-path corruption"));
  Status doomed;
  for (int i = 0; i < 500 && doomed.ok(); ++i) {
    std::string key = "key" + std::to_string(i);
    doomed = (*db_or)->Put(Slice(key), Slice(std::string(100, 'x')));
  }
  ASSERT_FALSE(doomed.ok()) << "no writeback ever hit the fault window";
  EXPECT_TRUE(doomed.IsCorruption()) << doomed.ToString();

  // The latch is sticky (reads stay up, mutations are refused up front)...
  std::string v;
  EXPECT_TRUE((*db_or)->Get(Slice("key0"), &v).ok());
  EXPECT_FALSE((*db_or)->Put(Slice("late"), Slice("v")).ok());
  // ...and the trip produced a decodable post-mortem naming its trigger
  // and carrying the failing status as the newest breadcrumb.
  auto body = ReadBlackBox(&fault, BlackBoxPath("obs_latch_db"));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("read-only latch tripped"), std::string::npos);
  EXPECT_NE(body->find("injected mutation-path corruption"),
            std::string::npos);
}

// Fault-injection proof of the crash-safety contract: a dump that dies
// mid-write (power cut between tmp write and rename) leaves the previous
// black box byte-identical and decodable.
TEST(ObsBlackBoxTest, CrashMidDumpLeavesThePriorBlackBoxIntact) {
  auto base = osal::NewMemEnv(0);
  osal::FaultInjectionEnv fault(base.get());
  ASSERT_TRUE(
      PersistBlackBox(&fault, "bb3", "first dump", "f", "", "m\n").ok());
  auto first = ReadBlackBox(&fault, BlackBoxPath("bb3"));
  ASSERT_TRUE(first.ok());

  // Every write from here on fails — the tmp file never finishes, the
  // rename never runs.
  fault.FailFrom(osal::FaultOp::kWrite, 0, Status::IOError("power cut"));
  EXPECT_FALSE(
      PersistBlackBox(&fault, "bb3", "second dump", "f", "", "m\n").ok());
  fault.ClearFaults();
  auto after_write_crash = ReadBlackBox(&fault, BlackBoxPath("bb3"));
  ASSERT_TRUE(after_write_crash.ok());
  EXPECT_EQ(*after_write_crash, *first);
  EXPECT_NE(after_write_crash->find("first dump"), std::string::npos);

  // Same story when the sync (not the write) is what fails.
  fault.FailFrom(osal::FaultOp::kSync, 0, Status::IOError("power cut"));
  EXPECT_FALSE(
      PersistBlackBox(&fault, "bb3", "third dump", "f", "", "m\n").ok());
  fault.ClearFaults();
  auto after_sync_crash = ReadBlackBox(&fault, BlackBoxPath("bb3"));
  ASSERT_TRUE(after_sync_crash.ok());
  EXPECT_EQ(*after_sync_crash, *first);

  // With the fault gone the next dump replaces the box atomically.
  ASSERT_TRUE(
      PersistBlackBox(&fault, "bb3", "fourth dump", "f", "", "m\n").ok());
  auto final_body = ReadBlackBox(&fault, BlackBoxPath("bb3"));
  ASSERT_TRUE(final_body.ok());
  EXPECT_NE(final_body->find("fourth dump"), std::string::npos);
}
#endif  // FAME_OBS_ENABLED

// ------------------------------------------------------------ NFP feedback

TEST(ObsFeedbackTest, IngestMetricsRejectsEmptyOrBadInput) {
  nfp::FeedbackRepository repo;
  MetricsSnapshot idle;
  EXPECT_TRUE(nfp::IngestMetrics(&repo, {"Get"}, idle, 1.0)
                  .IsInvalidArgument());
  MetricsSnapshot busy;
  busy.engine_gets = 10;
  EXPECT_TRUE(nfp::IngestMetrics(&repo, {"Get"}, busy, 0.0)
                  .IsInvalidArgument());
  EXPECT_EQ(repo.size(), 0u);
}

TEST(ObsFeedbackTest, IngestMetricsDerivesThroughputAndLatency) {
  nfp::FeedbackRepository repo;
  MetricsSnapshot m;
  m.engine_gets = 600;
  m.engine_puts = 400;
  m.get_ns.count = 600;
  m.get_ns.sum = 600 * 2000;  // 2µs mean
  m.put_ns.count = 400;
  m.put_ns.sum = 400 * 4000;  // 4µs mean
  ASSERT_TRUE(
      nfp::IngestMetrics(&repo, {"Put", "Get", "B+-Tree"}, m, 2.0).ok());
  ASSERT_EQ(repo.size(), 1u);
  const nfp::MeasuredProduct& p = repo.products()[0];
  // Features come out sorted in the signature.
  EXPECT_EQ(p.Signature(), "B+-Tree,Get,Put");
  ASSERT_TRUE(p.values.count(nfp::NfpKind::kThroughput));
  EXPECT_DOUBLE_EQ(p.values.at(nfp::NfpKind::kThroughput), 1000.0 / 2.0);
  ASSERT_TRUE(p.values.count(nfp::NfpKind::kLatency));
  // Weighted mean of 2µs (600 samples) and 4µs (400 samples) = 2.8µs.
  EXPECT_NEAR(p.values.at(nfp::NfpKind::kLatency), 2.8, 1e-9);
}

}  // namespace
}  // namespace fame::obs
