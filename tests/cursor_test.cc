// Cursor conformance suite: the pull-based iteration contract
// (Seek/SeekToFirst/Valid/Next/key/value/status) across all four access
// methods against a std::map oracle, the heap-joining engine cursors of
// both composition styles (runtime Database, compile-time StaticEngine),
// reverse iteration, the leaf-chain Count() fix, and fault-injected IO
// errors surfacing through Cursor::status().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/products.h"
#include "core/sql.h"
#include "index/bplus_tree.h"
#include "index/btree_cursor.h"
#include "index/hash_index.h"
#include "index/keys.h"
#include "index/list_index.h"
#include "index/queue_am.h"
#include "obs/obs.h"
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif
#include "osal/allocator.h"
#include "osal/env.h"
#include "osal/fault_env.h"
#include "storage/buffer.h"
#include "storage/buffer_concurrent.h"
#include "storage/pagefile.h"
#include "storage/replacement.h"

namespace fame {
namespace {

using index::BPlusTree;
using index::Cursor;
using index::HashIndex;
using index::KeyValueIndex;
using index::ListIndex;
using osal::FaultInjectionEnv;
using osal::FaultOp;
using storage::BufferManager;
using storage::PageFile;
using storage::PageFileOptions;

struct Harness {
  std::unique_ptr<osal::Env> owned_env;
  osal::Env* env;
  osal::DynamicAllocator alloc;
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferManager> buffers;

  explicit Harness(uint32_t page_size = 4096, size_t frames = 32,
                   osal::Env* external_env = nullptr) {
    if (external_env == nullptr) {
      owned_env = osal::NewMemEnv(0);
      env = owned_env.get();
    } else {
      env = external_env;
    }
    PageFileOptions opts;
    opts.page_size = page_size;
    auto pf = PageFile::Open(env, "db", opts);
    assert(pf.ok());
    file = std::move(*pf);
    auto bm = BufferManager::Create(file.get(), frames, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    assert(bm.ok());
    buffers = std::move(*bm);
  }
};

using Entries = std::vector<std::pair<std::string, uint64_t>>;

/// Pulls every remaining (key, value) pair off an already-sought cursor.
Entries Drain(Cursor* c) {
  Entries out;
  for (; c->Valid(); c->Next()) {
    out.emplace_back(c->key().ToString(), c->value());
  }
  EXPECT_TRUE(c->status().ok()) << c->status().ToString();
  return out;
}

Entries OracleTail(const std::map<std::string, uint64_t>& oracle,
                   const std::string& lo) {
  Entries out;
  for (auto it = oracle.lower_bound(lo); it != oracle.end(); ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

/// The conformance checks shared by every KeyValueIndex access method.
/// Ordered AMs must drain in key order; unordered ones must drain the same
/// multiset (Seek acts as a >= filter, not a positioning operation).
void CheckConformance(KeyValueIndex* am,
                      const std::map<std::string, uint64_t>& oracle) {
  const bool ordered = am->ordered();
  auto normalize = [&](Entries e) {
    if (!ordered) std::sort(e.begin(), e.end());
    return e;
  };

  // Full iteration.
  auto cur_or = am->NewCursor();
  ASSERT_TRUE(cur_or.ok()) << cur_or.status().ToString();
  std::unique_ptr<Cursor> c = std::move(cur_or).value();
  c->SeekToFirst();
  EXPECT_EQ(normalize(Drain(c.get())), OracleTail(oracle, ""));

  // Seek to a present key, a missing key, and past everything.
  std::vector<std::string> targets;
  if (!oracle.empty()) {
    targets.push_back(oracle.begin()->first);                 // smallest
    targets.push_back(std::next(oracle.begin(),
                                static_cast<long>(oracle.size() / 2))
                          ->first);                           // median
  }
  targets.push_back("mmm-not-a-key");                         // missing
  targets.push_back("\xff\xff\xff");                          // past the end
  for (const std::string& t : targets) {
    c->Seek(Slice(t));
    EXPECT_EQ(normalize(Drain(c.get())), OracleTail(oracle, t))
        << am->name() << " Seek(" << t << ")";
  }

  // A drained cursor stays invalid and OK.
  EXPECT_FALSE(c->Valid());
  EXPECT_TRUE(c->status().ok());
}

std::map<std::string, uint64_t> FillRandom(KeyValueIndex* am, int n,
                                           uint64_t seed) {
  Random rnd(seed);
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < n; ++i) {
    std::string key = rnd.NextString(1 + rnd.Uniform(24));
    uint64_t value = rnd.Next();
    EXPECT_TRUE(am->Insert(Slice(key), value).ok());
    oracle[key] = value;
  }
  return oracle;
}

// --------------------------------------------------- per-AM conformance

TEST(CursorConformanceTest, BtreeMatchesOracle) {
  Harness h(512);  // small pages force a multi-level tree
  auto am = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(am.ok());
  auto oracle = FillRandom(am->get(), 500, 1);
  CheckConformance(am->get(), oracle);

  // Mutation then re-Seek: the cursor contract after writes.
  ASSERT_TRUE((*am)->Insert("zzz-new", 7).ok());
  ASSERT_TRUE((*am)->Remove(oracle.begin()->first).ok());
  oracle["zzz-new"] = 7;
  oracle.erase(oracle.begin());
  CheckConformance(am->get(), oracle);
}

TEST(CursorConformanceTest, ListMatchesOracle) {
  Harness h;
  auto am = ListIndex::Open(h.buffers.get(), "t");
  ASSERT_TRUE(am.ok());
  auto oracle = FillRandom(am->get(), 300, 2);
  CheckConformance(am->get(), oracle);

  ASSERT_TRUE((*am)->Insert("aaa-new", 9).ok());
  ASSERT_TRUE((*am)->Remove(oracle.rbegin()->first).ok());
  oracle["aaa-new"] = 9;
  oracle.erase(std::prev(oracle.end()));
  CheckConformance(am->get(), oracle);
}

TEST(CursorConformanceTest, HashMatchesOracle) {
  Harness h;
  auto am = HashIndex::Open(h.buffers.get(), "t", 16);
  ASSERT_TRUE(am.ok());
  auto oracle = FillRandom(am->get(), 300, 3);
  CheckConformance(am->get(), oracle);

  ASSERT_TRUE((*am)->Insert("new-key", 11).ok());
  ASSERT_TRUE((*am)->Remove(oracle.begin()->first).ok());
  oracle["new-key"] = 11;
  oracle.erase(oracle.begin());
  CheckConformance(am->get(), oracle);
}

TEST(CursorConformanceTest, EmptyIndexesYieldNothing) {
  Harness h;
  auto tree = BPlusTree::Open(h.buffers.get(), "b");
  auto list = ListIndex::Open(h.buffers.get(), "l");
  auto hash = HashIndex::Open(h.buffers.get(), "h", 8);
  ASSERT_TRUE(tree.ok() && list.ok() && hash.ok());
  for (KeyValueIndex* am :
       {static_cast<KeyValueIndex*>(tree->get()),
        static_cast<KeyValueIndex*>(list->get()),
        static_cast<KeyValueIndex*>(hash->get())}) {
    CheckConformance(am, {});
  }
}

TEST(CursorConformanceTest, QueueCursorIteratesLiveWindow) {
  Harness h(512);
  auto q = index::QueueAM::Open(h.buffers.get(), "q", 16);
  ASSERT_TRUE(q.ok());
  std::string cell(16, 'x');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*q)->Enqueue(Slice(cell)).ok());
  }
  std::string tmp;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE((*q)->Dequeue(&tmp).ok());

  auto cur_or = (*q)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  std::unique_ptr<Cursor> c = std::move(cur_or).value();

  // Forward: exactly the live window [50, 200) in recno order.
  c->SeekToFirst();
  Entries fwd = Drain(c.get());
  ASSERT_EQ(fwd.size(), 150u);
  for (size_t i = 0; i < fwd.size(); ++i) {
    EXPECT_EQ(fwd[i].second, 50 + i);
    EXPECT_EQ(fwd[i].first, index::EncodeU64Key(50 + i));
  }

  // Seek inside, below, and past the window.
  c->Seek(Slice(index::EncodeU64Key(120)));
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->value(), 120u);
  c->Seek(Slice(index::EncodeU64Key(3)));  // dequeued: clamps to head
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->value(), 50u);
  c->Seek(Slice(index::EncodeU64Key(999)));
  EXPECT_FALSE(c->Valid());
  EXPECT_TRUE(c->status().ok());

  // Reverse: the queue supports it; tail-first order.
  ASSERT_TRUE(c->SupportsReverse());
  c->SeekToLast();
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->value(), 199u);
  c->Prev();
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->value(), 198u);
}

// --------------------------------------------------- Count() regression

TEST(CursorConformanceTest, BtreeCountTracksOracleThroughSplitsAndMerges) {
  Harness h(512, 64);  // splits early and often
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  Random rnd(7);
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < 2000; ++i) {
    std::string key = rnd.NextString(1 + rnd.Uniform(16));
    ASSERT_TRUE((*tree)->Insert(Slice(key), i).ok());
    oracle[key] = i;
    if (i % 500 == 0) {
      auto n = (*tree)->Count();
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, oracle.size());
    }
  }
  EXPECT_GT(*(*tree)->Height(), 1u);  // the tree actually split
  EXPECT_EQ(*(*tree)->Count(), oracle.size());

  // Remove until merges happen; Count must track the oracle exactly.
  int removed = 0;
  while (oracle.size() > 100) {
    auto it = oracle.begin();
    std::advance(it, static_cast<long>(rnd.Uniform(oracle.size())));
    ASSERT_TRUE((*tree)->Remove(Slice(it->first)).ok());
    oracle.erase(it);
    if (++removed % 400 == 0) {
      EXPECT_EQ(*(*tree)->Count(), oracle.size());
    }
  }
  EXPECT_EQ(*(*tree)->Count(), oracle.size());
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
}

// --------------------------------------------------- reverse iteration

TEST(CursorConformanceTest, BtreeReverseIterationMatchesOracle) {
  Harness h(512);  // many leaves: Prev crosses leaf boundaries constantly
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  auto oracle = FillRandom(tree->get(), 600, 11);

  // Delete a third so inner separators no longer match live keys — the
  // backtracking descent in Prev must still find predecessors.
  Random rnd(12);
  while (oracle.size() > 400) {
    auto it = oracle.begin();
    std::advance(it, static_cast<long>(rnd.Uniform(oracle.size())));
    ASSERT_TRUE((*tree)->Remove(Slice(it->first)).ok());
    oracle.erase(it);
  }

  auto cur_or = (*tree)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  std::unique_ptr<Cursor> c = std::move(cur_or).value();
  ASSERT_TRUE(c->SupportsReverse());

  Entries rev;
  for (c->SeekToLast(); c->Valid(); c->Prev()) {
    rev.emplace_back(c->key().ToString(), c->value());
  }
  EXPECT_TRUE(c->status().ok());
  Entries expect;
  for (auto it = oracle.rbegin(); it != oracle.rend(); ++it) {
    expect.emplace_back(it->first, it->second);
  }
  EXPECT_EQ(rev, expect);

  // Seek then Prev: predecessor of an arbitrary position.
  auto mid = std::next(oracle.begin(), static_cast<long>(oracle.size() / 2));
  c->Seek(Slice(mid->first));
  ASSERT_TRUE(c->Valid());
  c->Prev();
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->key().ToString(), std::prev(mid)->first);

  // Prev before the first key invalidates cleanly.
  c->SeekToFirst();
  ASSERT_TRUE(c->Valid());
  c->Prev();
  EXPECT_FALSE(c->Valid());
  EXPECT_TRUE(c->status().ok());

  // Forward-only cursors refuse reverse ops without error states.
  Harness h2;
  auto list = ListIndex::Open(h2.buffers.get(), "l");
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE((*list)->Insert("a", 1).ok());
  auto lc_or = (*list)->NewCursor();
  ASSERT_TRUE(lc_or.ok());
  std::unique_ptr<Cursor> lc = std::move(lc_or).value();
  EXPECT_FALSE(lc->SupportsReverse());
  lc->SeekToLast();
  EXPECT_FALSE(lc->Valid());
  EXPECT_TRUE(lc->status().ok());
}

// --------------------------------------------------- fault injection

TEST(CursorConformanceTest, BtreeCursorSurfacesReadErrors) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  // 4 frames + 512-byte pages: a 2000-key tree cannot stay cached, so the
  // scan must read from the medium and hit the injected failure.
  Harness h(512, 4, &fenv);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  auto oracle = FillRandom(tree->get(), 2000, 21);
  ASSERT_TRUE(h.buffers->Checkpoint().ok());

  fenv.FailFrom(FaultOp::kRead, fenv.op_count(FaultOp::kRead),
                Status::IOError("injected read fault"));
  auto cur_or = (*tree)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  std::unique_ptr<Cursor> c = std::move(cur_or).value();
  size_t seen = 0;
  for (c->SeekToFirst(); c->Valid(); c->Next()) ++seen;
  EXPECT_EQ(c->status().code(), StatusCode::kIOError)
      << c->status().ToString();
  EXPECT_LT(seen, oracle.size());

  // Clearing the fault and re-seeking recovers the cursor (status is
  // sticky only until the next Seek).
  fenv.ClearFaults();
  c->SeekToFirst();
  EXPECT_TRUE(c->status().ok());
  EXPECT_EQ(Drain(c.get()).size(), oracle.size());
}

#if FAME_OBS_TRACING_ENABLED
// Regression: a mid-scan IO error must leave an error-tagged page-read
// span in the trace ring, so a truncated scan is attributable to the
// failing page instead of silently returning fewer rows.
TEST(CursorConformanceTest, MidScanReadErrorLeavesErrorSpan) {
  obs::Trace::Reset();
  obs::Trace::Enable(true);
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  Harness h(512, 4, &fenv);
  auto tree = BPlusTree::Open(h.buffers.get(), "t");
  ASSERT_TRUE(tree.ok());
  auto oracle = FillRandom(tree->get(), 2000, 23);
  ASSERT_TRUE(h.buffers->Checkpoint().ok());

  // Healthy scan first: page-read spans recorded, none tagged as errors.
  {
    auto cur_or = (*tree)->NewCursor();
    ASSERT_TRUE(cur_or.ok());
    std::unique_ptr<Cursor> c = std::move(cur_or).value();
    for (c->SeekToFirst(); c->Valid(); c->Next()) {
    }
    ASSERT_TRUE(c->status().ok());
  }
  auto events = obs::Trace::Collect(0);
  ASSERT_FALSE(events.empty());
  EXPECT_FALSE(obs::HasErrorSpan(events, obs::SpanKind::kPageRead));

  // Now fail reads mid-scan: the failing read must surface as an
  // error-tagged kPageRead span.
  obs::Trace::Reset();
  fenv.FailFrom(FaultOp::kRead, fenv.op_count(FaultOp::kRead),
                Status::IOError("injected read fault"));
  auto cur_or = (*tree)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  std::unique_ptr<Cursor> c = std::move(cur_or).value();
  for (c->SeekToFirst(); c->Valid(); c->Next()) {
  }
  EXPECT_EQ(c->status().code(), StatusCode::kIOError);
  events = obs::Trace::Collect(0);
  EXPECT_TRUE(obs::HasErrorSpan(events, obs::SpanKind::kPageRead));
  obs::Trace::Enable(false);
  obs::Trace::Reset();
  fenv.ClearFaults();
}
#endif  // FAME_OBS_TRACING_ENABLED

TEST(CursorConformanceTest, ChainCursorSurfacesReadErrors) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  Harness h(512, 4, &fenv);
  auto list = ListIndex::Open(h.buffers.get(), "l");
  ASSERT_TRUE(list.ok());
  FillRandom(list->get(), 1000, 22);
  ASSERT_TRUE(h.buffers->Checkpoint().ok());

  fenv.FailFrom(FaultOp::kRead, fenv.op_count(FaultOp::kRead),
                Status::IOError("injected read fault"));
  auto cur_or = (*list)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  std::unique_ptr<Cursor> c = std::move(cur_or).value();
  for (c->SeekToFirst(); c->Valid(); c->Next()) {
  }
  EXPECT_EQ(c->status().code(), StatusCode::kIOError)
      << c->status().ToString();
}

// --------------------------------------------------- engine cursors

core::DbOptions MemDbOptions(std::vector<std::string> features,
                             osal::Env* env) {
  core::DbOptions opts;
  opts.features = std::move(features);
  opts.path = "db";
  opts.env = env;
  return opts;
}

TEST(EngineCursorTest, DatabaseBtreeProductJoinsHeapLazily) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(MemDbOptions(
      {"Linux", "B+-Tree", "Int-Types", "String-Types"}, env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::map<std::string, std::string> oracle;
  Random rnd(31);
  for (int i = 0; i < 200; ++i) {
    std::string k = rnd.NextString(1 + rnd.Uniform(12));
    std::string v = rnd.NextString(rnd.Uniform(64));
    ASSERT_TRUE((*db)->Put(Slice(k), Slice(v)).ok());
    oracle[k] = v;
  }

  auto cur_or = (*db)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  core::EngineCursor cur = std::move(cur_or).value();
  auto it = oracle.begin();
  for (cur.SeekToFirst(); cur.Valid(); cur.Next(), ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(cur.key().ToString(), it->first);
    EXPECT_EQ(cur.value().ToString(), it->second);
  }
  EXPECT_EQ(it, oracle.end());
  EXPECT_TRUE(cur.status().ok());

  // Early termination: pull k entries and abandon the cursor.
  cur.SeekToFirst();
  for (int k = 0; k < 5 && cur.Valid(); ++k) cur.Next();
  EXPECT_TRUE(cur.status().ok());
}

TEST(EngineCursorTest, DatabaseListProductFiltersSeek) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(
      MemDbOptions({"Linux", "List", "Int-Types"}, env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 100; ++i) {
    std::string k = "k" + std::to_string(i);
    ASSERT_TRUE((*db)->Put(Slice(k), Slice("v" + std::to_string(i))).ok());
    oracle[k] = "v" + std::to_string(i);
  }
  auto cur_or = (*db)->NewCursor();
  ASSERT_TRUE(cur_or.ok());
  core::EngineCursor cur = std::move(cur_or).value();
  std::map<std::string, std::string> got;
  for (cur.Seek(Slice("k5")); cur.Valid(); cur.Next()) {
    got[cur.key().ToString()] = cur.value().ToString();
  }
  EXPECT_TRUE(cur.status().ok());
  std::map<std::string, std::string> expect(oracle.lower_bound("k5"),
                                            oracle.end());
  EXPECT_EQ(got, expect);
}

TEST(EngineCursorTest, StaticEngineCursorMatchesDatabase) {
  auto env = osal::NewMemEnv(0);
  core::Workstation eng;
  ASSERT_TRUE(eng.Open(env.get(), "static-db").ok());
  std::map<std::string, std::string> oracle;
  Random rnd(41);
  for (int i = 0; i < 200; ++i) {
    std::string k = rnd.NextString(1 + rnd.Uniform(12));
    std::string v = rnd.NextString(rnd.Uniform(48));
    ASSERT_TRUE(eng.Put(Slice(k), Slice(v)).ok());
    oracle[k] = v;
  }
  auto cur_or = eng.NewCursor();
  ASSERT_TRUE(cur_or.ok());
  core::EngineCursor cur = std::move(cur_or).value();
  auto it = oracle.begin();
  for (cur.SeekToFirst(); cur.Valid(); cur.Next(), ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(cur.key().ToString(), it->first);
    EXPECT_EQ(cur.value().ToString(), it->second);
  }
  EXPECT_EQ(it, oracle.end());
  EXPECT_TRUE(cur.status().ok());

  // The visitor entry points are adapters over the same cursor.
  size_t visited = 0;
  ASSERT_TRUE(eng.Scan([&](const Slice&, const Slice&) {
                   ++visited;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(visited, oracle.size());
}

TEST(EngineCursorTest, ReverseScanFeatureGating) {
  auto env = osal::NewMemEnv(0);
  // Without the feature: NotSupported, even on a B+-tree product.
  auto plain = core::Database::Open(MemDbOptions(
      {"Linux", "B+-Tree", "Int-Types", "String-Types"}, env.get()));
  ASSERT_TRUE(plain.ok());
  Status s = (*plain)->ReverseScan(
      Slice(), Slice(), [](const Slice&, const Slice&) { return true; });
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);

  // With the feature: descending order over [lo, hi).
  auto env2 = osal::NewMemEnv(0);
  auto db = core::Database::Open(MemDbOptions(
      {"Linux", "B+-Tree", "ReverseScan", "Int-Types", "String-Types"},
      env2.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 50; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE((*db)->Put(key, "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE((*db)
                  ->ReverseScan("k010", "k020",
                                [&](const Slice& k, const Slice&) {
                                  keys.push_back(k.ToString());
                                  return true;
                                })
                  .ok());
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), "k019");
  EXPECT_EQ(keys.back(), "k010");
  EXPECT_TRUE(std::is_sorted(keys.rbegin(), keys.rend()));

  // Unbounded hi starts at the last key.
  keys.clear();
  ASSERT_TRUE((*db)
                  ->ReverseScan(Slice(), Slice(),
                                [&](const Slice& k, const Slice&) {
                                  keys.push_back(k.ToString());
                                  return keys.size() < 3;
                                })
                  .ok());
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "k049");
  EXPECT_EQ(keys[2], "k047");
}

TEST(EngineCursorTest, StaticReverseScanProduct) {
  auto env = osal::NewMemEnv(0);
  core::Analytics eng;
  ASSERT_TRUE(eng.Open(env.get(), "an-db").ok());
  for (int i = 0; i < 30; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(eng.Put(key, "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(eng.ReverseScan(Slice(), Slice(),
                              [&](const Slice& k, const Slice&) {
                                keys.push_back(k.ToString());
                                return true;
                              })
                  .ok());
  ASSERT_EQ(keys.size(), 30u);
  EXPECT_EQ(keys.front(), "k029");
  EXPECT_EQ(keys.back(), "k000");
}

// --------------------------------------------------- concurrent readers

// Read-only cursors over the multi-threaded pool instantiation: the tree is
// built single-threaded, checkpointed, then reopened under
// ConcurrentBufferManager and scanned from several threads at once. This is
// the test the TSan CI job exercises for the cursor layer.
TEST(EngineCursorTest, ConcurrentReadersShareBtreeCursorChain) {
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  std::map<std::string, uint64_t> oracle;
  {
    PageFileOptions opts;
    opts.page_size = 512;
    auto pf = PageFile::Open(env.get(), "db", opts);
    ASSERT_TRUE(pf.ok());
    auto bm = BufferManager::Create(pf->get(), 32, &alloc,
                                    storage::MakeReplacementPolicy("lru"));
    ASSERT_TRUE(bm.ok());
    auto tree = BPlusTree::Open(bm->get(), "t");
    ASSERT_TRUE(tree.ok());
    Random rnd(51);
    for (int i = 0; i < 800; ++i) {
      std::string key = rnd.NextString(1 + rnd.Uniform(16));
      ASSERT_TRUE((*tree)->Insert(Slice(key), i).ok());
      oracle[key] = i;
    }
    ASSERT_TRUE((*bm)->Checkpoint().ok());
  }

  PageFileOptions opts;
  opts.page_size = 512;
  auto pf = PageFile::Open(env.get(), "db", opts);
  ASSERT_TRUE(pf.ok());
  auto bm = storage::ConcurrentBufferManager::Create(
      pf->get(), 32, &alloc, storage::MakeReplacementPolicy("lru"));
  ASSERT_TRUE(bm.ok());
  auto root = (*pf)->GetRoot("btree:t");
  ASSERT_TRUE(root.ok());

  std::vector<std::thread> threads;
  std::vector<size_t> counts(4, 0);
  std::vector<int> ok(4, 0);  // not vector<bool>: bit-packing would race
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      index::BasicBtreeCursor<storage::MultiThreaded> cur(bm->get(), *root);
      size_t n = 0;
      std::string prev;
      for (cur.SeekToFirst(); cur.Valid(); cur.Next()) {
        std::string k = cur.key().ToString();
        if (!prev.empty() && !(prev < k)) return;  // order violated
        prev = std::move(k);
        ++n;
      }
      counts[t] = n;
      ok[t] = cur.status().ok() ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t;
    EXPECT_EQ(counts[t], oracle.size()) << "thread " << t;
  }
}

// ---------------------------------------------- snapshot-stability cells

// The MVCC twin of the conformance suite above: a SnapshotCursor opened at
// some timestamp must keep resolving to exactly the frozen view — the same
// Seek/Next/Prev contract, checked against the oracle captured at open
// time while writers overwrite, delete, and insert underneath the cursor.

core::DbOptions MvccCursorOptions(osal::Env* env) {
  return MemDbOptions({"Linux", "B+-Tree", "Transaction", "Update",
                       "BTree-Update", "Remove", "BTree-Remove", "Mvcc"},
                      env);
}

Status TxPut(core::Database* db, const std::string& k, const std::string& v) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Status s = (*txn)->Put("core", k, v);
  if (!s.ok()) {
    (void)db->Abort(*txn);
    return s;
  }
  return db->Commit(*txn);
}

TEST(SnapshotCursorConformanceTest, DatabaseBtreeFrozenViewMatchesOracle) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(MvccCursorOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::map<std::string, std::string> oracle;
  Random rnd(61);
  for (int i = 0; i < 120; ++i) {
    std::string k = rnd.NextString(1 + rnd.Uniform(10));
    std::string v = rnd.NextString(rnd.Uniform(32));
    ASSERT_TRUE(TxPut(db->get(), k, v).ok());
    oracle[k] = v;
  }

  auto snap = (*db)->NewSnapshotCursor();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Mutate heavily after the open: overwrite everything, delete a third,
  // insert fresh keys the snapshot must never surface.
  int n = 0;
  for (const auto& [k, v] : oracle) {
    if (++n % 3 == 0) {
      ASSERT_TRUE((*db)->Remove(Slice(k)).ok());
    } else {
      ASSERT_TRUE(TxPut(db->get(), k, "rewritten").ok());
    }
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(TxPut(db->get(), "new-" + std::to_string(i), "x").ok());
  }

  // Full forward scan: exactly the frozen view.
  std::map<std::string, std::string> seen;
  for (snap->SeekToFirst(); snap->Valid(); snap->Next()) {
    seen[snap->key().ToString()] = snap->value().ToString();
  }
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  EXPECT_EQ(seen, oracle);

  // Seek to the middle: the frozen suffix from lower_bound on.
  auto mid = std::next(oracle.begin(), oracle.size() / 2);
  seen.clear();
  for (snap->Seek(Slice(mid->first)); snap->Valid(); snap->Next()) {
    seen[snap->key().ToString()] = snap->value().ToString();
  }
  ASSERT_TRUE(snap->status().ok());
  EXPECT_EQ(seen, (std::map<std::string, std::string>(mid, oracle.end())));

  // Reverse iteration over the same frozen view.
  if (snap->SupportsReverse()) {
    std::vector<std::string> keys;
    for (snap->SeekToLast(); snap->Valid(); snap->Prev()) {
      keys.push_back(snap->key().ToString());
    }
    ASSERT_TRUE(snap->status().ok());
    ASSERT_EQ(keys.size(), oracle.size());
    EXPECT_TRUE(std::is_sorted(keys.rbegin(), keys.rend()));
    EXPECT_EQ(keys.front(), oracle.rbegin()->first);
  }

  // A cursor opened now conforms to the post-mutation oracle instead.
  std::map<std::string, std::string> oracle2;
  n = 0;
  for (const auto& [k, v] : oracle) {
    if (++n % 3 != 0) oracle2[k] = "rewritten";
  }
  for (int i = 0; i < 40; ++i) oracle2["new-" + std::to_string(i)] = "x";
  auto live = (*db)->NewSnapshotCursor();
  ASSERT_TRUE(live.ok());
  seen.clear();
  for (live->SeekToFirst(); live->Valid(); live->Next()) {
    seen[live->key().ToString()] = live->value().ToString();
  }
  ASSERT_TRUE(live->status().ok());
  EXPECT_EQ(seen, oracle2);
}

TEST(SnapshotCursorConformanceTest, StaticVersionedStoreFrozenSeek) {
  auto env = osal::NewMemEnv(0);
  core::VersionedStore db;
  ASSERT_TRUE(db.Open(env.get(), "vs-cursor").ok());
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 60; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", key, "old").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
    oracle[key] = "old";
  }

  auto snap = db.NewSnapshotCursor();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  for (int i = 0; i < 60; i += 2) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(db.Remove(Slice(key)).ok());
  }
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("core", "k999", "late").ok());
  ASSERT_TRUE(db.Commit(*txn).ok());

  std::map<std::string, std::string> seen;
  for (snap->Seek(Slice("k020")); snap->Valid(); snap->Next()) {
    seen[snap->key().ToString()] = snap->value().ToString();
  }
  ASSERT_TRUE(snap->status().ok());
  EXPECT_EQ(seen,
            (std::map<std::string, std::string>(oracle.lower_bound("k020"),
                                                oracle.end())));
}

// Static MVCC + Concurrency product: snapshot cursors scanned from several
// threads while a writer commits. Two passes of one cursor must agree —
// the cell the TSan CI job exercises for the snapshot-cursor layer.
struct CursorMvccCfg {
  using IndexTag = core::BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr bool kConcurrency = true;
  static constexpr bool kMvcc = true;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 4096;
  static constexpr size_t kBufferFrames = 128;
  static constexpr size_t kStaticPoolBytes = 0;
};

TEST(SnapshotCursorConformanceTest, ConcurrentSnapshotScansStayFrozen) {
  auto env = osal::NewMemEnv(0);
  core::StaticEngine<CursorMvccCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "mt-cursor").ok());
  constexpr int kKeys = 16;
  for (int i = 0; i < kKeys; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "k" + std::to_string(i), "0").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    int gen = 1;
    while (!stop.load()) {
      for (int i = 0; i < kKeys; ++i) {
        auto txn = db.Begin();
        if (!txn.ok()) { ++errors; return; }
        if (!(*txn)->Put("core", "k" + std::to_string(i),
                         std::to_string(gen))
                 .ok() ||
            !db.Commit(*txn).ok()) {
          ++errors;
          return;
        }
      }
      ++gen;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 20; ++iter) {
        auto snap = db.NewSnapshotCursor();
        if (!snap.ok()) { ++errors; return; }
        std::map<std::string, std::string> first, second;
        for (int pass = 0; pass < 2; ++pass) {
          auto& out = pass == 0 ? first : second;
          for (snap->SeekToFirst(); snap->Valid(); snap->Next()) {
            out[snap->key().ToString()] = snap->value().ToString();
          }
          if (!snap->status().ok()) { ++errors; return; }
        }
        // A snapshot cursor is repeatable: the second pass sees byte-for-
        // byte what the first saw, no matter how far the writer advanced.
        if (first != second || first.size() != kKeys) { ++errors; return; }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_EQ(errors.load(), 0);
}


// --------------------------------------------------- differential reads

// Every read path of the engine shell against one std::map oracle after
// puts, overwrites and removes: Scan, RangeScan and ReverseScan (open and
// bounded hi) on four products — plain and Mvcc, each bound at runtime
// (Database) and at compile time (StaticEngine) — plus, on the runtime
// products, ScanTable and SQL's index-range plan over typed rows. The Mvcc
// products walk SnapshotCursors through the same loops, so removed keys
// are tombstoned chains the cursor must skip in both directions.

using KvOracle = std::map<std::string, std::string>;
using Kvs = std::vector<std::pair<std::string, std::string>>;

std::string DiffKey(uint64_t i) {
  char key[8];
  std::snprintf(key, sizeof(key), "k%03d", static_cast<int>(i));
  return key;
}

/// Puts fresh keys, overwrites live ones and removes about a third of the
/// keys it picks that exist, mirroring each op into `oracle`.
template <typename Engine>
void MutateWithOracle(Engine& db, KvOracle* oracle, Random* rnd, int ops) {
  for (int i = 0; i < ops; ++i) {
    const std::string k = DiffKey(rnd->Uniform(300));
    auto it = oracle->find(k);
    if (it != oracle->end() && rnd->OneIn(3)) {
      ASSERT_TRUE(db.Remove(k).ok());
      oracle->erase(it);
    } else {
      const std::string v = rnd->NextString(rnd->Uniform(40));
      ASSERT_TRUE(db.Put(k, v).ok());
      (*oracle)[k] = v;
    }
  }
}

template <typename Engine>
void ExpectReadsMatch(Engine& db, const KvOracle& oracle, Random* rnd) {
  Kvs got;
  const core::KvVisitor collect = [&got](const Slice& k, const Slice& v) {
    got.emplace_back(k.ToString(), v.ToString());
    return true;
  };
  ASSERT_TRUE(db.Scan(collect).ok());
  EXPECT_EQ(got, Kvs(oracle.begin(), oracle.end()));
  for (int probe = 0; probe < 24; ++probe) {
    // Bounds drawn past both ends of the key space, and an open lo.
    std::string lo = probe == 0 ? "" : DiffKey(rnd->Uniform(320));
    std::string hi = DiffKey(rnd->Uniform(320));
    if (hi < lo) std::swap(lo, hi);
    const Kvs want(oracle.lower_bound(lo), oracle.lower_bound(hi));
    got.clear();
    ASSERT_TRUE(db.RangeScan(lo, hi, collect).ok());
    EXPECT_EQ(got, want) << "RangeScan [" << lo << ", " << hi << ")";
    got.clear();
    ASSERT_TRUE(db.ReverseScan(lo, hi, collect).ok());
    EXPECT_EQ(got, Kvs(want.rbegin(), want.rend()))
        << "ReverseScan [" << lo << ", " << hi << ")";
    got.clear();
    ASSERT_TRUE(db.ReverseScan(lo, Slice(), collect).ok());
    EXPECT_EQ(got, Kvs(oracle.rbegin(), std::make_reverse_iterator(
                                            oracle.lower_bound(lo))))
        << "ReverseScan [" << lo << ", end)";
  }
}

template <typename Engine>
void RunKvDifferential(Engine& db, bool mvcc) {
  KvOracle oracle;
  Random rnd(mvcc ? 83 : 71);
  for (int round = 0; round < 4; ++round) {
    ASSERT_NO_FATAL_FAILURE(MutateWithOracle(db, &oracle, &rnd, 150));
    ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, oracle, &rnd));
  }
  if constexpr (requires(Engine& e) { e.MvccGc(); }) {
    if (mvcc) {
      // Pruned chains and swept tombstones leave the visible state as is.
      ASSERT_TRUE(db.MvccGc().ok());
      ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, oracle, &rnd));
    }
  }
}

/// Typed rows on a fresh runtime product: ScanTable and SQL's index-range
/// plan (both bounds directions, with and without LIMIT) against an
/// oracle keyed by the primary key.
void RunRowDifferential(const std::vector<std::string>& features) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(MemDbOptions(features, env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  core::SqlEngine* sql = (*db)->sql();
  ASSERT_NE(sql, nullptr);
  // SQL upper-cases identifiers: the record API names the table "T".
  ASSERT_TRUE(sql->Execute("CREATE TABLE t (id INT, v TEXT)").ok());
  std::map<int64_t, std::string> oracle;
  Random rnd(97);
  for (int i = 0; i < 300; ++i) {
    const auto id = static_cast<int64_t>(rnd.Uniform(120));
    auto it = oracle.find(id);
    if (it != oracle.end() && rnd.OneIn(3)) {
      ASSERT_TRUE((*db)->DeleteRow("T", core::Value::Int(id)).ok());
      oracle.erase(it);
    } else {
      const std::string v = rnd.NextString(1 + rnd.Uniform(20));
      ASSERT_TRUE((*db)
                      ->InsertRow("T", {core::Value::Int(id),
                                        core::Value::String(v)})
                      .ok());
      oracle[id] = v;
    }
  }
  using Rows = std::vector<std::pair<int64_t, std::string>>;
  Rows got;
  ASSERT_TRUE((*db)
                  ->ScanTable("T",
                              [&](const core::Row& r) {
                                got.emplace_back(r[0].AsInt(),
                                                 r[1].AsString());
                                return true;
                              })
                  .ok());
  EXPECT_EQ(got, Rows(oracle.begin(), oracle.end()));
  for (int64_t bound : {0, 1, 17, 55, 99, 119, 150}) {
    for (const char* op : {">=", ">", "<", "<="}) {
      for (int limit : {0, 3}) {
        std::string q = "SELECT * FROM t WHERE id " + std::string(op) + " " +
                        std::to_string(bound);
        if (limit > 0) q += " LIMIT " + std::to_string(limit);
        auto rs = sql->Execute(q);
        ASSERT_TRUE(rs.ok()) << q << ": " << rs.status().ToString();
        EXPECT_EQ(rs->plan, "index-range") << q;
        Rows want;
        for (const auto& [id, v] : oracle) {
          const bool in = op[0] == '>' ? (op[1] ? id >= bound : id > bound)
                                       : (op[1] ? id <= bound : id < bound);
          if (in) want.emplace_back(id, v);
        }
        if (limit > 0 && want.size() > static_cast<size_t>(limit)) {
          want.resize(limit);
        }
        got.clear();
        for (const core::Row& r : rs->rows) {
          got.emplace_back(r[0].AsInt(), r[1].AsString());
        }
        EXPECT_EQ(got, want) << q;
      }
    }
  }
}

const std::vector<std::string> kDiffPlainFeatures = {
    "Linux", "B+-Tree", "Put", "Remove", "BTree-Remove", "Update",
    "BTree-Update", "ReverseScan", "Int-Types", "String-Types", "SQL-Engine",
    "Optimizer"};

std::vector<std::string> DiffMvccFeatures() {
  std::vector<std::string> f = kDiffPlainFeatures;
  f.push_back("Transaction");
  f.push_back("Mvcc");
  return f;
}

struct VersionedAnalyticsCfg : core::VersionedStoreCfg {
  static constexpr bool kReverseScan = true;
};

TEST(EngineReadDifferentialTest, RuntimePlainMatchesOracle) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(MemDbOptions(kDiffPlainFeatures, env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_FALSE((*db)->mvcc());
  RunKvDifferential(**db, /*mvcc=*/false);
  RunRowDifferential(kDiffPlainFeatures);
}

TEST(EngineReadDifferentialTest, RuntimeMvccMatchesOracle) {
  auto env = osal::NewMemEnv(0);
  auto db = core::Database::Open(MemDbOptions(DiffMvccFeatures(), env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->mvcc());
  RunKvDifferential(**db, /*mvcc=*/true);
  RunRowDifferential(DiffMvccFeatures());
}

TEST(EngineReadDifferentialTest, StaticPlainMatchesOracle) {
  auto env = osal::NewMemEnv(0);
  core::Analytics db;
  ASSERT_TRUE(db.Open(env.get(), "diff-plain").ok());
  RunKvDifferential(db, /*mvcc=*/false);
}

TEST(EngineReadDifferentialTest, StaticMvccMatchesOracle) {
  auto env = osal::NewMemEnv(0);
  core::StaticEngine<VersionedAnalyticsCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "diff-mvcc").ok());
  RunKvDifferential(db, /*mvcc=*/true);
}

}  // namespace
}  // namespace fame
