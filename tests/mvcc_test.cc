// MVCC feature tests: the version-chain codec (append / visibility /
// pruning), the MvccManager oracle (snapshots, watermark,
// first-committer-wins), snapshot isolation over both composition styles
// (runtime Database, compile-time StaticEngine), watermark GC, clock
// persistence across reopens, and the concurrent-writer contracts the TSan
// CI job exercises: disjoint-key writers commit fully concurrently with a
// conflict rate of zero, same-key racers get exactly one winner per round,
// and snapshot readers never block on writers.
#include <gtest/gtest.h>

#include <barrier>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/products.h"
#include "core/sql.h"
#include "osal/env.h"
#include "tx/mvcc.h"

namespace fame {
namespace {

using core::Database;
using core::DbOptions;
using tx::mvcc::MvccManager;
using tx::mvcc::Version;

// ------------------------------------------------------------ codec

TEST(MvccCodecTest, AppendAndVisibilityWindows) {
  std::string chain;
  EXPECT_EQ(tx::mvcc::AppendVersion(Slice(), 10, false, "v10", 0, &chain), 1u);
  std::string chain2;
  EXPECT_EQ(tx::mvcc::AppendVersion(chain, 20, false, "v20", 0, &chain2), 2u);
  std::string chain3;
  EXPECT_EQ(tx::mvcc::AppendVersion(chain2, 30, false, "v30", 0, &chain3), 3u);

  Version v;
  // Below the first version: nothing visible.
  EXPECT_TRUE(tx::mvcc::VisibleAt(chain3, 9, &v).IsNotFound());
  // Each ts window sees exactly its writer.
  ASSERT_TRUE(tx::mvcc::VisibleAt(chain3, 10, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v10");
  ASSERT_TRUE(tx::mvcc::VisibleAt(chain3, 19, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v10");
  ASSERT_TRUE(tx::mvcc::VisibleAt(chain3, 20, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v20");
  ASSERT_TRUE(tx::mvcc::VisibleAt(chain3, 29, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v20");
  // The open head is visible arbitrarily far into the future.
  ASSERT_TRUE(tx::mvcc::VisibleAt(chain3, 1000, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v30");
  EXPECT_EQ(v.end_ts, 0u);
  EXPECT_EQ(tx::mvcc::HeadTs(chain3), 30u);

  std::vector<Version> all;
  ASSERT_TRUE(tx::mvcc::DecodeChain(chain3, &all).ok());
  ASSERT_EQ(all.size(), 3u);  // newest first
  EXPECT_EQ(all[0].begin_ts, 30u);
  EXPECT_EQ(all[1].begin_ts, 20u);
  EXPECT_EQ(all[1].end_ts, 30u);
  EXPECT_EQ(all[2].begin_ts, 10u);
  EXPECT_EQ(all[2].end_ts, 20u);
}

TEST(MvccCodecTest, TombstoneHidesKeyButKeepsHistory) {
  std::string c1, c2;
  tx::mvcc::AppendVersion(Slice(), 5, false, "alive", 0, &c1);
  tx::mvcc::AppendVersion(c1, 9, true, Slice(), 0, &c2);

  Version v;
  // Before the delete the old value is visible.
  ASSERT_TRUE(tx::mvcc::VisibleAt(c2, 7, &v).ok());
  EXPECT_EQ(v.value.ToString(), "alive");
  // At and after the delete: NotFound, flagged as a tombstone so callers
  // can distinguish "deleted" from "never existed".
  Status s = tx::mvcc::VisibleAt(c2, 9, &v);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_TRUE(v.tombstone);
  EXPECT_EQ(tx::mvcc::HeadTs(c2), 9u);
}

TEST(MvccCodecTest, CorruptChainSurfacesCorruption) {
  std::string chain;
  tx::mvcc::AppendVersion(Slice(), 3, false, "value", 0, &chain);
  // Truncate inside the value: visibility and decode must both refuse.
  Slice truncated(chain.data(), chain.size() - 2);
  Version v;
  EXPECT_TRUE(tx::mvcc::VisibleAt(truncated, 3, &v).IsCorruption());
  std::vector<Version> all;
  EXPECT_TRUE(tx::mvcc::DecodeChain(truncated, &all).IsCorruption());
  EXPECT_EQ(tx::mvcc::HeadTs(Slice("\x01", 1)), 0u);
}

TEST(MvccCodecTest, PruneChainDropsDeadVersions) {
  std::string c;
  for (uint64_t ts : {10u, 20u, 30u}) {
    std::string next;
    tx::mvcc::AppendVersion(c, ts, false, "v" + std::to_string(ts), 0, &next);
    c = std::move(next);
  }
  // Watermark 25: the version closed at 20 (window [10,20)) is dead; the
  // window [20,30) is still visible to a snapshot at 25, and the head
  // stays.
  std::string pruned;
  uint64_t dropped = 0;
  ASSERT_TRUE(tx::mvcc::PruneChain(c, 25, &pruned, &dropped).ok());
  EXPECT_EQ(dropped, 1u);
  std::vector<Version> left;
  ASSERT_TRUE(tx::mvcc::DecodeChain(pruned, &left).ok());
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0].begin_ts, 30u);
  EXPECT_EQ(left[1].begin_ts, 20u);

  // A head tombstone at or below the watermark kills the whole key.
  std::string with_del;
  tx::mvcc::AppendVersion(pruned, 40, true, Slice(), 0, &with_del);
  std::string dead;
  dropped = 0;
  ASSERT_TRUE(tx::mvcc::PruneChain(with_del, 40, &dead, &dropped).ok());
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(dropped, 3u);
  // ...but survives while a snapshot below the tombstone is live.
  std::string kept;
  dropped = 0;
  ASSERT_TRUE(tx::mvcc::PruneChain(with_del, 35, &kept, &dropped).ok());
  EXPECT_FALSE(kept.empty());
}

TEST(MvccCodecTest, AppendIsIdempotentViaHeadTs) {
  // Replay discipline: a strictly newer head makes re-apply a no-op
  // (decided by the caller via HeadTs)...
  std::string chain;
  tx::mvcc::AppendVersion(Slice(), 7, false, "first", 0, &chain);
  EXPECT_EQ(tx::mvcc::HeadTs(chain), 7u);  // caller skips re-apply of ts<7

  // ...while an EQUAL ts replaces the head in place: ops of one
  // transaction share its commit ts, so delete-then-put (or any op
  // sequence) on a key converges on the last op — and replaying the same
  // sequence converges on the same chain.
  std::string base, with_ts9, deleted_ts9, rewritten_ts9;
  tx::mvcc::AppendVersion(chain, 9, false, "v9", 0, &with_ts9);
  tx::mvcc::AppendVersion(with_ts9, 9, true, Slice(), 0, &deleted_ts9);
  EXPECT_EQ(tx::mvcc::AppendVersion(deleted_ts9, 9, false, "v9-final", 0,
                                    &rewritten_ts9),
            2u);  // [9: v9-final][7: first] — no same-ts stacking
  Version v;
  ASSERT_TRUE(tx::mvcc::VisibleAt(rewritten_ts9, 9, &v).ok());
  EXPECT_EQ(v.value.ToString(), "v9-final");
  ASSERT_TRUE(tx::mvcc::VisibleAt(rewritten_ts9, 8, &v).ok());
  EXPECT_EQ(v.value.ToString(), "first");  // predecessor window intact
  EXPECT_TRUE(tx::mvcc::VisibleAt(deleted_ts9, 9, &v).IsNotFound());
  EXPECT_TRUE(v.tombstone);
}

// ------------------------------------------------------------ manager

TEST(MvccManagerTest, SnapshotRegistryDrivesWatermark) {
  MvccManager mgr;
  mgr.SeedClock(100);
  EXPECT_EQ(mgr.ReadTs(), 100u);
  // No snapshots: the watermark rides the clock.
  EXPECT_EQ(mgr.Watermark(), 100u);

  uint64_t s1 = mgr.BeginSnapshot();
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(mgr.AdvanceClock(), 101u);
  uint64_t s2 = mgr.BeginSnapshot();
  EXPECT_EQ(s2, 101u);
  EXPECT_EQ(mgr.Watermark(), 100u);  // oldest active snapshot pins it

  mgr.ReleaseSnapshot(s1);
  EXPECT_EQ(mgr.Watermark(), 101u);
  mgr.ReleaseSnapshot(s2);
  EXPECT_EQ(mgr.Watermark(), 101u);

  // Refcounted: two snapshots at one ts need two releases.
  uint64_t a = mgr.BeginSnapshot();
  uint64_t b = mgr.BeginSnapshot();
  EXPECT_EQ(a, b);
  mgr.AdvanceClock();
  mgr.ReleaseSnapshot(a);
  EXPECT_EQ(mgr.Watermark(), a);
  mgr.ReleaseSnapshot(b);
  EXPECT_EQ(mgr.Watermark(), mgr.ReadTs());
}

TEST(MvccManagerTest, FirstCommitterWins) {
  MvccManager mgr;
  uint64_t t1 = mgr.BeginSnapshot();
  uint64_t t2 = mgr.BeginSnapshot();
  auto c1 = mgr.PrepareCommit({"core:k"}, t1);
  ASSERT_TRUE(c1.ok());
  mgr.FinishCommit(*c1);
  // t2 read below t1's commit and writes the same key: refused.
  auto c2 = mgr.PrepareCommit({"core:k"}, t2);
  EXPECT_TRUE(c2.status().IsBusy());
  EXPECT_EQ(mgr.stats().conflicts, 1u);
  // Disjoint key from the same stale snapshot: fine.
  auto c3 = mgr.PrepareCommit({"core:other"}, t2);
  EXPECT_TRUE(c3.ok());
  EXPECT_GT(*c3, *c1);
  mgr.FinishCommit(*c3);
  // A fresh snapshot past the winning commit can rewrite the key.
  mgr.ReleaseSnapshot(t1);
  mgr.ReleaseSnapshot(t2);
  uint64_t t3 = mgr.BeginSnapshot();
  EXPECT_TRUE(mgr.PrepareCommit({"core:k"}, t3).ok());
  mgr.ReleaseSnapshot(t3);
}

// Regression (review): a commit timestamp is *allocated* at PrepareCommit
// but only becomes visible at FinishCommit, after the engine apply. A
// snapshot that Begins in between must stay below the in-flight ts —
// otherwise it would miss the version now and find it later, a
// non-repeatable read within one snapshot.
TEST(MvccManagerTest, SnapshotsGateOnAppliedNotAllocatedCommits) {
  MvccManager mgr;
  mgr.SeedClock(10);
  uint64_t t0 = mgr.BeginSnapshot();
  auto c1 = mgr.PrepareCommit({"core:k"}, t0);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(*c1, 11u);
  // In-flight: the clock advanced but readers cannot reach the new ts.
  EXPECT_EQ(mgr.ReadTs(), 10u);
  EXPECT_EQ(mgr.BeginSnapshot(), 10u);
  // Overlapping second commit: visibility still pinned below the oldest
  // unapplied ts, in whichever order the two finish.
  auto c2 = mgr.PrepareCommit({"core:j"}, t0);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*c2, 12u);
  mgr.FinishCommit(*c2);
  EXPECT_EQ(mgr.ReadTs(), 10u);  // c1 still pending
  mgr.FinishCommit(*c1);
  EXPECT_EQ(mgr.ReadTs(), 12u);  // both applied: fully visible
  // The watermark never outran the gated read ts while commits were in
  // flight (checked implicitly: it cannot exceed ReadTs by construction).
  EXPECT_LE(mgr.Watermark(), mgr.ReadTs());
  EXPECT_EQ(mgr.Clock(), 12u);  // raw clock for meta persistence
}

// Regression (review): auto-commit writes must enter the first-committer-
// wins table, so a transaction that read the key before the auto-commit
// write conflicts at its own commit instead of silently overwriting.
TEST(MvccManagerTest, AutoCommitWritesParticipateInConflictDetection) {
  MvccManager mgr;
  uint64_t t1 = mgr.BeginSnapshot();
  uint64_t auto_ts = mgr.PrepareAutoCommit("core:k");
  EXPECT_GT(auto_ts, t1);
  mgr.FinishCommit(auto_ts);
  // The transaction that read below the auto-commit write loses.
  auto c = mgr.PrepareCommit({"core:k"}, t1);
  EXPECT_TRUE(c.status().IsBusy());
  // Disjoint key from the same snapshot still commits.
  EXPECT_TRUE(mgr.PrepareCommit({"core:other"}, t1).ok());
  mgr.ReleaseSnapshot(t1);
}

// ------------------------------------------------------- runtime Database

DbOptions MvccOptions(osal::Env* env, bool concurrency = false) {
  DbOptions opts;
  opts.features = {"Linux",  "B+-Tree",      "Transaction",  "Update",
                   "BTree-Update", "Remove", "BTree-Remove", "Mvcc"};
  if (concurrency) opts.features.push_back("Concurrency");
  opts.path = "db";
  opts.env = env;
  return opts;
}

Status CommitPut(Database* db, const std::string& k, const std::string& v) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  Status s = (*txn)->Put("core", k, v);
  if (!s.ok()) {
    (void)db->Abort(*txn);
    return s;
  }
  return db->Commit(*txn);
}

TEST(MvccDatabaseTest, RefusedWithoutTheFeature) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MvccOptions(env.get());
  opts.features = {"Linux", "B+-Tree", "Transaction", "Update",
                   "BTree-Update"};
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE((*db)->mvcc());
  EXPECT_TRUE((*db)->NewSnapshotCursor().status().IsNotSupported());
  EXPECT_TRUE((*db)->MvccGc().status().IsNotSupported());
}

TEST(MvccDatabaseTest, SnapshotGetsAreFrozenPerMapOracle) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->mvcc());

  // Interleave snapshots with writes; each open transaction must keep
  // serving the exact std::map state captured at its Begin.
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 8; ++i) {
    oracle["k" + std::to_string(i)] = "gen0";
    ASSERT_TRUE(CommitPut(db->get(), "k" + std::to_string(i), "gen0").ok());
  }
  auto snap_a = (*db)->Begin();
  ASSERT_TRUE(snap_a.ok());
  auto oracle_a = oracle;

  for (int i = 0; i < 8; i += 2) {
    oracle["k" + std::to_string(i)] = "gen1";
    ASSERT_TRUE(CommitPut(db->get(), "k" + std::to_string(i), "gen1").ok());
  }
  auto snap_b = (*db)->Begin();
  ASSERT_TRUE(snap_b.ok());
  auto oracle_b = oracle;

  for (int i = 0; i < 8; ++i) {
    oracle["k" + std::to_string(i)] = "gen2";
    ASSERT_TRUE(CommitPut(db->get(), "k" + std::to_string(i), "gen2").ok());
  }

  for (const auto& [k, want] : oracle_a) {
    std::string got;
    ASSERT_TRUE((*snap_a)->Get("core", k, &got).ok()) << k;
    EXPECT_EQ(got, want) << k;
  }
  for (const auto& [k, want] : oracle_b) {
    std::string got;
    ASSERT_TRUE((*snap_b)->Get("core", k, &got).ok()) << k;
    EXPECT_EQ(got, want) << k;
  }
  // The live view sees the newest generation.
  std::string v;
  ASSERT_TRUE((*db)->Get("k0", &v).ok());
  EXPECT_EQ(v, "gen2");
  ASSERT_TRUE((*db)->Commit(*snap_a).ok());
  ASSERT_TRUE((*db)->Commit(*snap_b).ok());
}

TEST(MvccDatabaseTest, SnapshotCursorIsFrozenAcrossCommits) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 20; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(CommitPut(db->get(), key, "old").ok());
    oracle[key] = "old";
  }

  auto snap = (*db)->NewSnapshotCursor();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Overwrite everything, delete some, insert new keys — after the cursor.
  for (int i = 0; i < 20; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(CommitPut(db->get(), key, "new").ok());
  }
  ASSERT_TRUE((*db)->Remove("k005").ok());
  ASSERT_TRUE(CommitPut(db->get(), "zzz", "late").ok());

  std::map<std::string, std::string> seen;
  for (snap->SeekToFirst(); snap->Valid(); snap->Next()) {
    seen[snap->key().ToString()] = snap->value().ToString();
  }
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  EXPECT_EQ(seen, oracle);

  // A cursor opened now sees the post-write world, including the delete.
  auto snap2 = (*db)->NewSnapshotCursor();
  ASSERT_TRUE(snap2.ok());
  seen.clear();
  for (snap2->SeekToFirst(); snap2->Valid(); snap2->Next()) {
    seen[snap2->key().ToString()] = snap2->value().ToString();
  }
  EXPECT_EQ(seen.size(), 20u);  // 20 - deleted + zzz
  EXPECT_EQ(seen.count("k005"), 0u);
  EXPECT_EQ(seen.at("zzz"), "late");
  EXPECT_EQ(seen.at("k000"), "new");
}

TEST(MvccDatabaseTest, WriteConflictSurfacesBusyAndLoserStagesNothing) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(CommitPut(db->get(), "k", "base").ok());

  auto t1 = (*db)->Begin();
  auto t2 = (*db)->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*t1)->Put("core", "k", "one").ok());
  ASSERT_TRUE((*t2)->Put("core", "k", "two").ok());
  ASSERT_TRUE((*db)->Commit(*t1).ok());
  EXPECT_TRUE((*db)->Commit(*t2).IsBusy());
  EXPECT_EQ((*db)->mvcc_stats().conflicts, 1u);

  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "one");  // the loser's write never landed

  // Disjoint keys from equally-stale snapshots both commit.
  auto t3 = (*db)->Begin();
  auto t4 = (*db)->Begin();
  ASSERT_TRUE(t3.ok() && t4.ok());
  ASSERT_TRUE((*t3)->Put("core", "a", "3").ok());
  ASSERT_TRUE((*t4)->Put("core", "b", "4").ok());
  EXPECT_TRUE((*db)->Commit(*t3).ok());
  EXPECT_TRUE((*db)->Commit(*t4).ok());
}

// Regression (review): an auto-commit Put used to tick the clock without
// entering the conflict table, so an overlapping transaction that also
// wrote the key would commit and silently erase the auto-commit write (a
// classic lost update). The auto-commit path now registers in the
// first-committer-wins table and the transaction must lose.
TEST(MvccDatabaseTest, AutoCommitPutConflictsWithOverlappingTransaction) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(CommitPut(db->get(), "k", "base").ok());

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  // Auto-commit write lands after the transaction's snapshot.
  ASSERT_TRUE((*db)->Put("k", "auto").ok());
  ASSERT_TRUE((*txn)->Put("core", "k", "txn").ok());
  EXPECT_TRUE((*db)->Commit(*txn).IsBusy());

  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "auto");  // the auto-commit write survives

  // Auto-commit Remove participates the same way.
  auto txn2 = (*db)->Begin();
  ASSERT_TRUE(txn2.ok());
  ASSERT_TRUE((*db)->Remove("k").ok());
  ASSERT_TRUE((*txn2)->Put("core", "k", "txn2").ok());
  EXPECT_TRUE((*db)->Commit(*txn2).IsBusy());
  EXPECT_TRUE((*db)->Get("k", &v).IsNotFound());
}

// Regression (review): range scans used to read at an unregistered
// timestamp, so a concurrent commit's inline prune could drop the very
// version the scan was about to visit and keys silently vanished mid-scan.
// The scan now owns a registered snapshot that pins the GC watermark. The
// visitor runs without the per-step latch held, so issuing auto-commit
// writes from inside it is legal and exercises exactly that window.
TEST(MvccDatabaseTest, RangeScanPinsVersionsAgainstConcurrentPrune) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 20; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(CommitPut(db->get(), key, "old").ok());
  }

  std::map<std::string, std::string> seen;
  bool wrote = false;
  Status s = (*db)->RangeScan(
      Slice("k000"), Slice("k999"),
      [&](const Slice& k, const Slice& v) {
        seen[k.ToString()] = v.ToString();
        if (!wrote) {
          // Overwrite a key the scan has not reached yet — twice, so the
          // second write's inline prune targets the version our snapshot
          // still needs.
          wrote = true;
          EXPECT_TRUE((*db)->Put("k010", "new1").ok());
          EXPECT_TRUE((*db)->Put("k010", "new2").ok());
        }
        return true;
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(seen.size(), 20u);
  ASSERT_EQ(seen.count("k010"), 1u);
  EXPECT_EQ(seen.at("k010"), "old");  // frozen at the scan's snapshot

  // After the scan releases its snapshot the live view sees the new value.
  std::string v;
  ASSERT_TRUE((*db)->Get("k010", &v).ok());
  EXPECT_EQ(v, "new2");
}

TEST(MvccDatabaseTest, RemoveAndUpdateHonorVisibleState) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("k", "v1").ok());
  ASSERT_TRUE((*db)->Update("k", "v2").ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "v2");
  ASSERT_TRUE((*db)->Remove("k").ok());
  EXPECT_TRUE((*db)->Get("k", &v).IsNotFound());
  // The record is version-chained (tombstone), but the surface contracts
  // hold: removing or updating a dead key reports NotFound.
  EXPECT_TRUE((*db)->Remove("k").IsNotFound());
  EXPECT_TRUE((*db)->Update("k", "x").IsNotFound());
  // Re-insert after delete works and reads back.
  ASSERT_TRUE((*db)->Put("k", "v3").ok());
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "v3");
}

TEST(MvccDatabaseTest, ScanSkipsRemovedKeys) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("a", "1").ok());
  ASSERT_TRUE((*db)->Put("b", "2").ok());
  ASSERT_TRUE((*db)->Remove("a").ok());
  // The full scan resolves every chain at a snapshot, like RangeScan: the
  // tombstoned key is absent and values are record bytes, not chains.
  std::vector<std::string> rows;
  ASSERT_TRUE((*db)
                  ->Scan([&rows](const Slice& k, const Slice& v) {
                    rows.push_back(k.ToString() + "=" + v.ToString());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(rows, std::vector<std::string>{"b=2"});
}

TEST(MvccDatabaseTest, ClockAndChainsSurviveReopen) {
  auto env = osal::NewMemEnv(0);
  uint64_t clock_before = 0;
  {
    auto db = Database::Open(MvccOptions(env.get()));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          CommitPut(db->get(), "k", "gen" + std::to_string(i)).ok());
    }
    clock_before = (*db)->mvcc_stats().clock;
    EXPECT_GT(clock_before, 0u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    auto db = Database::Open(MvccOptions(env.get()));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // The oracle must restart at or past the persisted clock — a commit
    // after reopen lands a version newer than every chain head.
    EXPECT_GE((*db)->mvcc_stats().clock, clock_before);
    std::string v;
    ASSERT_TRUE((*db)->Get("k", &v).ok());
    EXPECT_EQ(v, "gen9");
    ASSERT_TRUE(CommitPut(db->get(), "k", "after-reopen").ok());
    ASSERT_TRUE((*db)->Get("k", &v).ok());
    EXPECT_EQ(v, "after-reopen");
  }
}

TEST(MvccDatabaseTest, GcPrunesDeadVersionsAndPersistsMark) {
  auto env = osal::NewMemEnv(0);
  auto db = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int gen = 0; gen < 5; ++gen) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(CommitPut(db->get(), "k" + std::to_string(i),
                            "gen" + std::to_string(gen))
                      .ok());
    }
  }
  // A pinned snapshot blocks pruning of the versions it can see.
  auto pin = (*db)->Begin();
  ASSERT_TRUE(pin.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(CommitPut(db->get(), "k" + std::to_string(i), "gen5").ok());
  }
  auto pruned_pinned = (*db)->MvccGc();
  ASSERT_TRUE(pruned_pinned.ok()) << pruned_pinned.status().ToString();
  std::string v;
  ASSERT_TRUE((*pin)->Get("core", "k0", &v).ok());
  EXPECT_EQ(v, "gen4");  // the pinned snapshot still reads its version
  ASSERT_TRUE((*db)->Commit(*pin).ok());

  // With no snapshots the full history behind the head is prunable.
  auto pruned = (*db)->MvccGc();
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(*pruned, 0u);
  EXPECT_GT((*db)->mvcc_gc_mark(), 0u);
  EXPECT_GE((*db)->mvcc_stats().gc_runs, 2u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*db)->Get("k" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, "gen5");
  }

  // A deleted key's tombstone chain dies entirely once below the mark.
  ASSERT_TRUE((*db)->Remove("k0").ok());
  ASSERT_TRUE((*db)->MvccGc().ok());
  EXPECT_TRUE((*db)->Get("k0", &v).IsNotFound());

  // The GC mark survives a reopen.
  uint64_t mark = (*db)->mvcc_gc_mark();
  ASSERT_TRUE((*db)->Checkpoint().ok());
  db->reset();
  auto db2 = Database::Open(MvccOptions(env.get()));
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ((*db2)->mvcc_gc_mark(), mark);
}

TEST(MvccDatabaseTest, SqlScansReadASnapshot) {
  auto env = osal::NewMemEnv(0);
  DbOptions opts = MvccOptions(env.get());
  opts.features.push_back("SQL-Engine");
  opts.features.push_back("Optimizer");
  opts.features.push_back("String-Types");
  opts.features.push_back("Int-Types");
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto exec = [&](const std::string& q) -> core::ResultSet {
    auto r = (*db)->sql()->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? *r : core::ResultSet{};
  };
  exec("CREATE TABLE t (id INT, name TEXT)");
  exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  auto rs = exec("SELECT * FROM t ORDER BY id");
  ASSERT_EQ(rs.rows.size(), 2u);
  exec("UPDATE t SET name = 'uno' WHERE id = 1");
  rs = exec("SELECT name FROM t WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "uno");
  exec("DELETE FROM t WHERE id = 2");
  rs = exec("SELECT * FROM t");
  EXPECT_EQ(rs.rows.size(), 1u);
  // The optimizer's index-range plan rides the snapshot cursor under Mvcc.
  rs = exec("SELECT * FROM t WHERE id >= 0 AND id <= 5 ORDER BY id");
  EXPECT_EQ(rs.plan, "index-range");
  EXPECT_EQ(rs.rows.size(), 1u);
}

// ------------------------------------------------------- static engine

TEST(MvccStaticEngineTest, VersionedStoreSnapshotIsolation) {
  auto env = osal::NewMemEnv(0);
  core::VersionedStore db;
  ASSERT_TRUE(db.Open(env.get(), "vs").ok());
  for (int i = 0; i < 10; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "k" + std::to_string(i), "old").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
  }
  auto snap = db.NewSnapshotCursor();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto reader = db.Begin();
  ASSERT_TRUE(reader.ok());

  for (int i = 0; i < 10; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "k" + std::to_string(i), "new").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
  }

  // Frozen transaction reads and frozen cursor scan.
  std::string v;
  ASSERT_TRUE((*reader)->Get("core", "k3", &v).ok());
  EXPECT_EQ(v, "old");
  size_t n = 0;
  for (snap->SeekToFirst(); snap->Valid(); snap->Next()) {
    EXPECT_EQ(snap->value().ToString(), "old");
    ++n;
  }
  ASSERT_TRUE(snap->status().ok());
  EXPECT_EQ(n, 10u);
  ASSERT_TRUE(db.Commit(*reader).ok());

  // Live reads see the new generation.
  ASSERT_TRUE(db.Get("k3", &v).ok());
  EXPECT_EQ(v, "new");
}

TEST(MvccStaticEngineTest, ConflictsGcAndReopen) {
  auto env = osal::NewMemEnv(0);
  uint64_t clock_before = 0;
  {
    core::VersionedStore db;
    ASSERT_TRUE(db.Open(env.get(), "vs").ok());
    auto t1 = db.Begin();
    auto t2 = db.Begin();
    ASSERT_TRUE(t1.ok() && t2.ok());
    ASSERT_TRUE((*t1)->Put("core", "k", "one").ok());
    ASSERT_TRUE((*t2)->Put("core", "k", "two").ok());
    ASSERT_TRUE(db.Commit(*t1).ok());
    EXPECT_TRUE(db.Commit(*t2).IsBusy());
    EXPECT_EQ(db.mvcc_stats().conflicts, 1u);

    for (int gen = 0; gen < 4; ++gen) {
      auto txn = db.Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          (*txn)->Put("core", "k", "gen" + std::to_string(gen)).ok());
      ASSERT_TRUE(db.Commit(*txn).ok());
    }
    auto pruned = db.MvccGc();
    ASSERT_TRUE(pruned.ok());
    EXPECT_GT(*pruned, 0u);
    EXPECT_GT(db.mvcc_gc_mark(), 0u);
    clock_before = db.mvcc_stats().clock;
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  core::VersionedStore db;
  ASSERT_TRUE(db.Open(env.get(), "vs").ok());
  EXPECT_GE(db.mvcc_stats().clock, clock_before);
  EXPECT_GT(db.mvcc_gc_mark(), 0u);
  std::string v;
  ASSERT_TRUE(db.Get("k", &v).ok());
  EXPECT_EQ(v, "gen3");
}

// GC shrinks hot keys' version chains and later commits regrow them. A
// chain that outgrows its page moves; if it moved into room that GC just
// freed, that page's own chains would move when they regrow, and so on for
// as long as the store runs. Relocations go to the heap tail instead, so
// the motion dies out once the hot chains have gathered there.
TEST(MvccStaticEngineTest, RegrownChainsStopRelocatingAfterGc) {
  constexpr uint64_t kKeys = 4'000;
  constexpr int kRounds = 40;
  constexpr int kCommitsPerRound = 2'000;
  constexpr size_t kValueBytes = 64;
  auto env = osal::NewMemEnv(0);
  core::VersionedStore db;
  ASSERT_TRUE(db.Open(env.get(), "vs").ok());
  Random rng(16);
  auto key_of = [](uint64_t i) {
    std::string k = std::to_string(i);
    return "key" + std::string(5 - k.size(), '0') + k;
  };
  for (uint64_t lo = 0; lo < kKeys; lo += 500) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    for (uint64_t i = lo; i < lo + 500; ++i) {
      ASSERT_TRUE(
          (*txn)->Put("core", key_of(i), rng.NextString(kValueBytes)).ok());
    }
    ASSERT_TRUE(db.Commit(*txn).ok());
  }
  std::vector<uint64_t> rids(kKeys);
  auto count_moves = [&] {
    uint64_t moved = 0;
    for (uint64_t i = 0; i < kKeys; ++i) {
      uint64_t packed = 0;
      EXPECT_TRUE(db.index()->Lookup(key_of(i), &packed).ok());
      moved += packed != rids[i];
      rids[i] = packed;
    }
    return moved;
  };
  count_moves();
  std::string per_round;  // the whole series, for the failure message
  std::vector<uint64_t> moves;
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kCommitsPerRound; ++c) {
      auto txn = db.Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("core", key_of(rng.Skewed(kKeys)),
                              rng.NextString(kValueBytes))
                      .ok());
      ASSERT_TRUE(db.Commit(*txn).ok());
    }
    ASSERT_TRUE(db.MvccGc().ok());
    moves.push_back(count_moves());
    per_round += " " + std::to_string(moves.back());
  }
  RecordProperty("relocations_per_round", per_round);
  for (int round = kRounds - 10; round < kRounds; ++round) {
    EXPECT_LE(moves[round], kKeys / 100)
        << "round " << round + 1 << "; relocations per round:" << per_round;
  }
}

// ------------------------------------------------------- concurrency

// Static MVCC + Concurrency product for the TSan-targeted stress cells.
struct ConcurrentMvccCfg {
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

TEST(MvccConcurrencyTest, DisjointWritersCommitWithZeroConflicts) {
  auto env = osal::NewMemEnv(0);
  core::StaticEngine<ConcurrentMvccCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "mt").ok());
  constexpr int kThreads = 4;
  constexpr int kCommits = 40;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommits; ++i) {
        auto txn = db.Begin();
        if (!txn.ok()) { ++errors; return; }
        std::string key = "w" + std::to_string(t) + "_" + std::to_string(i);
        if (!(*txn)->Put("core", key, "v").ok()) { ++errors; return; }
        if (!db.Commit(*txn).ok()) { ++errors; return; }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // Disjoint-key writers must never collide in the conflict table.
  EXPECT_EQ(db.mvcc_stats().conflicts, 0u);
  std::string v;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kCommits; ++i) {
      ASSERT_TRUE(
          db.Get("w" + std::to_string(t) + "_" + std::to_string(i), &v).ok());
    }
  }
}

TEST(MvccConcurrencyTest, SameKeyRacersGetExactlyOneWinnerPerRound) {
  auto env = osal::NewMemEnv(0);
  core::StaticEngine<ConcurrentMvccCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "mt").ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::atomic<int> winners{0}, losers{0}, errors{0};
  // Every racer snapshots before anyone commits, so first-committer-wins
  // admits exactly one commit per round.
  std::barrier staged(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        auto txn = db.Begin();
        if (!txn.ok()) { ++errors; return; }
        if (!(*txn)->Put("core", "hot", "t" + std::to_string(t)).ok()) {
          ++errors;
          return;
        }
        staged.arrive_and_wait();
        Status s = db.Commit(*txn);
        if (s.ok()) {
          ++winners;
        } else if (s.IsBusy()) {
          ++losers;
        } else {
          ++errors;
        }
        staged.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(winners.load(), kRounds);
  EXPECT_EQ(losers.load(), kRounds * (kThreads - 1));
  EXPECT_EQ(db.mvcc_stats().conflicts,
            static_cast<uint64_t>(kRounds * (kThreads - 1)));
}

TEST(MvccConcurrencyTest, SnapshotReadersNeverBlockOnWriters) {
  auto env = osal::NewMemEnv(0);
  core::StaticEngine<ConcurrentMvccCfg> db;
  ASSERT_TRUE(db.Open(env.get(), "mt").ok());
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
      for (int iter = 0; iter < 30; ++iter) {
        auto txn = db.Begin();
        if (!txn.ok()) { ++errors; return; }
        // Two passes over every key inside one snapshot: a reader must
        // see one frozen generation, never a torn mix, and is never
        // refused with Busy (readers don't take locks).
        std::vector<std::string> first(kKeys), second(kKeys);
        for (int pass = 0; pass < 2; ++pass) {
          for (int i = 0; i < kKeys; ++i) {
            std::string v;
            Status s = (*txn)->Get("core", "k" + std::to_string(i), &v);
            if (!s.ok()) { ++errors; return; }
            (pass == 0 ? first : second)[i] = v;
          }
        }
        if (first != second) { ++errors; return; }
        if (!db.Commit(*txn).ok()) { ++errors; return; }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db.mvcc_stats().conflicts, 0u);  // read-only txns never conflict
}

}  // namespace
}  // namespace fame
