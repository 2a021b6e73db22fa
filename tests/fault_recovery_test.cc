// Randomized crash-recovery harness: a deterministic transactional workload
// runs over a FaultInjectionEnv, the "device" dies at a swept mutation
// index, power is lost (unsynced state dropped), and the database reopens.
// The invariant under every crash point:
//
//   recovered state == oracle at the last acknowledged commit, OR
//   recovered state == that oracle plus the one transaction whose commit
//                      was in flight when the device died
//
// (the commit durability point is the WAL flush, which happens before the
// engine apply completes — so an errored commit may legitimately surface
// after recovery, but only atomically). Nothing else may appear: no torn
// half-transaction, no resurrected aborted write, no lost acknowledged
// commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/products.h"
#include "osal/env.h"
#include "osal/fault_env.h"

namespace fame::core {
namespace {

using osal::FaultInjectionEnv;
using osal::FaultOp;

constexpr int kWorkloadOps = 520;  // puts/deletes issued across the workload
constexpr int kKeySpace = 24;
constexpr uint32_t kSeed = 20260806;

std::string KeyOf(uint32_t i) { return "key" + std::to_string(i); }

DbOptions FaultOptions(osal::Env* env) {
  DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Transaction", "Update",
                   "BTree-Update"};
  opts.path = "db";
  opts.buffer_frames = 8;  // small pool: evictions hit the device mid-run
  opts.env = env;
  return opts;
}

struct WorkloadResult {
  /// Oracle state at the last commit the database acknowledged.
  std::map<std::string, std::string> committed;
  /// `committed` plus the write set of the transaction whose commit
  /// errored (it may have become durable at the WAL flush regardless).
  std::map<std::string, std::string> in_flight;
  bool commit_failed = false;
  Status first_error;
};

/// Runs the seeded put/delete/commit workload. Stops at the first failed
/// commit — past that point the injected device failure is persistent and
/// the engine has latched read-only anyway. Fully deterministic: the rng
/// draw sequence never depends on injected outcomes. A non-zero
/// `checkpoint_every` checkpoints after every Nth commit, driving the
/// engine-flush / log-truncation window the checkpoint sweeps below crash
/// into; a failed checkpoint ends the run without touching the oracles
/// (no commit was acknowledged by it).
WorkloadResult RunWorkload(Database* db, uint32_t seed,
                           int checkpoint_every = 0) {
  WorkloadResult r;
  Random rng(seed);
  int ops_done = 0;
  int commits = 0;
  while (ops_done < kWorkloadOps) {
    auto txn_or = db->Begin();
    if (!txn_or.ok()) {
      r.commit_failed = true;
      r.first_error = txn_or.status();
      break;
    }
    tx::Transaction* txn = *txn_or;
    std::map<std::string, std::string> pending = r.committed;
    int nops = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < nops; ++i, ++ops_done) {
      std::string key = KeyOf(rng.Uniform(kKeySpace));
      if (rng.OneIn(4)) {
        EXPECT_TRUE(txn->Delete("core", key).ok());
        pending.erase(key);
      } else {
        std::string value = rng.NextString(1 + rng.Uniform(40));
        EXPECT_TRUE(txn->Put("core", key, value).ok());
        pending[key] = value;
      }
    }
    Status s = db->Commit(txn);
    if (s.ok()) {
      r.committed = std::move(pending);
      ++commits;
    } else {
      r.commit_failed = true;
      r.first_error = s;
      r.in_flight = std::move(pending);
      break;
    }
    if (checkpoint_every > 0 && commits % checkpoint_every == 0 &&
        !db->Checkpoint().ok()) {
      break;
    }
  }
  if (!r.commit_failed) r.in_flight = r.committed;
  return r;
}

/// Reads the whole key universe back through Get.
std::map<std::string, std::string> DumpState(Database* db) {
  std::map<std::string, std::string> state;
  for (uint32_t i = 0; i < kKeySpace; ++i) {
    std::string v;
    Status s = db->Get(KeyOf(i), &v);
    if (s.ok()) {
      state[KeyOf(i)] = v;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << s.ToString();
    }
  }
  return state;
}

TEST(FaultRecoveryTest, GoldenWorkloadRunsCleanUnderTheFaultEnv) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  auto db = Database::Open(FaultOptions(&fenv));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  WorkloadResult gold = RunWorkload(db->get(), kSeed);
  ASSERT_FALSE(gold.commit_failed) << gold.first_error.ToString();
  EXPECT_EQ(DumpState(db->get()), gold.committed);
  EXPECT_FALSE((*db)->read_only());
  EXPECT_EQ(fenv.faults_injected(), 0u);
}

// The tentpole property test: sweep a fail-stop device death across the
// whole workload, reopen after power loss, and hold the recovery invariant
// at every crash point.
TEST(FaultRecoveryTest, CommittedTransactionsSurviveEveryCrashPoint) {
  // Golden run measures how many device mutations the workload performs.
  uint64_t total_mutations = 0;
  {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    auto db = Database::Open(FaultOptions(&fenv));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    WorkloadResult gold = RunWorkload(db->get(), kSeed);
    ASSERT_FALSE(gold.commit_failed);
    total_mutations = fenv.mutation_count();
  }
  ASSERT_GT(total_mutations, 100u);

  int verified = 0;
  for (uint64_t crash = 1; crash < total_mutations; crash += 13) {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    fenv.CrashAfterMutations(crash);
    WorkloadResult run;
    {
      auto db = Database::Open(FaultOptions(&fenv));
      if (db.ok()) {
        run = RunWorkload(db->get(), kSeed);
        if (run.commit_failed) {
          // The engine latched read-only on the persistent failure...
          EXPECT_TRUE((*db)->read_only()) << "crash@" << crash;
          EXPECT_FALSE((*db)->degraded_status().ok());
          // ...reads keep serving...
          (void)DumpState(db->get());
          // ...and further mutations are refused before touching the
          // device.
          uint64_t muts = fenv.mutation_count();
          EXPECT_FALSE((*db)->Put("key0", "rejected").ok());
          EXPECT_EQ(fenv.mutation_count(), muts) << "crash@" << crash;
        }
      }
      // else: the device died during Open; both oracles stay empty.
      // Destructors run against the dead device here and must stay tame.
    }
    // Power loss: unsynced writes vanish, the replacement device is
    // healthy.
    fenv.SimulateCrash();
    auto db = Database::Open(FaultOptions(&fenv));
    ASSERT_TRUE(db.ok())
        << "crash@" << crash << ": reopen failed: " << db.status().ToString();
    // Fail-stop plus power loss can only tear the log tail, never strand
    // committed records behind damage.
    EXPECT_FALSE((*db)->recovery_report().lost_committed_data())
        << "crash@" << crash;
    auto state = DumpState(db->get());
    EXPECT_TRUE(state == run.committed || state == run.in_flight)
        << "crash@" << crash
        << ": recovered state is neither the last acknowledged commit nor "
           "that plus the in-flight transaction";
    ++verified;
  }
  EXPECT_GT(verified, 20);
}

// A WAL whose tail was torn on the *medium* (no power loss — e.g. a torn
// sector write followed by a clean restart) is truncated at reopen and the
// database keeps working.
TEST(FaultRecoveryTest, TornWalTailOnMediumIsTruncatedAtReopen) {
  auto env = osal::NewMemEnv(0);
  {
    auto db = Database::Open(FaultOptions(env.get()));
    ASSERT_TRUE(db.ok());
    for (int t = 0; t < 3; ++t) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("core", KeyOf(t), "v" + std::to_string(t)).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
    }
  }
  // Tear the last few bytes off the log.
  std::string wal;
  ASSERT_TRUE(env->ReadFileToString("db.wal", &wal).ok());
  ASSERT_GT(wal.size(), 4u);
  ASSERT_TRUE(env->WriteStringToFile("db.wal", wal.substr(0, wal.size() - 3))
                  .ok());

  auto db = Database::Open(FaultOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  tx::RecoveryReport report = (*db)->recovery_report();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.lost_committed_data());
  // The tail was truncated: new commits append cleanly and survive.
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("core", "after", "tear").ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("after", &v).ok());
  EXPECT_EQ(v, "tear");
}

// Mid-log bit rot strands once-committed records behind the damage; the
// engine must come up, apply the intact prefix, and *say so* through the
// recovery report instead of silently serving a shortened history.
TEST(FaultRecoveryTest, MidLogCorruptionIsSurfacedInTheRecoveryReport) {
  auto env = osal::NewMemEnv(0);
  {
    auto db = Database::Open(FaultOptions(env.get()));
    ASSERT_TRUE(db.ok());
    for (int t = 0; t < 4; ++t) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("core", KeyOf(t), "v" + std::to_string(t)).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
    }
  }
  std::string wal;
  ASSERT_TRUE(env->ReadFileToString("db.wal", &wal).ok());
  wal[wal.size() / 2] ^= 0x01;  // bit rot in the middle of the log
  ASSERT_TRUE(env->WriteStringToFile("db.wal", wal).ok());

  auto db = Database::Open(FaultOptions(env.get()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  tx::RecoveryReport report = (*db)->recovery_report();
  EXPECT_TRUE(report.corruption);
  EXPECT_TRUE(report.lost_committed_data());
  EXPECT_GT(report.dropped_records, 0u);
}

// Transient device hiccups (a bounded burst of IO errors) are absorbed by
// the retry layer: the workload completes as if the device were healthy.
TEST(FaultRecoveryTest, TransientIoErrorBurstsAreRetriedAway) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  // Every 10th write fails once; the retry layer gets a clean second try.
  for (uint64_t n = 5; n < 400; n += 10) {
    fenv.FailRange(FaultOp::kWrite, n, 1, Status::IOError("transient"));
  }
  auto db = Database::Open(FaultOptions(&fenv));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  WorkloadResult run = RunWorkload(db->get(), kSeed);
  EXPECT_FALSE(run.commit_failed) << run.first_error.ToString();
  EXPECT_FALSE((*db)->read_only());
  EXPECT_GT(fenv.faults_injected(), 0u);
  EXPECT_EQ(DumpState(db->get()), run.committed);
}

// Checkpoints open a second crash window the plain sweep rarely lands in:
// between CheckpointEngine() flushing pages and the log truncation that
// follows, the same effects exist in both the pages and the log. A crash
// anywhere in that window must replay idempotently — same oracle, and a
// second recovery of the same device must change nothing.
void CheckpointWindowSweep(bool group_commit) {
  auto make_options = [&](osal::Env* env) {
    DbOptions opts = FaultOptions(env);
    if (group_commit) opts.features.push_back("Concurrency");
    return opts;
  };
  constexpr int kCheckpointEvery = 5;
  uint64_t total_mutations = 0;
  {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    auto db = Database::Open(make_options(&fenv));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    WorkloadResult gold = RunWorkload(db->get(), kSeed, kCheckpointEvery);
    ASSERT_FALSE(gold.commit_failed) << gold.first_error.ToString();
    total_mutations = fenv.mutation_count();
  }
  ASSERT_GT(total_mutations, 100u);

  int verified = 0;
  for (uint64_t crash = 1; crash < total_mutations; crash += 13) {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    fenv.CrashAfterMutations(crash);
    WorkloadResult run;
    {
      auto db = Database::Open(make_options(&fenv));
      if (db.ok()) run = RunWorkload(db->get(), kSeed, kCheckpointEvery);
    }
    fenv.SimulateCrash();
    std::map<std::string, std::string> state;
    {
      auto db = Database::Open(make_options(&fenv));
      ASSERT_TRUE(db.ok()) << "crash@" << crash << ": reopen failed: "
                           << db.status().ToString();
      EXPECT_FALSE((*db)->recovery_report().lost_committed_data())
          << "crash@" << crash;
      state = DumpState(db->get());
      EXPECT_TRUE(state == run.committed || state == run.in_flight)
          << "crash@" << crash
          << ": recovered state is neither the last acknowledged commit "
             "nor that plus the in-flight transaction";
    }
    // Replay idempotence: recovering the recovered device is a no-op even
    // when the crash fell between the engine flush and the truncation
    // (records then exist in both the pages and the log).
    auto again = Database::Open(make_options(&fenv));
    ASSERT_TRUE(again.ok()) << "crash@" << crash;
    EXPECT_FALSE((*again)->recovery_report().lost_committed_data())
        << "crash@" << crash;
    EXPECT_EQ(DumpState(again->get()), state)
        << "crash@" << crash << ": second recovery changed the state";
    ++verified;
  }
  EXPECT_GT(verified, 20);
}

TEST(FaultRecoveryTest, CheckpointWindowSurvivesEveryCrashPoint) {
  CheckpointWindowSweep(/*group_commit=*/false);
}

TEST(FaultRecoveryTest, CheckpointWindowSurvivesEveryCrashPointGroupCommit) {
  CheckpointWindowSweep(/*group_commit=*/true);
}

// ------------------------------------------------- StaticEngine products

TEST(FaultRecoveryTest, StaticEngineDegradesToReadOnlyOnWriteFailure) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  Workstation db;
  ASSERT_TRUE(db.Open(&fenv, "ws").ok());
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "stable", "1").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
  }
  // The device dies for good.
  fenv.FailFrom(FaultOp::kWrite, fenv.op_count(FaultOp::kWrite),
                Status::IOError("device died"));
  fenv.FailFrom(FaultOp::kSync, fenv.op_count(FaultOp::kSync),
                Status::IOError("device died"));
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "doomed", "x").ok());
    EXPECT_FALSE(db.Commit(*txn).ok());
  }
  EXPECT_TRUE(db.read_only());
  EXPECT_FALSE(db.degraded_status().ok());
  // Reads keep serving the committed data.
  std::string v;
  ASSERT_TRUE(db.Get("stable", &v).ok());
  EXPECT_EQ(v, "1");
  // Every mutation path is refused up front.
  EXPECT_FALSE(db.Put("k", "v").ok());
  EXPECT_FALSE(db.Update("stable", "2").ok());
  EXPECT_FALSE(db.Remove("stable").ok());
  EXPECT_FALSE(db.Checkpoint().ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_FALSE(db.Commit(*txn).ok());
  // The failed commit's write set never leaked.
  EXPECT_TRUE(db.Get("doomed", &v).IsNotFound());
}

TEST(FaultRecoveryTest, StaticEngineRecoversCommittedDataAfterPowerLoss) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  {
    Workstation db;
    ASSERT_TRUE(db.Open(&fenv, "ws").ok());
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("core", "setpoint", "42").ok());
    ASSERT_TRUE(db.Commit(*txn).ok());
    auto t2 = db.Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE((*t2)->Put("core", "zombie", "x").ok());
    // no commit for t2 — power fails now
  }
  fenv.SimulateCrash();
  Workstation db;
  ASSERT_TRUE(db.Open(&fenv, "ws").ok());
  EXPECT_FALSE(db.recovery_report().lost_committed_data());
  std::string v;
  ASSERT_TRUE(db.Get("setpoint", &v).ok());
  EXPECT_EQ(v, "42");
  EXPECT_TRUE(db.Get("zombie", &v).IsNotFound());
  EXPECT_FALSE(db.read_only());  // reopen resets degradation
}

// ------------------------------------------------- Mvcc products

DbOptions MvccFaultOptions(osal::Env* env) {
  DbOptions opts = FaultOptions(env);
  opts.features.push_back("Remove");
  opts.features.push_back("BTree-Remove");
  opts.features.push_back("Mvcc");
  return opts;
}

// The crash sweep over the versioned record path: same workload and
// recovery invariant as the tentpole sweep, but every record is a version
// chain, commits carry timestamps, and checkpoints persist the oracle
// ("mvcc.ts"). Adds the MVCC-specific obligations on top: replay is
// idempotent across a double reopen, the clock never rewinds under
// recovered chains (a post-recovery commit must supersede every head), and
// a GC sweep over just-recovered chains is safe.
TEST(FaultRecoveryTest, MvccWorkloadSurvivesEveryCrashPoint) {
  uint64_t total_mutations = 0;
  {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    auto db = Database::Open(MvccFaultOptions(&fenv));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    WorkloadResult gold = RunWorkload(db->get(), kSeed,
                                      /*checkpoint_every=*/7);
    ASSERT_FALSE(gold.commit_failed);
    total_mutations = fenv.mutation_count();
  }
  ASSERT_GT(total_mutations, 100u);

  int verified = 0;
  for (uint64_t crash = 1; crash < total_mutations; crash += 29) {
    auto base = osal::NewMemEnv(0);
    FaultInjectionEnv fenv(base.get());
    fenv.CrashAfterMutations(crash);
    WorkloadResult run;
    {
      auto db = Database::Open(MvccFaultOptions(&fenv));
      if (db.ok()) run = RunWorkload(db->get(), kSeed, 7);
    }
    fenv.SimulateCrash();

    std::map<std::string, std::string> state1;
    uint64_t clock1 = 0;
    {
      auto db = Database::Open(MvccFaultOptions(&fenv));
      ASSERT_TRUE(db.ok()) << "crash@" << crash << ": "
                           << db.status().ToString();
      EXPECT_FALSE((*db)->recovery_report().lost_committed_data())
          << "crash@" << crash;
      state1 = DumpState(db->get());
      EXPECT_TRUE(state1 == run.committed || state1 == run.in_flight)
          << "crash@" << crash << ": recovered state is neither the last "
                                  "acknowledged commit nor that plus the "
                                  "in-flight transaction";
      clock1 = (*db)->mvcc_stats().clock;
      if (!state1.empty()) EXPECT_GT(clock1, 0u) << "crash@" << crash;
    }

    // Reopen again without writing: recovery replays the same tail onto
    // the already-applied chains and must change nothing (idempotence via
    // the per-chain head timestamp), and the clock must not rewind.
    auto db = Database::Open(MvccFaultOptions(&fenv));
    ASSERT_TRUE(db.ok()) << "crash@" << crash;
    EXPECT_EQ(DumpState(db->get()), state1) << "crash@" << crash;
    EXPECT_GE((*db)->mvcc_stats().clock, clock1) << "crash@" << crash;

    // GC over just-recovered chains keeps the live view intact, and a
    // fresh commit supersedes every recovered chain head.
    ASSERT_TRUE((*db)->MvccGc().ok()) << "crash@" << crash;
    EXPECT_EQ(DumpState(db->get()), state1) << "crash@" << crash;
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("core", KeyOf(0), "post-recovery").ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok()) << "crash@" << crash;
      std::string v;
      ASSERT_TRUE((*db)->Get(KeyOf(0), &v).ok());
      EXPECT_EQ(v, "post-recovery") << "crash@" << crash;
    }
    ++verified;
  }
  EXPECT_GT(verified, 10);
}

// The GC watermark is durable at the MvccGc call itself (it syncs the
// meta), not only at the next checkpoint: after power loss the reopened
// database reports the last completed sweep.
TEST(FaultRecoveryTest, MvccGcWatermarkSurvivesPowerLoss) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  uint64_t mark = 0;
  {
    auto db = Database::Open(MvccFaultOptions(&fenv));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int gen = 0; gen < 4; ++gen) {
      for (int i = 0; i < 6; ++i) {
        auto txn = (*db)->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(
            (*txn)->Put("core", KeyOf(i), "g" + std::to_string(gen)).ok());
        ASSERT_TRUE((*db)->Commit(*txn).ok());
      }
    }
    auto pruned = (*db)->MvccGc();
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_GT(*pruned, 0u);
    mark = (*db)->mvcc_gc_mark();
    EXPECT_GT(mark, 0u);
    // No checkpoint — power fails now.
  }
  fenv.SimulateCrash();
  auto db = Database::Open(MvccFaultOptions(&fenv));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->mvcc_gc_mark(), mark);
  EXPECT_GE((*db)->mvcc_stats().clock, mark);
  std::string v;
  ASSERT_TRUE((*db)->Get(KeyOf(0), &v).ok());
  EXPECT_EQ(v, "g3");
}

// ------------------------------------------------- heap free-space memo

// The record manager answers first fit from a memo it builds while walking
// the heap chain and keeps current on every write. After power loss the
// reopened engine replays the WAL through a fresh record manager, so the
// memo is rebuilt under replay; inserts afterwards must still land on the
// page a walk of the chain picks.
struct MemoCfg {
  using IndexTag = BtreeTag;
  static constexpr bool kPut = true;
  static constexpr bool kRemove = true;
  static constexpr bool kUpdate = true;
  static constexpr bool kTransactions = true;
  static constexpr bool kForceCommit = false;
  static constexpr const char* kReplacement = "lru";
  static constexpr uint32_t kPageSize = 512;  // many heap pages
  static constexpr size_t kBufferFrames = 8;
  static constexpr size_t kStaticPoolBytes = 0;
};
using MemoProduct = StaticEngine<MemoCfg>;

/// First page of the "core" heap chain with room for `need` bytes, or
/// kInvalidPageId when the heap must grow; `chain` receives every page.
storage::PageId FirstFitByWalk(MemoProduct* db, size_t need,
                               std::vector<storage::PageId>* chain) {
  chain->clear();
  storage::PageId fit = storage::kInvalidPageId;
  auto head = db->buffers()->file()->GetRoot("heap:core");
  EXPECT_TRUE(head.ok());
  storage::PageId id = head.ok() ? *head : storage::kInvalidPageId;
  while (id != storage::kInvalidPageId) {
    auto guard = db->buffers()->Fetch(id);
    EXPECT_TRUE(guard.ok()) << guard.status().ToString();
    if (!guard.ok()) break;
    storage::Page page = guard->page();
    if (fit == storage::kInvalidPageId &&
        page.FreeSpace() + page.ReclaimableSpace() >= need) {
      fit = id;
    }
    chain->push_back(id);
    id = page.next_page();
  }
  return fit;
}

/// Random single-key commits over a small key space. A Put of an absent key
/// is one heap insert and must land where the walk says; overwrites (in
/// place or relocating) and removes reshape the free space in between.
void ChurnChecked(MemoProduct* db, Random* rng, int steps,
                  std::map<std::string, std::string>* oracle) {
  for (int i = 0; i < steps; ++i) {
    const std::string key = KeyOf(rng->Uniform(96));
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto it = oracle->find(key);
    if (it != oracle->end() && rng->OneIn(2)) {
      ASSERT_TRUE((*txn)->Delete("core", key).ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
      oracle->erase(it);
      continue;
    }
    const std::string value = rng->NextString(1 + rng->Uniform(120));
    const bool fresh = it == oracle->end();
    std::vector<storage::PageId> chain;
    storage::PageId want = storage::kInvalidPageId;
    if (fresh) {
      const size_t need =
          EncodeRecord(key, value).size() + storage::Page::kSlotSize;
      want = FirstFitByWalk(db, need, &chain);
    }
    ASSERT_TRUE((*txn)->Put("core", key, value).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    (*oracle)[key] = value;
    if (!fresh) continue;
    uint64_t packed = 0;
    ASSERT_TRUE(db->index()->Lookup(key, &packed).ok());
    const storage::PageId got = storage::Rid::Unpack(packed).page;
    if (want != storage::kInvalidPageId) {
      ASSERT_EQ(got, want) << "step " << i;
    } else {
      ASSERT_EQ(std::count(chain.begin(), chain.end(), got), 0)
          << "step " << i;
    }
  }
}

void ExpectState(MemoProduct* db,
                 const std::map<std::string, std::string>& oracle) {
  std::string v;
  for (uint32_t i = 0; i < 96; ++i) {
    Status s = db->Get(KeyOf(i), &v);
    auto it = oracle.find(KeyOf(i));
    if (it == oracle.end()) {
      EXPECT_TRUE(s.IsNotFound()) << KeyOf(i) << ": " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << KeyOf(i) << ": " << s.ToString();
      EXPECT_EQ(v, it->second);
    }
  }
}

TEST(FaultRecoveryTest, HeapPlacementFollowsTheChainWalkAfterReplay) {
  auto base = osal::NewMemEnv(0);
  FaultInjectionEnv fenv(base.get());
  Random rng(kSeed);
  std::map<std::string, std::string> oracle;
  {
    MemoProduct db;
    ASSERT_TRUE(db.Open(&fenv, "memo").ok());
    ASSERT_NO_FATAL_FAILURE(ChurnChecked(&db, &rng, 400, &oracle));
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_NO_FATAL_FAILURE(ChurnChecked(&db, &rng, 400, &oracle));
    // Power fails: from here on nothing reaches the medium.
    fenv.CrashAfterMutations(fenv.mutation_count());
  }
  fenv.SimulateCrash();
  {
    MemoProduct db;
    ASSERT_TRUE(db.Open(&fenv, "memo").ok());
    EXPECT_FALSE(db.recovery_report().lost_committed_data());
    ASSERT_NO_FATAL_FAILURE(ExpectState(&db, oracle));
    ASSERT_NO_FATAL_FAILURE(ChurnChecked(&db, &rng, 400, &oracle));
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // And after a clean close and reopen.
  MemoProduct db;
  ASSERT_TRUE(db.Open(&fenv, "memo").ok());
  ASSERT_NO_FATAL_FAILURE(ExpectState(&db, oracle));
  ASSERT_NO_FATAL_FAILURE(ChurnChecked(&db, &rng, 400, &oracle));
  ASSERT_NO_FATAL_FAILURE(ExpectState(&db, oracle));
}

}  // namespace
}  // namespace fame::core
