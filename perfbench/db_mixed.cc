// db-mixed: the runtime core::Database with the Workstation feature
// selection, 1,024 buffer frames, PosixEnv in a fresh directory and an
// fsync on every commit. 20,000 keys x 64 B are loaded in 1,000-key
// transactions and checkpointed. The timed mix is 90% Get (Skewed), 8%
// single-key transaction (Begin, Put("core"), Commit) and 2% RangeScan over
// 50 keys. The data fits in the pool, so the hit path and the WAL
// append plus fsync carry the cost.
//
// After the measurement an untimed durability pass runs a prefix of the
// same op stream over FaultInjectionEnv, crashes the device between one
// more commit's WAL write and its fsync, reopens, and checks that exactly
// the acknowledged commits survive.
#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/products.h"
#include "harness.h"
#include "osal/fault_env.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 20'000;
constexpr uint64_t kLoadBatch = 1'000;
constexpr size_t kValueBytes = 64;
constexpr uint64_t kScanKeys = 50;
constexpr int kWarmupSteps = 2'000;
constexpr int kCrashPrefixSteps = 2'000;
constexpr uint64_t kSpaceSteps = 20'000;

fame::StatusOr<std::unique_ptr<fame::core::Database>> OpenDb(
    fame::osal::Env* env, const std::string& path) {
  fame::core::DbOptions opts;
  opts.features.assign(std::begin(fame::core::kWorkstationFeatures),
                       std::end(fame::core::kWorkstationFeatures));
  opts.path = path;
  opts.buffer_frames = 1024;
  opts.env = env;
  return fame::core::Database::Open(opts);
}

class DbMixed final : public Workload {
 public:
  DbMixed(std::string dir, fame::osal::Env* base)
      : dir_(std::move(dir)), base_(base) {}
  ~DbMixed() override {
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  fame::Status Setup(uint64_t seed, Run* run) override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    if (!std::filesystem::create_directories(dir_, ec)) {
      return fame::Status::IOError("cannot create " + dir_);
    }
    rng_ = std::make_unique<Rng>(seed);
    env_ = std::make_unique<CountingEnv>(base_);
    run->set_env(env_.get());
    auto db_or = OpenDb(env_.get(), path());
    FAME_RETURN_IF_ERROR(db_or.status());
    db_ = std::move(db_or).value();
    keys_.clear();
    values_.assign(kKeys, std::string());
    for (uint64_t i = 0; i < kKeys; ++i) {
      keys_.push_back(Key(i));
      rng_->Fill(&values_[i], kValueBytes);
    }
    for (uint64_t lo = 0; lo < kKeys; lo += kLoadBatch) {
      auto txn = db_->Begin();
      FAME_RETURN_IF_ERROR(txn.status());
      for (uint64_t i = lo; i < lo + kLoadBatch; ++i) {
        fame::Status s = (*txn)->Put("core", keys_[i], values_[i]);
        if (!s.ok()) {
          db_->Abort(*txn);
          return s;
        }
      }
      FAME_RETURN_IF_ERROR(db_->Commit(*txn));
    }
    FAME_RETURN_IF_ERROR(db_->Checkpoint());
    for (int i = 0; i < kWarmupSteps; ++i) Step(run);
    return fame::Status::OK();
  }

  void Step(Run* run) override {
    const uint64_t pick = rng_->Uniform(100);
    if (pick < 90) {
      const uint64_t k = rng_->Skewed(kKeys);
      fame::Status s = run->Op(kGet, [&] { return db_->Get(keys_[k], &out_); });
      if (s.ok()) run->Check(out_ == values_[k]);
    } else if (pick < 98) {
      const uint64_t k = rng_->Skewed(kKeys);
      rng_->Fill(&next_, kValueBytes);
      fame::Status s = run->Op(kWrite, [&] { return Commit(keys_[k], next_); });
      run->AddCommit();
      run->AddUserBytes(keys_[k].size() + next_.size());
      if (s.ok()) values_[k] = next_;
    } else {
      const uint64_t lo = rng_->Uniform(kKeys - kScanKeys);
      uint64_t next = lo;
      bool match = true;
      // Built before the op, so its allocation is not charged to it.
      const RowVisitor visit = [&](const fame::Slice& k,
                                   const fame::Slice& v) {
        match = match && next < kKeys && k == fame::Slice(keys_[next]) &&
                v == fame::Slice(values_[next]);
        ++next;
        return true;
      };
      fame::Status s = run->Op(kScan, [&] {
        return db_->RangeScan(keys_[lo], keys_[lo + kScanKeys], visit);
      });
      run->AddScanRows(next - lo);
      if (s.ok()) run->Check(match && next == lo + kScanKeys);
    }
  }

  void VerifyAll(Run* run) override {
    for (uint64_t i = 0; i < kKeys; ++i) {
      fame::Status s = db_->Get(keys_[i], &out_);
      run->Verify(s.ok() && out_ == values_[i]);
    }
  }

  LayerCounters Counters() override {
    const fame::core::DbStats st = db_->GetStats();
    LayerCounters c;
    c.buf_hits = st.buffer.hits;
    c.buf_misses = st.buffer.misses;
    c.buf_writebacks = st.buffer.dirty_writebacks;
    c.pf_reads = st.metrics.file_reads;
    c.pf_read_ns = st.metrics.file_read_ns.sum;
    c.pf_writes = st.metrics.file_writes;
    c.pf_write_ns = st.metrics.file_write_ns.sum;
    c.bt_descents = st.metrics.btree_descents;
    c.bt_splits = st.metrics.btree_splits;
    c.bt_merges = st.metrics.btree_merges;
    c.wal_records = st.wal.records_appended;
    return c;
  }

  uint64_t StoredBytes() override { return env_->BytesOnMedium(path()); }
  uint64_t LiveUserBytes() override { return kKeys * (8 + kValueBytes); }

  bool ExtraChecks(uint64_t seed, std::string* report) override {
    fame::osal::FaultInjectionEnv fenv(fame::osal::GetPosixEnv());
    DbMixed prefix(dir_ + "-crash", &fenv);
    Run run;
    fame::Status s = prefix.Setup(seed, &run);
    for (int i = 0; s.ok() && i < kCrashPrefixSteps; ++i) prefix.Step(&run);
    const uint64_t acked = run.commits();
    // One more commit that is never acknowledged: the device dies right
    // after the next mutation, so the commit's WAL write lands and its
    // fsync fails. The commit must report the failure, and after the crash
    // its key must still hold the last acknowledged value.
    bool refused = false;
    if (s.ok()) {
      const uint64_t k = prefix.rng_->Skewed(kKeys);
      const uint64_t syncs = fenv.op_count(fame::osal::FaultOp::kSync);
      fenv.CrashAfterMutations(fenv.mutation_count() + 1);
      refused = !prefix.Commit(prefix.keys_[k], "unacknowledged").ok() &&
                fenv.op_count(fame::osal::FaultOp::kSync) > syncs;
    }
    prefix.db_.reset();  // torn down against the dead device
    fenv.SimulateCrash();
    uint64_t bad = 0;
    if (s.ok() && run.failed() == 0) {
      auto db = OpenDb(&fenv, prefix.path());
      s = db.status();
      for (uint64_t i = 0; s.ok() && i < kKeys; ++i) {
        std::string v;
        fame::Status g = (*db)->Get(prefix.keys_[i], &v);
        if (!g.ok() || v != prefix.values_[i]) ++bad;
      }
    }
    const bool pass = s.ok() && run.failed() == 0 && refused && bad == 0;
    *report = std::string("durability: ") + (pass ? "pass" : "FAIL") + " (" +
              std::to_string(acked) + " acknowledged commits after load, " +
              "1 commit " + (refused ? "refused" : "NOT refused") +
              " after its WAL write, " + std::to_string(bad) +
              " keys wrong after crash and reopen" +
              (s.ok() ? "" : "; " + s.ToString()) + ")";
    return pass;
  }

  uint64_t space_steps() const override { return kSpaceSteps; }
  size_t setups() const override { return 10; }

 private:
  std::string path() const { return dir_ + "/db"; }

  fame::Status Commit(const std::string& key, const std::string& value) {
    auto txn = db_->Begin();
    if (!txn.ok()) return txn.status();
    fame::Status s = (*txn)->Put("core", key, value);
    if (!s.ok()) {
      db_->Abort(*txn);
      return s;
    }
    return db_->Commit(*txn);
  }

  std::string dir_;
  fame::osal::Env* base_;
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<fame::core::Database> db_;
  std::unique_ptr<Rng> rng_;
  std::vector<std::string> keys_, values_;
  std::string out_, next_;
};

std::unique_ptr<Workload> Make(const std::string& dir) {
  return std::make_unique<DbMixed>(
      dir + "/db-mixed-" + std::to_string(::getpid()),
      fame::osal::GetPosixEnv());
}

bool SelfTest(const std::string& dir) {
  // The durability pass must hold on its own, with any seed.
  DbMixed wl(dir + "/db-mixed-selftest-" + std::to_string(::getpid()),
             fame::osal::GetPosixEnv());
  std::string report;
  const bool ok = wl.ExtraChecks(3, &report);
  std::fprintf(stderr, "%s\n", report.c_str());
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv, "db-mixed", perfbench::Make,
                         perfbench::SelfTest);
}
