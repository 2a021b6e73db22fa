// mvcc-versioned: the VersionedStore product (StaticEngine with
// Transaction and Mvcc, 128 frames, MemEnv) over 8,000 keys x 64 B. The
// timed mix is 50% single-key commit on a Skewed key, 40% Get (Skewed) and
// 10% snapshot RangeScan over 100 keys. MvccGc runs every 5,000 steps; it
// is a span of its own and a counted maintenance call, not a user op.
#include <memory>
#include <string>
#include <vector>

#include "core/products.h"
#include "harness.h"

namespace perfbench {
namespace {

using Product = fame::core::VersionedStore;

constexpr uint64_t kKeys = 8'000;
constexpr uint64_t kLoadBatch = 1'000;
constexpr size_t kValueBytes = 64;
constexpr uint64_t kScanKeys = 100;
constexpr uint64_t kGcEvery = 5'000;
constexpr int kWarmupSteps = 2'000;
constexpr uint64_t kSpaceSteps = 10'000;

class MvccVersioned final : public Workload {
 public:
  fame::Status Setup(uint64_t seed, Run* run) override {
    rng_ = std::make_unique<Rng>(seed);
    mem_ = fame::osal::NewMemEnv(0);
    env_ = std::make_unique<CountingEnv>(mem_.get());
    run->set_env(env_.get());
    db_ = std::make_unique<Product>();
    FAME_RETURN_IF_ERROR(db_->Open(env_.get(), "db"));
    keys_.clear();
    values_.assign(kKeys, std::string());
    steps_ = 0;
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
    for (int i = 0; i < kWarmupSteps; ++i) Step(run);
    return fame::Status::OK();
  }

  void Step(Run* run) override {
    const uint64_t pick = rng_->Uniform(100);
    if (pick < 50) {
      const uint64_t k = rng_->Skewed(kKeys);
      rng_->Fill(&next_, kValueBytes);
      fame::Status s = run->Op(kWrite, [&] { return Commit(keys_[k], next_); });
      run->AddCommit();
      run->AddUserBytes(keys_[k].size() + next_.size());
      if (s.ok()) values_[k] = next_;
    } else if (pick < 90) {
      const uint64_t k = rng_->Skewed(kKeys);
      fame::Status s = run->Op(kGet, [&] { return db_->Get(keys_[k], &out_); });
      if (s.ok()) run->Check(out_ == values_[k]);
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
    if (++steps_ % kGcEvery == 0) {
      run->Maintenance([&] { return db_->MvccGc().status(); });
    }
  }

  void VerifyAll(Run* run) override {
    for (uint64_t i = 0; i < kKeys; ++i) {
      fame::Status s = db_->Get(keys_[i], &out_);
      run->Verify(s.ok() && out_ == values_[i]);
    }
  }

  LayerCounters Counters() override {
    LayerCounters c;
    const fame::storage::BufferStats bs = db_->buffers()->stats();
    c.buf_hits = bs.hits;
    c.buf_misses = bs.misses;
    c.buf_writebacks = bs.dirty_writebacks;
#if FAME_OBS_ENABLED
    const auto& io = db_->buffers()->file()->io_metrics();
    c.pf_reads = io.reads.Load();
    c.pf_read_ns = io.read_ns.Snapshot().sum;
    c.pf_writes = io.writes.Load();
    c.pf_write_ns = io.write_ns.Snapshot().sum;
    const auto& bt = db_->index()->metrics();
    c.bt_descents = bt.descents.Load();
    c.bt_splits = bt.splits.Load();
    c.bt_merges = bt.merges.Load();
#endif
    const fame::tx::mvcc::MvccStats ms = db_->mvcc_stats();
    c.mvcc_conflicts = ms.conflicts;
    c.mvcc_gc_runs = ms.gc_runs;
    c.mvcc_gc_pruned = ms.gc_pruned;
    return c;
  }

  uint64_t StoredBytes() override { return env_->BytesOnMedium("db"); }
  uint64_t LiveUserBytes() override { return kKeys * (8 + kValueBytes); }
  uint64_t space_steps() const override { return kSpaceSteps; }

 private:
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

  std::unique_ptr<fame::osal::Env> mem_;
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<Product> db_;
  std::unique_ptr<Rng> rng_;
  std::vector<std::string> keys_, values_;
  uint64_t steps_ = 0;
  std::string out_, next_;
};

std::unique_ptr<Workload> Make(const std::string&) {
  return std::make_unique<MvccVersioned>();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv, "mvcc-versioned", perfbench::Make,
                         nullptr);
}
