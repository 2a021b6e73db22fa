// fig1b-point: the paper's Figure 1b product and workload. FameBDB FOP
// configuration 7 (FopMinimalBtree) with default BundleOptions (4 KiB pages,
// 64 frames, paranoid checks) over a MemEnv, 10,000 keys loaded as in
// variants/workload.h, then 100% point Get on hot-key (Skewed) picks. The
// data exceeds the pool, so most Gets take the miss path.
//
// The timed mix has no writes or scans. The only writes of the Fig. 1b
// workload are its 10,000 load Puts, so write_* and write_amp come from
// the load, pooled over the setups; scan_* read 0.
#include <memory>
#include <string>
#include <vector>

#include "bdb/fop/products.h"
#include "harness.h"
#include "osal/fault_env.h"

namespace perfbench {
namespace {

using Product = fame::bdb::fop::FopMinimalBtree;

constexpr uint64_t kKeys = 10'000;
constexpr uint64_t kWarmupGets = 20'000;

class Fig1bPoint final : public Workload {
 public:
  /// `base` overrides the MemEnv under the counting wrapper (self-test).
  explicit Fig1bPoint(fame::osal::Env* base = nullptr) : base_(base) {}

  fame::Status Setup(uint64_t seed, Run* run) override {
    rng_ = std::make_unique<Rng>(seed);
    if (base_ == nullptr) {
      mem_ = fame::osal::NewMemEnv(0);
      base_ = mem_.get();
    }
    env_ = std::make_unique<CountingEnv>(base_);
    run->set_env(env_.get());
    db_ = std::make_unique<Product>();
    FAME_RETURN_IF_ERROR(
        db_->Open(env_.get(), "db", fame::bdb::BundleOptions{}));
    keys_.clear();
    values_.clear();
    for (uint64_t i = 0; i < kKeys; ++i) {
      keys_.push_back(Key(i));
      values_.push_back("value-" + std::to_string(i));
    }
    // The load is the workload's write traffic: each Put is a recorded
    // write op, and its Env bytes are charged to write_amp.
    run->SetRecording(true);
    fame::Status load;
    for (uint64_t i = 0; load.ok() && i < kKeys; ++i) {
      load = run->Op(kWrite, [&] { return db_->Put(keys_[i], values_[i]); });
      run->AddUserBytes(keys_[i].size() + values_[i].size());
    }
    run->SetRecording(false);
    FAME_RETURN_IF_ERROR(load);
    for (uint64_t i = 0; i < kWarmupGets; ++i) Step(run);
    return fame::Status::OK();
  }

  void Step(Run* run) override {
    const uint64_t i = rng_->Skewed(kKeys);
    fame::Status s = run->Op(kGet, [&] { return db_->Get(keys_[i], &out_); });
    if (s.ok()) run->Check(out_ == values_[i]);
  }

  void VerifyAll(Run* run) override {
    for (uint64_t i = 0; i < kKeys; ++i) {
      fame::Status s = db_->Get(keys_[i], &out_);
      run->Verify(s.ok() && out_ == values_[i]);
    }
  }

  LayerCounters Counters() override {
    LayerCounters c;
    fame::bdb::StorageBundle* b = db_->bundle();
    const fame::storage::BufferStats bs = b->buffers->stats();
    c.buf_hits = bs.hits;
    c.buf_misses = bs.misses;
    c.buf_writebacks = bs.dirty_writebacks;
#if FAME_OBS_ENABLED
    const auto& io = b->file->io_metrics();
    c.pf_reads = io.reads.Load();
    c.pf_read_ns = io.read_ns.Snapshot().sum;
    c.pf_writes = io.writes.Load();
    c.pf_write_ns = io.write_ns.Snapshot().sum;
    const auto& bt = db_->index()->metrics();
    c.bt_descents = bt.descents.Load();
    c.bt_splits = bt.splits.Load();
    c.bt_merges = bt.merges.Load();
#endif
    return c;
  }

  uint64_t StoredBytes() override { return env_->BytesOnMedium("db"); }
  uint64_t LiveUserBytes() override {
    uint64_t n = 0;
    for (uint64_t i = 0; i < kKeys; ++i) {
      n += keys_[i].size() + values_[i].size();
    }
    return n;
  }
  /// Gets do not change the stored bytes: space_amp is read after setup.
  uint64_t space_steps() const override { return 0; }
  size_t setups() const override { return 10; }
  const char* self_layer() const override { return "bdb"; }

 private:
  fame::osal::Env* base_;
  std::unique_ptr<fame::osal::Env> mem_;
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<Product> db_;
  std::unique_ptr<Rng> rng_;
  std::vector<std::string> keys_, values_;
  std::string out_, next_;
};

std::unique_ptr<Workload> Make(const std::string&) {
  return std::make_unique<Fig1bPoint>();
}

/// A transient read error injected under the product must surface as a
/// failed operation in the run's accounting, not as a crash, and the
/// product must keep serving afterwards.
bool SelfTest(const std::string&) {
  auto mem = fame::osal::NewMemEnv(0);
  fame::osal::FaultInjectionEnv fenv(mem.get());
  Fig1bPoint wl(&fenv);
  Run run;
  if (!wl.Setup(7, &run).ok() || run.failed() != 0) {
    std::fprintf(stderr, "selftest FAILED: fault-free setup\n");
    return false;
  }
  // Fail three consecutive device reads (the page file's retry budget) a
  // few reads ahead, so one Get's miss exhausts its retries.
  fenv.FailRange(fame::osal::FaultOp::kRead,
                 fenv.op_count(fame::osal::FaultOp::kRead) + 5, 3,
                 fame::Status::IOError("injected transient read error"));
  const uint64_t before = run.attempted();
  for (int i = 0; i < 2000; ++i) wl.Step(&run);
  const uint64_t failed_faulty = run.failed();
  wl.VerifyAll(&run);
  const bool ok = fenv.faults_injected() >= 1 && failed_faulty >= 1 &&
                  run.failed() == failed_faulty &&
                  run.attempted() - before == 2000 + kKeys;
  if (!ok) {
    std::fprintf(stderr,
                 "selftest FAILED: injected read error: faults=%llu "
                 "failed=%llu failed_after_verify=%llu\n",
                 static_cast<unsigned long long>(fenv.faults_injected()),
                 static_cast<unsigned long long>(failed_faulty),
                 static_cast<unsigned long long>(run.failed()));
  }
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv, "fig1b-point", perfbench::Make,
                         perfbench::SelfTest);
}
