// logger-append: the embedded SensorLogger product (StaticEngine over a
// MemEnv standing in for NutOS, Static slab pool, LFU, 1 KiB pages,
// 8 frames, no transactions) keeping a sliding window of 5,000 readings
// with 8 B timestamp keys and 16 B values. Each step is one write op: a Put
// of the newest reading plus a Remove of the oldest. Every 10th step also
// scans the latest 64 readings and Gets one random reading in the window.
#include <memory>
#include <string>
#include <vector>

#include "core/products.h"
#include "harness.h"

namespace perfbench {
namespace {

using Product = fame::core::SensorLogger;

constexpr uint64_t kWindow = 5'000;
constexpr size_t kValueBytes = 16;
constexpr uint64_t kScanReadings = 64;
constexpr uint64_t kReadEvery = 10;
constexpr int kWarmupSteps = 200;
constexpr uint64_t kSpaceSteps = 2'000;

class LoggerAppend final : public Workload {
 public:
  fame::Status Setup(uint64_t seed, Run* run) override {
    rng_ = std::make_unique<Rng>(seed);
    mem_ = fame::osal::NewMemEnv(0);
    env_ = std::make_unique<CountingEnv>(mem_.get());
    run->set_env(env_.get());
    db_ = std::make_unique<Product>();
    FAME_RETURN_IF_ERROR(db_->Open(env_.get(), "log"));
    keys_.assign(kWindow, std::string());
    values_.assign(kWindow, std::string());
    head_ = 0;
    steps_ = 0;
    last_ts_ = 1'600'000'000'000ull + rng_->Uniform(1ull << 30);
    for (uint64_t i = 0; i < kWindow; ++i) {
      last_ts_ += 1 + rng_->Uniform(1000);
      keys_[i] = Key(last_ts_);
      rng_->Fill(&values_[i], kValueBytes);
      FAME_RETURN_IF_ERROR(db_->Put(keys_[i], values_[i]));
    }
    for (int i = 0; i < kWarmupSteps; ++i) Step(run);
    return fame::Status::OK();
  }

  void Step(Run* run) override {
    const uint64_t ts = last_ts_ + 1 + rng_->Uniform(1000);
    std::string key = Key(ts);
    rng_->Fill(&next_, kValueBytes);
    const std::string& oldest = keys_[head_];
    fame::Status s = run->Op(kWrite, [&] {
      fame::Status put = db_->Put(key, next_);
      return put.ok() ? db_->Remove(oldest) : put;
    });
    run->AddUserBytes(key.size() + next_.size() + oldest.size());
    if (s.ok()) {
      removed_ = keys_[head_];
      keys_[head_] = std::move(key);
      values_[head_] = next_;
      head_ = (head_ + 1) % kWindow;
      last_ts_ = ts;
    }
    if (++steps_ % kReadEvery != 0) return;

    uint64_t slot = (head_ + kWindow - kScanReadings) % kWindow;
    uint64_t rows = 0;
    bool match = true;
    // Built before the op, so its allocation is not charged to it.
    const RowVisitor visit = [&](const fame::Slice& k, const fame::Slice& v) {
      match = match && rows < kScanReadings && k == fame::Slice(keys_[slot]) &&
              v == fame::Slice(values_[slot]);
      slot = (slot + 1) % kWindow;
      ++rows;
      return true;
    };
    const std::string hi = Key(last_ts_ + 1);
    const std::string& lo = keys_[slot];
    s = run->Op(kScan, [&] { return db_->RangeScan(lo, hi, visit); });
    run->AddScanRows(rows);
    if (s.ok()) run->Check(match && rows == kScanReadings);

    const uint64_t i = (head_ + rng_->Uniform(kWindow)) % kWindow;
    s = run->Op(kGet, [&] { return db_->Get(keys_[i], &out_); });
    if (s.ok()) run->Check(out_ == values_[i]);
  }

  void VerifyAll(Run* run) override {
    for (uint64_t i = 0; i < kWindow; ++i) {
      fame::Status s = db_->Get(keys_[i], &out_);
      run->Verify(s.ok() && out_ == values_[i]);
    }
    if (!removed_.empty()) {
      run->Verify(db_->Get(removed_, &out_).IsNotFound());
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
    return c;
  }

  uint64_t StoredBytes() override { return env_->BytesOnMedium("log"); }
  uint64_t LiveUserBytes() override { return kWindow * (8 + kValueBytes); }
  uint64_t space_steps() const override { return kSpaceSteps; }

 private:
  std::unique_ptr<fame::osal::Env> mem_;
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<Product> db_;
  std::unique_ptr<Rng> rng_;
  // Oracle: the window as a ring, oldest reading at head_.
  std::vector<std::string> keys_, values_;
  uint64_t head_ = 0;
  uint64_t steps_ = 0;
  uint64_t last_ts_ = 0;
  std::string removed_, next_, out_;
};

std::unique_ptr<Workload> Make(const std::string&) {
  return std::make_unique<LoggerAppend>();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(argc, argv, "logger-append", perfbench::Make,
                         nullptr);
}
