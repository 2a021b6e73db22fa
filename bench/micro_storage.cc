// Micro-benchmarks (google-benchmark) for the storage substrate: slotted
// page operations, the CRC-32 behind every page seal and verify,
// buffer-manager behaviour under the replacement alternatives (LRU vs LFU
// vs Clock) at varying skew, and heap inserts against growing heaps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "osal/allocator.h"
#include "osal/env.h"
#include "storage/buffer.h"
#include "storage/pagefile.h"
#include "storage/record.h"

namespace fame::storage {
namespace {

void BM_PageInsert(benchmark::State& state) {
  std::string buf(4096, 0);
  Page page(buf.data(), buf.size());
  std::string rec(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    page.Init(PageType::kHeap);
    while (page.Insert(rec).ok()) {
    }
  }
  state.SetLabel(std::to_string(state.range(0)) + "B records");
}
BENCHMARK(BM_PageInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_PageChecksum(benchmark::State& state) {
  std::string buf(4096, 0);
  Page page(buf.data(), buf.size());
  page.Init(PageType::kHeap);
  while (page.Insert("some record data").ok()) {
  }
  for (auto _ : state) {
    page.SealChecksum();
    benchmark::DoNotOptimize(page.VerifyChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_PageChecksum);

/// Crc32 over `range(0)` bytes starting `range(1)` bytes into a buffer, so
/// a slowdown on unaligned input shows beside the aligned number.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t offset = static_cast<size_t>(state.range(1));
  Random rng(32);
  std::string buf = rng.NextString(offset + n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data() + offset, n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{64, 1024, 4096}, {0, 3}});

/// Buffer pool of 64 frames over 512 pages, point fetches with Zipf-ish
/// skew; reports the hit rate per policy.
void BM_BufferFetchSkewed(benchmark::State& state) {
  const char* policies[] = {"lru", "lfu", "clock"};
  const char* policy = policies[state.range(0)];
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  auto file = PageFile::Open(env.get(), "db", PageFileOptions{});
  if (!file.ok()) {
    state.SkipWithError("page file open failed");
    return;
  }
  auto bm = BufferManager::Create(file->get(), 64, &alloc,
                                  MakeReplacementPolicy(policy));
  if (!bm.ok()) {
    state.SkipWithError("buffer manager create failed");
    return;
  }
  std::vector<PageId> pages;
  for (int i = 0; i < 512; ++i) {
    auto guard = (*bm)->New(PageType::kHeap);
    if (!guard.ok()) {
      state.SkipWithError("page alloc failed");
      return;
    }
    pages.push_back(guard->id());
  }
  Random rng(99);
  (*bm)->ResetStats();
  for (auto _ : state) {
    auto guard = (*bm)->Fetch(pages[rng.Skewed(pages.size())]);
    benchmark::DoNotOptimize(guard);
  }
  state.SetLabel(std::string(policy) + " hit-rate=" +
                 std::to_string((*bm)->stats().HitRate()));
}
BENCHMARK(BM_BufferFetchSkewed)->Arg(0)->Arg(1)->Arg(2);

void BM_StaticPoolVsMalloc(benchmark::State& state) {
  bool use_pool = state.range(0) == 1;
  osal::StaticPoolAllocator pool(1 << 20);
  osal::DynamicAllocator heap;
  osal::Allocator* alloc =
      use_pool ? static_cast<osal::Allocator*>(&pool) : &heap;
  for (auto _ : state) {
    void* a = alloc->Allocate(256);
    void* b = alloc->Allocate(1024);
    alloc->Deallocate(a, 256);
    alloc->Deallocate(b, 1024);
  }
  state.SetLabel(use_pool ? "static pool" : "heap");
}
BENCHMARK(BM_StaticPoolVsMalloc)->Arg(0)->Arg(1);

/// Heap inserts of 100 B records into a heap of `range(0)` full 1 KiB pages
/// over an 8-frame pool, as on the SensorLogger product. The
/// fetches_per_insert counter is the buffer fetches one insert makes: it
/// stays flat as the heap grows when first fit needs no chain walk. Every
/// 256 inserts the batch is deleted untimed, so the heap keeps its size.
void BM_HeapInsert(benchmark::State& state) {
  const int64_t pages = state.range(0);
  auto env = osal::NewMemEnv(0);
  osal::DynamicAllocator alloc;
  PageFileOptions opts;
  opts.page_size = 1024;
  auto file = PageFile::Open(env.get(), "db", opts);
  if (!file.ok()) {
    state.SkipWithError("page file open failed");
    return;
  }
  auto bm = BufferManager::Create(file->get(), 8, &alloc,
                                  MakeReplacementPolicy("lfu"));
  if (!bm.ok()) {
    state.SkipWithError("buffer manager create failed");
    return;
  }
  auto rm = RecordManager::Open(bm->get(), "heap");
  if (!rm.ok()) {
    state.SkipWithError("heap open failed");
    return;
  }
  const std::string rec(100, 'r');
  // Fill until the chain holds `pages` pages; the tail has one record.
  PageId tail = kInvalidPageId;
  for (int64_t seen = 0; seen < pages;) {
    auto rid = (*rm)->Insert(rec);
    if (!rid.ok()) {
      state.SkipWithError("heap fill failed");
      return;
    }
    if (rid->page != tail) {
      tail = rid->page;
      ++seen;
    }
  }
  std::vector<Rid> batch;
  batch.reserve(256);
  uint64_t fetches = 0;
  auto take_fetches = [&] {
    const BufferStats st = (*bm)->stats();
    fetches += st.hits + st.misses;
    (*bm)->ResetStats();
  };
  (*bm)->ResetStats();
  for (auto _ : state) {
    auto rid = (*rm)->Insert(rec);
    if (!rid.ok()) {
      state.SkipWithError("insert failed");
      break;
    }
    batch.push_back(*rid);
    if (batch.size() == batch.capacity()) {
      state.PauseTiming();
      take_fetches();
      for (const Rid& r : batch) benchmark::DoNotOptimize((*rm)->Delete(r));
      batch.clear();
      (*bm)->ResetStats();
      state.ResumeTiming();
    }
  }
  take_fetches();
  state.counters["fetches_per_insert"] =
      static_cast<double>(fetches) /
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.SetLabel(std::to_string(pages) + " heap pages");
}
BENCHMARK(BM_HeapInsert)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace fame::storage

BENCHMARK_MAIN();
