// Shared Figure 1b workload: load 10k key/value pairs, then time N point
// queries with a skewed (hot-key) access pattern — the read-mostly shape of
// the paper's "Mio. queries / s" benchmark.
#ifndef FAME_VARIANTS_WORKLOAD_H_
#define FAME_VARIANTS_WORKLOAD_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/keys.h"
#include "osal/env.h"

namespace fame::variants {

inline constexpr uint64_t kLoadKeys = 10'000;

/// Applies `--bench N --frames F`: F buffer frames instead of the default.
inline void ApplyFramesArg(int argc, char** argv, size_t* frames) {
  if (argc >= 5 && std::strcmp(argv[3], "--frames") == 0) {
    *frames = static_cast<size_t>(std::strtoull(argv[4], nullptr, 10));
  }
}

/// Runs the standard workload; returns millions of queries per second.
/// Exits the process on unexpected errors (variant binaries are tiny test
/// drivers, not library code).
inline double RunQueryBenchmark(
    osal::Env* env,
    const std::function<Status(const Slice&, const Slice&)>& put,
    const std::function<Status(const Slice&, std::string*)>& get,
    uint64_t queries) {
  Random rng(42);
  for (uint64_t i = 0; i < kLoadKeys; ++i) {
    std::string key = index::EncodeU64Key(i);
    std::string value = "value-" + std::to_string(i);
    Status s = put(key, value);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      std::exit(10);
    }
  }
  std::string v;
  uint64_t start = env->NowNanos();
  for (uint64_t q = 0; q < queries; ++q) {
    std::string key = index::EncodeU64Key(rng.Skewed(kLoadKeys));
    Status s = get(key, &v);
    if (!s.ok()) {
      std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
      std::exit(11);
    }
  }
  uint64_t elapsed = env->NowNanos() - start;
  if (elapsed == 0) elapsed = 1;
  return static_cast<double>(queries) * 1000.0 /
         static_cast<double>(elapsed);
}

}  // namespace fame::variants

#endif  // FAME_VARIANTS_WORKLOAD_H_
