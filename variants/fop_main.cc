// Entry point for the FOP ("FeatureC++") FameBDB variant binaries of
// Figure 1. One source, compiled once per configuration with
// FAMEBDB_FOP_CONFIG selecting the product alias (1..5, 7, 8); only the
// layers of that product are instantiated, so each binary carries exactly
// its configuration's code.
//
// Modes match c_main.cc: self-test (default) and `--bench N [--frames F]`.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bdb/fop/products.h"
#include "variants/workload.h"

namespace {

using namespace fame;
using namespace fame::bdb;
using namespace fame::bdb::fop;

#if FAMEBDB_FOP_CONFIG == 1
using Product = FopComplete;
#elif FAMEBDB_FOP_CONFIG == 2
using Product = FopNoCrypto;
#elif FAMEBDB_FOP_CONFIG == 3
using Product = FopNoHash;
#elif FAMEBDB_FOP_CONFIG == 4
using Product = FopNoReplication;
#elif FAMEBDB_FOP_CONFIG == 5
using Product = FopNoQueue;
#elif FAMEBDB_FOP_CONFIG == 7
using Product = FopMinimalBtree;
#elif FAMEBDB_FOP_CONFIG == 8
using Product = FopMinimalList;
#else
#error "FAMEBDB_FOP_CONFIG must be one of 1..5, 7, 8"
#endif

template <typename P>
concept HasCrypto = requires(P p) { p.SetPassphrase(""); };
template <typename P>
concept HasQueue = requires(P p) { p.EnableQueue(32u); };
template <typename P>
concept HasHash = requires(P p) { p.EnableHashStore(); };
template <typename P>
concept HasTx = requires(P p) { p.EnableTransactions(); };
template <typename P>
concept HasStats = requires(P p) { p.puts(); };

template <typename Product>
int Run(int argc, char** argv) {
  auto env = osal::NewMemEnv(0);
  Product db;
  BundleOptions bundle;
  variants::ApplyFramesArg(argc, argv, &bundle.buffer_frames);
  if (!db.Open(env.get(), "db", bundle).ok()) return 1;
  if constexpr (HasCrypto<Product>) {
    db.SetPassphrase("variant");
  }
  if constexpr (HasQueue<Product>) {
    if (!db.EnableQueue(32).ok()) return 1;
  }
  if constexpr (HasHash<Product>) {
    if (!db.EnableHashStore().ok()) return 1;
  }
  if constexpr (HasTx<Product>) {
    if (!db.EnableTransactions().ok()) return 1;
  }

  if (argc >= 3 && std::strcmp(argv[1], "--bench") == 0) {
    uint64_t queries = std::strtoull(argv[2], nullptr, 10);
    double mops = variants::RunQueryBenchmark(
        env.get(),
        [&db](const Slice& k, const Slice& v) { return db.Put(k, v); },
        [&db](const Slice& k, std::string* v) { return db.Get(k, v); },
        queries);
    std::printf("mops=%.3f\n", mops);
    return 0;
  }

  // ---- self-test touching every composed layer ----
  if (!db.Put("k", "v").ok()) return 2;
  std::string v;
  if (!db.Get("k", &v).ok() || v != "v") return 2;
  if constexpr (Product::kOrdered) {
    if (!db.RangeScan("a", "z", [](const Slice&, const Slice&) {
          return true;
        }).ok()) {
      return 2;
    }
  }
  if constexpr (HasQueue<Product>) {
    if (!db.Enqueue(std::string(32, 'q')).ok()) return 4;
    std::string rec;
    if (!db.Dequeue(&rec).ok()) return 4;
  }
  if constexpr (HasHash<Product>) {
    if (!db.HashPut("hk", "hv").ok()) return 3;
    std::string hv;
    if (!db.HashGet("hk", &hv).ok() || hv != "hv") return 3;
  }
  if constexpr (HasTx<Product>) {
    auto txn = db.TxnBegin();
    if (!txn.ok()) return 5;
    if (!db.TxnPut(*txn, "tk", "tv").ok()) return 5;
    if (!db.TxnCommit(*txn).ok()) return 5;
  }
  if constexpr (HasStats<Product>) {
    if (db.puts() == 0) return 6;
  }
  std::printf("%s ok\n", FAMEBDB_VARIANT_NAME);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run<Product>(argc, argv); }
