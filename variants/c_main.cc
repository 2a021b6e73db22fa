// Entry point for the C-style ("preprocessor-configured") FameBDB variant
// binaries of Figure 1. The same source compiles into configurations 1-6 by
// varying FAMEBDB_HAVE_* macros (see variants/CMakeLists.txt), exactly how
// Berkeley DB's C build is configured.
//
// Modes:
//   (no args)      self-test: exercise every compiled-in feature, print OK
//   --bench N      run the Figure 1b workload: N point queries over 10k
//                  keys, print "mops=<millions of queries per second>"
//   --frames F     (after --bench N) buffer pool size; default 64
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bdb/c_style.h"
#include "variants/workload.h"

int main(int argc, char** argv) {
  using namespace fame;
  using namespace fame::bdb;

  auto env = osal::NewMemEnv(0);
  FameBdbC::Options opts;
  opts.env_flags = DB_CREATE;
  fame::variants::ApplyFramesArg(argc, argv, &opts.bundle.buffer_frames);
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
  opts.env_flags |= DB_INIT_TXN;
#endif
#if defined(FAMEBDB_HAVE_CRYPTO)
  opts.env_flags |= DB_ENCRYPT;
  opts.passphrase = "variant";
#endif
#if defined(FAMEBDB_HAVE_REPLICATION)
  opts.env_flags |= DB_INIT_REP;
#endif
  auto db_or = FameBdbC::Open(env.get(), "db", opts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  FameBdbC* db = db_or->get();

  if (argc >= 3 && std::strcmp(argv[1], "--bench") == 0) {
    uint64_t queries = std::strtoull(argv[2], nullptr, 10);
    double mops = fame::variants::RunQueryBenchmark(
        env.get(),
        [db](const Slice& k, const Slice& v) { return db->put(k, v); },
        [db](const Slice& k, std::string* v) { return db->get(k, v); },
        queries);
    std::printf("mops=%.3f\n", mops);
    return 0;
  }

  // ---- self-test touching every compiled-in feature ----
  if (!db->put("k", "v").ok()) return 2;
  std::string v;
  if (!db->get("k", &v).ok() || v != "v") return 2;
  if (!db->range_scan("a", "z", [](const Slice&, const Slice&) {
        return true;
      }).ok()) {
    return 2;
  }
#if defined(FAMEBDB_HAVE_HASH)
  {
    FameBdbC::Options hopts;
    hopts.env_flags = DB_CREATE;
    hopts.access_method = DB_HASH;
    auto hdb = FameBdbC::Open(env.get(), "hdb", hopts);
    if (!hdb.ok()) return 3;
    if (!(*hdb)->put("hk", "hv").ok()) return 3;
  }
#endif
#if defined(FAMEBDB_HAVE_QUEUE)
  {
    FameBdbC::Options qopts;
    qopts.env_flags = DB_CREATE;
    qopts.access_method = DB_QUEUE;
    qopts.queue_record_size = 32;
    auto qdb = FameBdbC::Open(env.get(), "qdb", qopts);
    if (!qdb.ok()) return 4;
    if (!(*qdb)->enqueue(std::string(32, 'q')).ok()) return 4;
    std::string rec;
    if (!(*qdb)->dequeue(&rec).ok()) return 4;
  }
#endif
#if defined(FAMEBDB_HAVE_TRANSACTIONS)
  {
    auto txn = db->txn_begin();
    if (!txn.ok()) return 5;
    if (!db->txn_put(*txn, "tk", "tv").ok()) return 5;
    if (!db->txn_commit(*txn).ok()) return 5;
  }
#endif
#if defined(FAMEBDB_HAVE_REPLICATION)
  {
    FameBdbC::Options ropts;
    auto rep = FameBdbC::Open(env.get(), "rep", ropts);
    if (!rep.ok()) return 6;
    if (!db->rep_subscribe(rep->get()).ok()) return 6;
    if (!db->put("r", "1").ok()) return 6;
    std::string rv;
    if (!(*rep)->get("r", &rv).ok() || rv != "1") return 6;
  }
#endif
  std::printf("%s ok\n", FAMEBDB_VARIANT_NAME);
  return 0;
}
