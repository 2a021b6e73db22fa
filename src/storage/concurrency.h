// Threading policies for the storage substrate — the compile-time half of
// the optional "Concurrency" Storage feature (see DESIGN.md §10).
//
// A policy supplies the synchronization vocabulary the buffer manager is
// written against: mutex types, shared (reader/writer) mutexes, pin
// counters, and stats counters. Two policies exist:
//
//   - SingleThreaded (this header): every primitive is a no-op or a plain
//     integer. Products that deselect Concurrency instantiate the buffer
//     manager against it and compile to exactly the code the
//     single-threaded engine always had — no <mutex>, no <atomic>, no
//     fences anywhere in the hot path. This header deliberately includes
//     no threading headers so that property is checkable by inspection.
//
//   - MultiThreaded (concurrency_mt.h): real std::mutex / std::shared_mutex
//     / std::atomic. Only translation units that select the Concurrency
//     feature include that header, so deselected products never pull
//     threading code into the buffer path.
#ifndef FAME_STORAGE_CONCURRENCY_H_
#define FAME_STORAGE_CONCURRENCY_H_

#include <cstddef>
#include <cstdint>

namespace fame::storage {

/// Scoped exclusive lock over any type with lock()/unlock(). Local stand-in
/// for std::lock_guard so SingleThreaded code never includes <mutex>.
template <typename M>
class LockGuard {
 public:
  explicit LockGuard(M& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& m_;
};

/// Scoped shared lock over any type with lock_shared()/unlock_shared().
template <typename M>
class SharedLockGuard {
 public:
  explicit SharedLockGuard(M& m) : m_(m) { m_.lock_shared(); }
  ~SharedLockGuard() { m_.unlock_shared(); }
  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  M& m_;
};

/// The zero-overhead policy: single shard, no-op locks, plain counters.
/// Instantiating the buffer manager with this policy reproduces the
/// original single-threaded engine exactly.
struct SingleThreaded {
  static constexpr bool kConcurrent = false;
  /// One partition: page-id hashing degenerates to a constant the
  /// compiler folds away.
  static constexpr size_t kDefaultShards = 1;
  static constexpr size_t kMinShardFrames = 1;

  struct Mutex {
    void lock() {}
    void unlock() {}
  };
  struct SharedMutex {
    void lock() {}
    void unlock() {}
    void lock_shared() {}
    void unlock_shared() {}
  };

  /// Frame pin count; plain integer, no fences.
  using PinCount = uint32_t;
  /// Stats counter; plain integer.
  using Counter = uint64_t;
  /// Dirty flag.
  using Flag = bool;
  /// Word-sized cell (frame -> page mapping) readable outside locks.
  using U32Cell = uint32_t;
};

}  // namespace fame::storage

#endif  // FAME_STORAGE_CONCURRENCY_H_
