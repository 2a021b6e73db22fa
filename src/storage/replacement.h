// Buffer replacement policies — the "Replacement" feature alternative in the
// FAME-DBMS feature diagram (LRU | LFU, plus Clock as an extension).
//
// A policy tracks *evictable* frames only: the buffer manager calls
// OnUnpinned when a frame's pin count drops to zero and OnPinned / OnRemoved
// when it becomes ineligible. Victim() picks among the tracked frames.
#ifndef FAME_STORAGE_REPLACEMENT_H_
#define FAME_STORAGE_REPLACEMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace fame::storage {

using FrameId = uint32_t;

/// Victim-selection strategy for the buffer manager.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Frame became evictable (pin count hit zero).
  virtual void OnUnpinned(FrameId frame) = 0;
  /// Frame was pinned (or evicted) and is no longer a candidate.
  virtual void OnRemoved(FrameId frame) = 0;
  /// A pinned access happened (LFU counts these; LRU ignores — recency is
  /// captured by OnUnpinned order).
  virtual void OnAccess(FrameId frame) = 0;
  /// Picks an eviction victim; false if no evictable frame exists.
  virtual bool Victim(FrameId* frame) = 0;
  /// Number of evictable frames tracked.
  virtual size_t Size() const = 0;

  virtual const char* name() const = 0;
};

/// Least-recently-used: victims in OnUnpinned order, refreshed per unpin.
/// Frame ids are dense small integers, so recency is an intrusive doubly
/// linked list threaded through a frame-indexed vector: every pin/unpin on
/// the buffer hot path is pure index surgery — the vector grows only the
/// first time a frame id appears (the old std::list version paid a heap
/// node new/delete per unpin).
class LruPolicy final : public ReplacementPolicy {
 public:
  void OnUnpinned(FrameId frame) override;
  void OnRemoved(FrameId frame) override;
  void OnAccess(FrameId /*frame*/) override {}
  bool Victim(FrameId* frame) override;
  size_t Size() const override { return count_; }
  const char* name() const override { return "lru"; }

 private:
  static constexpr FrameId kNil = ~FrameId{0};
  struct Node {
    FrameId prev = kNil;
    FrameId next = kNil;
    bool linked = false;
  };
  void Unlink(FrameId frame);

  std::vector<Node> nodes_;  // indexed by frame id
  FrameId head_ = kNil;      // least recently unpinned
  FrameId tail_ = kNil;      // most recently unpinned
  size_t count_ = 0;
};

/// Least-frequently-used with FIFO tie-breaking. Frequencies persist while a
/// frame stays resident (they reset on eviction, not on pin). Per-frame state
/// lives in a frame-indexed vector, like LruPolicy's, so pins and unpins
/// never allocate once every frame id has been seen.
class LfuPolicy final : public ReplacementPolicy {
 public:
  void OnUnpinned(FrameId frame) override;
  void OnRemoved(FrameId frame) override;
  void OnAccess(FrameId frame) override;
  bool Victim(FrameId* frame) override;
  size_t Size() const override { return count_; }
  const char* name() const override { return "lfu"; }

 private:
  struct Entry {
    uint64_t freq = 0;  // accesses + unpins since the frame's last eviction
    uint64_t seq = 0;   // order of the last unpin, for FIFO ties
    bool evictable = false;
  };
  Entry& At(FrameId frame);

  std::vector<Entry> frames_;  // indexed by frame id
  size_t count_ = 0;           // evictable frames
  uint64_t seq_ = 0;
};

/// Clock (second chance) — [extension] not in the paper's diagram; included
/// as a third alternative to exercise the feature-model tooling with a group
/// larger than two.
class ClockPolicy final : public ReplacementPolicy {
 public:
  void OnUnpinned(FrameId frame) override;
  void OnRemoved(FrameId frame) override;
  void OnAccess(FrameId frame) override;
  bool Victim(FrameId* frame) override;
  size_t Size() const override;
  const char* name() const override { return "clock"; }

 private:
  struct Entry {
    FrameId frame;
    bool referenced;
    bool present;
  };
  std::vector<Entry> ring_;
  std::unordered_map<FrameId, size_t> pos_;
  size_t hand_ = 0;
  size_t present_count_ = 0;
};

/// Factory by feature name ("lru", "lfu", "clock"); nullptr if unknown.
std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(
    const std::string& name);

}  // namespace fame::storage

#endif  // FAME_STORAGE_REPLACEMENT_H_
