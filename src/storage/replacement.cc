#include "storage/replacement.h"

#include <string>

namespace fame::storage {

// ---------------------------------------------------------------- LRU

void LruPolicy::Unlink(FrameId frame) {
  Node& n = nodes_[frame];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = n.next = kNil;
  n.linked = false;
  --count_;
}

void LruPolicy::OnUnpinned(FrameId frame) {
  if (frame >= nodes_.size()) nodes_.resize(frame + 1);
  if (nodes_[frame].linked) Unlink(frame);
  Node& n = nodes_[frame];
  n.prev = tail_;
  n.next = kNil;
  n.linked = true;
  if (tail_ != kNil) {
    nodes_[tail_].next = frame;
  } else {
    head_ = frame;
  }
  tail_ = frame;
  ++count_;
}

void LruPolicy::OnRemoved(FrameId frame) {
  if (frame >= nodes_.size() || !nodes_[frame].linked) return;
  Unlink(frame);
}

bool LruPolicy::Victim(FrameId* frame) {
  if (head_ == kNil) return false;
  *frame = head_;
  Unlink(head_);
  return true;
}

// ---------------------------------------------------------------- LFU

LfuPolicy::Entry& LfuPolicy::At(FrameId frame) {
  if (frame >= frames_.size()) frames_.resize(frame + 1);
  return frames_[frame];
}

void LfuPolicy::OnUnpinned(FrameId frame) {
  Entry& e = At(frame);
  ++e.freq;
  e.seq = ++seq_;
  if (!e.evictable) {
    e.evictable = true;
    ++count_;
  }
}

void LfuPolicy::OnRemoved(FrameId frame) {
  // Called both when a frame is re-pinned (keep its frequency) and when it
  // is freed; only eviction through Victim() clears the frequency, because
  // the frame will hold a different page next.
  if (frame >= frames_.size() || !frames_[frame].evictable) return;
  frames_[frame].evictable = false;
  --count_;
}

void LfuPolicy::OnAccess(FrameId frame) { ++At(frame).freq; }

bool LfuPolicy::Victim(FrameId* frame) {
  if (count_ == 0) return false;
  FrameId best = 0;
  uint64_t best_freq = ~0ull;
  uint64_t best_seq = ~0ull;
  for (FrameId f = 0; f < frames_.size(); ++f) {
    const Entry& e = frames_[f];
    if (!e.evictable) continue;
    if (e.freq < best_freq || (e.freq == best_freq && e.seq < best_seq)) {
      best = f;
      best_freq = e.freq;
      best_seq = e.seq;
    }
  }
  frames_[best] = Entry{};
  --count_;
  *frame = best;
  return true;
}

// ---------------------------------------------------------------- Clock

void ClockPolicy::OnUnpinned(FrameId frame) {
  auto it = pos_.find(frame);
  if (it != pos_.end()) {
    Entry& e = ring_[it->second];
    if (!e.present) {
      e.present = true;
      ++present_count_;
    }
    e.referenced = true;
    return;
  }
  pos_[frame] = ring_.size();
  ring_.push_back(Entry{frame, true, true});
  ++present_count_;
}

void ClockPolicy::OnRemoved(FrameId frame) {
  auto it = pos_.find(frame);
  if (it == pos_.end()) return;
  Entry& e = ring_[it->second];
  if (e.present) {
    e.present = false;
    --present_count_;
  }
}

void ClockPolicy::OnAccess(FrameId frame) {
  auto it = pos_.find(frame);
  if (it != pos_.end()) ring_[it->second].referenced = true;
}

bool ClockPolicy::Victim(FrameId* frame) {
  if (present_count_ == 0 || ring_.empty()) return false;
  // Sweep at most two full revolutions: one to clear reference bits, one to
  // pick.
  for (size_t sweep = 0; sweep < 2 * ring_.size(); ++sweep) {
    Entry& e = ring_[hand_];
    hand_ = (hand_ + 1) % ring_.size();
    if (!e.present) continue;
    if (e.referenced) {
      e.referenced = false;
      continue;
    }
    e.present = false;
    --present_count_;
    *frame = e.frame;
    return true;
  }
  return false;
}

size_t ClockPolicy::Size() const { return present_count_; }

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(
    const std::string& name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "lfu") return std::make_unique<LfuPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  return nullptr;
}

}  // namespace fame::storage
