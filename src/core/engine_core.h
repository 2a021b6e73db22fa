// EngineCore: the one implementation of the engine-level access path —
// heap-record encoding, index maintenance on Put/Remove, and the
// heap-joining cursor — shared by both composition styles through the
// engine shell (core/engine_shell.h). Database instantiates it over the
// virtual index::KeyValueIndex (component composition, §2.1);
// StaticEngine<Cfg> over the concrete index type of the product
// (FeatureC++-style, §2.3), so every call devirtualizes. Feature gating,
// latching and tx plumbing stay in the shell.
//
// Record format in the heap: [varint32 klen][key][value], read and written
// only through the record codec below (SplitRecord / RecordValue /
// EncodeRecord). The key is embedded so a record is self-identifying — Get
// cross-checks it against the index to catch a stale or cross-linked rid as
// Corruption instead of returning another key's value.
//
// Reads have one loop per traversal shape (VisitRange, VisitPrefix,
// VisitReverse), generic over the cursor: the plain heap-joining
// EngineCursor, or the [feature Mvcc] SnapshotCursor that resolves each
// position's version chain. The shell picks the cursor; the loops are the
// same code for both.
#ifndef FAME_CORE_ENGINE_CORE_H_
#define FAME_CORE_ENGINE_CORE_H_

#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "index/cursor.h"
#include "obs/obs.h"
#if FAME_OBS_ENABLED
#include "obs/metrics.h"
#endif
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif
#include "storage/record.h"
#include "tx/mvcc.h"

namespace fame::core {

/// Engine-level visitor: (key, value bytes) -> keep-going.
using KvVisitor = std::function<bool(const Slice& key, const Slice& value)>;

/// Records at most this big are staged in fixed buffers on the hot paths
/// (Put's stack frame, the cursor's inline record); bigger ones spill to a
/// heap string. Sized past any embedded product's page payload so the
/// spill path is effectively cold.
inline constexpr size_t kInlineRecordBytes = 512;

/// The index probe and the heap fetch are not one atomic step: in a
/// concurrent product a writer can relocate a record between them (a
/// version chain outgrowing its slot moves to a new page and re-points
/// the index entry), so the just-read rid may address a freed or reused
/// slot. Readers re-descend to the same key for a fresh rid and retry —
/// bounded, so genuine corruption (a stale rid in a quiesced database)
/// still surfaces after this many refreshes.
inline constexpr int kStaleJoinRetries = 8;

// ---- core record codec: [varint32 klen][key][value] ----

/// Splits a core record into its key and value; false when the bytes
/// cannot possibly be a record.
inline bool SplitRecord(const Slice& rec, Slice* key, Slice* value) {
  Slice in = rec;
  uint32_t klen = 0;
  if (!GetVarint32(&in, &klen) || in.size() < klen) return false;
  *key = Slice(in.data(), klen);
  *value = Slice(in.data() + klen, in.size() - klen);
  return true;
}

/// The value of `rec`, checked to be the record of `key`: Corruption for
/// bytes that are not a record or that belong to another key (a stale or
/// cross-linked rid).
inline Status RecordValue(const Slice& rec, const Slice& key, Slice* value) {
  Slice stored;
  if (!SplitRecord(rec, &stored, value)) {
    return Status::Corruption("bad core record");
  }
  if (stored != key) {
    return Status::Corruption("index points at the wrong record");
  }
  return Status::OK();
}

inline std::string EncodeRecord(const Slice& key, const Slice& value) {
  std::string rec;
  PutVarint32(&rec, static_cast<uint32_t>(key.size()));
  rec.append(key.data(), key.size());
  rec.append(value.data(), value.size());
  return rec;
}

/// Encodes into `buf` when the record fits (the common case on embedded
/// products — Put stays heap-free), else into `*spill`.
inline Slice EncodeRecordInto(const Slice& key, const Slice& value, char* buf,
                              size_t cap, std::string* spill) {
  const size_t worst = 5 + key.size() + value.size();  // varint32 <= 5
  if (worst > cap) {
    *spill = EncodeRecord(key, value);
    return Slice(*spill);
  }
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(key.size()));
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  return Slice(buf, static_cast<size_t>(p - buf));
}

/// Pull-based cursor over engine records: iterates the index cursor and
/// joins each entry's Rid through the RecordManager *lazily* — value() does
/// the heap fetch on first use per position, so key-only consumers (LIMIT
/// probes, prefix checks, COUNT) never touch the heap.
///
/// Same protocol as index::Cursor (Seek*/Valid/Next/key/status, reverse
/// ops when the access method supports them); value() is the engine-level
/// difference: it returns the record bytes and, on a heap IO/decode
/// failure, records the error in status() and invalidates the cursor so
/// consumer loops terminate.
class EngineCursor {
 public:
  EngineCursor(std::unique_ptr<index::Cursor> base,
               storage::RecordManager* heap)
      : base_(std::move(base)), heap_(heap) {}

  // Movable, not copyable. The moved-from cursor is left invalid and
  // flushes nothing; the target re-loads its value lazily (value_ points
  // into record_, which SSO may relocate on move).
  EngineCursor(EngineCursor&& o) noexcept
      : base_(std::move(o.base_)),
        heap_(o.heap_),
        record_(std::move(o.record_)),
        status_(std::move(o.status_)) {
    FAME_OBS(TakeMetrics(o);)
  }
  EngineCursor& operator=(EngineCursor&& o) noexcept {
    if (this != &o) {
      FAME_OBS(FlushMetrics(/*closing=*/true);)
      base_ = std::move(o.base_);
      heap_ = o.heap_;
      record_ = std::move(o.record_);
      loaded_ = false;
      status_ = std::move(o.status_);
      FAME_OBS(TakeMetrics(o);)
    }
    return *this;
  }
  ~EngineCursor() { FAME_OBS(FlushMetrics(/*closing=*/true);) }

#if FAME_OBS_ENABLED
  /// [feature Observability] Wires the flush target for this cursor's
  /// counters. Counters accumulate in plain locals (a cursor has one
  /// owner, so this is race-free even in concurrent products) and flush
  /// on every Seek and on destruction.
  void set_sink(obs::CursorSink sink) {
    sink_ = sink;
    if (sink_.track_open != nullptr) sink_.track_open(sink_.ctx, true);
  }
#endif

  void SeekToFirst() {
    Reset();
    FAME_OBS(++seeks_;)
    base_->SeekToFirst();
  }
  void Seek(const Slice& target) {
    Reset();
    FAME_OBS(++seeks_;)
    base_->Seek(target);
  }
  bool Valid() const { return status_.ok() && base_->Valid(); }
  void Next() {
    loaded_ = false;
    FAME_OBS(++scanned_;)
    base_->Next();
  }

  /// Key at the current position (stable until the next cursor call).
  Slice key() const { return base_->key(); }

  /// Record value, joined through the heap on first call per position.
  /// On failure returns empty, sets status() and invalidates the cursor.
  Slice value() {
    if (!loaded_ && !Load()) return Slice();
    return value_;
  }

  /// OK, or the first error from either the index walk or the heap join.
  const Status& status() const {
    return status_.ok() ? base_->status() : status_;
  }

  // ---- ReverseScan feature (availability follows the access method) ----
  bool SupportsReverse() const { return base_->SupportsReverse(); }
  void SeekToLast() {
    Reset();
    FAME_OBS(++seeks_;)
    base_->SeekToLast();
  }
  void Prev() {
    loaded_ = false;
    FAME_OBS(++scanned_;)
    base_->Prev();
  }

 private:
  void Reset() {
    FAME_OBS(FlushMetrics(/*closing=*/false);)
    loaded_ = false;
    status_ = Status::OK();
  }

  bool Load() {
    Status s = TryLoad();
    // A failed join usually means the rid went stale under a concurrent
    // writer (kStaleJoinRetries): re-descend to the same key — the index
    // cursor's Seek re-reads the leaf, picking up the relocated rid — and
    // retry. A key that vanished outright (pruned by a concurrent GC
    // sweep; it had no visible version) ends the retries: Seek lands past
    // it and the error surfaces to the consumer as before.
    for (int attempt = 0; !s.ok() && attempt < kStaleJoinRetries; ++attempt) {
      std::string k(base_->key().data(), base_->key().size());
      base_->Seek(Slice(k));
      if (!base_->Valid() || base_->key() != Slice(k)) break;
      s = TryLoad();
    }
    if (s.ok()) return true;
    // A mid-scan heap-join failure invalidates the cursor; tag it in the
    // trace so a truncated scan is attributable to the exact position.
    FAME_OBS_TRACE(obs::Trace::Record(obs::SpanKind::kCursor,
                                      obs::TraceOp::kScan, scanned_,
                                      returned_, /*error=*/true);)
    status_ = std::move(s);
    return false;
  }

  /// One join attempt at the current position; OK caches the value.
  Status TryLoad() {
    storage::Rid rid = storage::Rid::Unpack(base_->value());
    // Inline-first heap join: the typical embedded record lands in the
    // fixed buffer so per-row loads never touch the heap; oversize records
    // spill to the owned string.
    size_t len = 0;
    Status s = heap_->Get(rid, inline_rec_, sizeof(inline_rec_), &len);
    Slice rec(inline_rec_, len);
    if (s.ok() && len > sizeof(inline_rec_)) {
      s = heap_->Get(rid, &record_);
      rec = Slice(record_);
    }
    FAME_RETURN_IF_ERROR(s);
    FAME_RETURN_IF_ERROR(RecordValue(rec, base_->key(), &value_));
    loaded_ = true;
    FAME_OBS(++returned_;)
    return Status::OK();
  }

#if FAME_OBS_ENABLED
  /// Adds the accumulated counters to the sink and zeroes them; `closing`
  /// also drops the open-cursor gauge and detaches the sink.
  void FlushMetrics(bool closing) {
    if (sink_.flush != nullptr && (seeks_ | scanned_ | returned_) != 0) {
      sink_.flush(sink_.ctx, seeks_, scanned_, returned_);
    }
    seeks_ = scanned_ = returned_ = 0;
    if (closing && sink_.track_open != nullptr) {
      sink_.track_open(sink_.ctx, false);
      sink_ = obs::CursorSink{};
    }
  }

  /// Move helper: steal the source's counters and sink, detaching them
  /// from the source so its destructor flushes nothing.
  void TakeMetrics(EngineCursor& o) {
    sink_ = o.sink_;
    seeks_ = o.seeks_;
    scanned_ = o.scanned_;
    returned_ = o.returned_;
    o.sink_ = obs::CursorSink{};
    o.seeks_ = o.scanned_ = o.returned_ = 0;
  }
#endif

  std::unique_ptr<index::Cursor> base_;
  storage::RecordManager* heap_;
  char inline_rec_[kInlineRecordBytes];  // common case: record lives here
  std::string record_;     // spill for records bigger than the inline buf
  Slice value_;            // value bytes within inline_rec_ or record_
  bool loaded_ = false;
  Status status_;
#if FAME_OBS_ENABLED
  obs::CursorSink sink_;
  uint64_t seeks_ = 0;
  uint64_t scanned_ = 0;
  uint64_t returned_ = 0;
#endif
};

/// [feature Mvcc] Heap-joining cursor frozen at one snapshot timestamp:
/// wraps an EngineCursor whose joined values are version chains and
/// resolves each position through tx::mvcc::VisibleAt, skipping keys with
/// no visible version (never written before the snapshot, or deleted by a
/// tombstone the snapshot can see). Concurrent writers that commit after
/// this cursor's ts only *prepend* chain entries, so every position keeps
/// resolving to exactly the version the snapshot saw — that is the
/// snapshot-stability guarantee the cursor conformance suite checks.
///
/// Concurrency model (the `mgr` argument): MVCC readers take no table
/// locks, so writers stay free to commit during a scan — but a commit can
/// physically move bytes (heap-page compaction, record relocation, B+-tree
/// splits up to a root change), and the engine composes the footprint-free
/// SingleThreaded buffer pool whose frame pin counts are plain integers,
/// so even two *readers* must not touch the pool concurrently. Each cursor
/// *step* therefore runs under MvccManager::PhysLatch() held exclusive
/// (appliers hold it exclusive per mutation too), and Next()/Prev()
/// re-descend from the last returned key instead of trusting the base
/// cursor's pinned-leaf position, which a split may have restructured
/// between steps. The latch spans one step, never the whole scan: a
/// reader never blocks on a writer *transaction* (there are no row locks
/// and commits hold the latch only per physical mutation), it only queues
/// behind one descent + heap join. Without a manager there is no latch,
/// and the cheap pinned-leaf stepping is kept as-is.
///
/// All members are inline and only emitted when odr-used, so products
/// without the Mvcc sub-feature never reference the mvcc codec objects.
class SnapshotCursor {
 public:
  /// `mgr` (optional) is the oracle the snapshot was registered with via
  /// BeginSnapshot(): the cursor owns that registration and releases it on
  /// destruction. Without the pin, a concurrent write's inline prune
  /// (prune_below = Watermark()) could drop the very versions this cursor
  /// still resolves — the watermark must not advance past ts_ while the
  /// cursor lives. `mgr` also supplies the per-step physical latch.
  SnapshotCursor(EngineCursor base, uint64_t ts,
                 tx::mvcc::MvccManager* mgr = nullptr)
      : base_(std::move(base)), ts_(ts), mgr_(mgr) {}
  ~SnapshotCursor() {
    if (mgr_ != nullptr) mgr_->ReleaseSnapshot(ts_);
  }
  SnapshotCursor(SnapshotCursor&& o) noexcept
      : base_(std::move(o.base_)),
        ts_(o.ts_),
        value_(o.value_),
        status_(std::move(o.status_)),
        pos_(std::move(o.pos_)),
        has_pos_(o.has_pos_),
        mgr_(o.mgr_) {
    o.mgr_ = nullptr;
  }
  SnapshotCursor& operator=(SnapshotCursor&& o) noexcept {
    if (this != &o) {
      if (mgr_ != nullptr) mgr_->ReleaseSnapshot(ts_);
      base_ = std::move(o.base_);
      ts_ = o.ts_;
      value_ = o.value_;
      status_ = std::move(o.status_);
      pos_ = std::move(o.pos_);
      has_pos_ = o.has_pos_;
      mgr_ = o.mgr_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  SnapshotCursor(const SnapshotCursor&) = delete;
  SnapshotCursor& operator=(const SnapshotCursor&) = delete;

  void SeekToFirst() {
    auto step = LockStep();
    base_.SeekToFirst();
    Settle(/*forward=*/true);
  }
  void Seek(const Slice& target) {
    auto step = LockStep();
    base_.Seek(target);
    Settle(/*forward=*/true);
  }
  bool Valid() const { return status_.ok() && base_.Valid(); }
  void Next() {
    auto step = LockStep();
    if (mgr_ != nullptr && has_pos_) {
      // Fresh descent to the last settled key: the base cursor's pinned
      // leaf may have been split or compacted since the previous step, so
      // its cached position (leaf frame, entry index, entry count) cannot
      // be trusted across the latch gap. Seek lands at the smallest key
      // >= pos_ on the *current* structure; stepping past pos_ itself
      // (when still present) yields the successor.
      base_.Seek(Slice(pos_));
      if (base_.Valid() && base_.key() == Slice(pos_)) base_.Next();
    } else {
      base_.Next();
    }
    Settle(/*forward=*/true);
  }
  /// The settled key. Returned from the cursor-owned copy captured under
  /// the step latch — the base cursor's key() Slice points into a pinned
  /// page frame that a concurrent writer may rewrite between steps.
  Slice key() const { return Slice(pos_); }
  /// Visible version's value bytes (stable until the next cursor call;
  /// the EngineCursor owns a copy of the record, so concurrent page
  /// motion cannot touch it).
  Slice value() const { return value_; }
  const Status& status() const {
    return status_.ok() ? base_.status() : status_;
  }

  bool SupportsReverse() const { return base_.SupportsReverse(); }
  void SeekToLast() {
    auto step = LockStep();
    base_.SeekToLast();
    Settle(/*forward=*/false);
  }
  void Prev() {
    auto step = LockStep();
    if (mgr_ != nullptr && has_pos_) {
      // Predecessor via fresh descent: land at the smallest key >= pos_,
      // then one step back. When every key is now < pos_ the predecessor
      // is the last key overall.
      base_.Seek(Slice(pos_));
      if (base_.Valid()) {
        base_.Prev();
      } else if (base_.status().ok()) {
        base_.SeekToLast();
      }
    } else {
      base_.Prev();
    }
    Settle(/*forward=*/false);
  }

  uint64_t snapshot_ts() const { return ts_; }

 private:
  /// Physical latch for one step (no-op without a latch manager). Held
  /// exclusive, not shared: the underlying SingleThreaded buffer pool
  /// keeps pin counts as plain integers, so concurrent reader steps would
  /// race on them even though neither moves bytes.
  std::unique_lock<std::shared_mutex> LockStep() {
    return mgr_ != nullptr
               ? std::unique_lock<std::shared_mutex>(mgr_->PhysLatch())
               : std::unique_lock<std::shared_mutex>();
  }

  /// Advances past positions with no version visible at ts_; stops on the
  /// first visible one (caching its value and key) or on chain corruption.
  void Settle(bool forward) {
    while (base_.Valid()) {
      Slice chain = base_.value();
      if (!base_.Valid()) return;  // heap join failed; base status has it
      tx::mvcc::Version v;
      Status s = tx::mvcc::VisibleAt(chain, ts_, &v);
      if (s.ok()) {
        value_ = v.value;
        pos_.assign(base_.key().data(), base_.key().size());
        has_pos_ = true;
        return;
      }
      if (!s.IsNotFound()) {
        status_ = s;
        return;
      }
      if (forward) {
        base_.Next();
      } else {
        base_.Prev();
      }
    }
  }

  EngineCursor base_;
  uint64_t ts_;
  Slice value_;       // within base_'s record buffer (cursor-owned copy)
  Status status_;
  std::string pos_;   // settled key; re-descent anchor and key() storage
  bool has_pos_ = false;
  tx::mvcc::MvccManager* mgr_ = nullptr;  // released on destruction
};

// ---- visitor loops, one per traversal shape ----
// Generic over the cursor: an EngineCursor (plain records) or a
// SnapshotCursor (each position resolved at its snapshot, invisible keys
// skipped). The visitor sees (key, value bytes) and returns keep-going; a
// failed heap join or chain corruption ends the walk and is returned.

/// lo <= key < hi, ascending (empty bounds are open). `ordered` must match
/// the access method: when false, out-of-range keys are filtered instead of
/// terminating the walk.
template <typename Cursor>
Status VisitRange(Cursor& c, const Slice& lo, const Slice& hi, bool ordered,
                  const KvVisitor& fn) {
  if (lo.empty()) {
    c.SeekToFirst();
  } else {
    c.Seek(lo);
  }
  for (; c.Valid(); c.Next()) {
    if (!hi.empty() && c.key().compare(hi) >= 0) {
      if (ordered) break;
      continue;
    }
    Slice v = c.value();
    if (!c.Valid()) break;  // heap join failed; status() has the error
    if (!fn(c.key(), v)) break;
  }
  return c.status();
}

/// All records whose key starts with `prefix`: a bounded range on an
/// ordered index, a filtered full scan otherwise.
template <typename Cursor>
Status VisitPrefix(Cursor& c, const Slice& prefix, bool ordered,
                   const KvVisitor& fn) {
  if (!ordered) {
    return VisitRange(c, Slice(), Slice(), false,
                      [&](const Slice& k, const Slice& v) {
                        return k.starts_with(prefix) ? fn(k, v) : true;
                      });
  }
  // Smallest key past every key with the prefix ("" = unbounded, for an
  // all-0xff prefix).
  std::string hi = prefix.ToString();
  while (!hi.empty() && static_cast<unsigned char>(hi.back()) == 0xff) {
    hi.pop_back();
  }
  if (!hi.empty()) hi.back() = static_cast<char>(hi.back() + 1);
  return VisitRange(c, prefix, Slice(hi), true, fn);
}

/// Descending over [lo, hi) (empty hi = from the last key) — the
/// ReverseScan feature. The caller gates on feature selection; the access
/// method must support reverse.
template <typename Cursor>
Status VisitReverse(Cursor& c, const Slice& lo, const Slice& hi,
                    const KvVisitor& fn) {
  if (!c.SupportsReverse()) {
    return Status::NotSupported("access method has no reverse iteration");
  }
  if (hi.empty()) {
    c.SeekToLast();
  } else {
    // Predecessor of hi: the entry before the first key >= hi, or the last
    // entry overall when every key is < hi. A snapshot cursor's Seek
    // settles on the first *visible* key >= hi, so one Prev lands on the
    // last visible key < hi.
    c.Seek(hi);
    if (c.Valid()) {
      c.Prev();
    } else if (c.status().ok()) {
      c.SeekToLast();
    }
  }
  for (; c.Valid(); c.Prev()) {
    if (!lo.empty() && c.key().compare(lo) < 0) break;
    Slice v = c.value();
    if (!c.Valid()) break;  // heap join failed; status() has the error
    if (!fn(c.key(), v)) break;
  }
  return c.status();
}

template <typename IndexT>
class EngineCore {
 public:
  /// Binds the composed components (non-owning); call after the storage
  /// stack is (re)opened.
  void Bind(storage::RecordManager* heap, IndexT* index) {
    heap_ = heap;
    index_ = index;
  }

#if FAME_OBS_ENABLED
  /// [feature Observability] Sink wired into every cursor this core opens
  /// (the owner engine points it at its registry's cursor metrics).
  void SetCursorSink(obs::CursorSink sink) { cursor_sink_ = sink; }
#endif

  Status Get(const Slice& key, std::string* value) {
    // Bounded refresh on a stale rid (kStaleJoinRetries): a concurrent
    // writer may relocate the record between the index probe and the heap
    // fetch; a fresh probe reads the re-pointed entry. Lookup's NotFound
    // is authoritative (the key is absent) and never retried.
    Status s;
    for (int attempt = 0; attempt <= kStaleJoinRetries; ++attempt) {
      uint64_t packed = 0;
      FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
      // Fetch the whole record into the caller's string and strip the key
      // prefix in place: no temporary, and a reused `value` keeps its
      // capacity — steady-state gets never touch the heap.
      s = heap_->Get(storage::Rid::Unpack(packed), value);
      Slice v;
      if (s.ok()) s = RecordValue(Slice(*value), key, &v);
      if (!s.ok()) continue;
      value->erase(0, value->size() - v.size());
      return Status::OK();
    }
    return s;
  }

  /// Upsert: in-place heap update when the key exists (re-indexing only if
  /// the record moved), insert + index otherwise.
  Status Put(const Slice& key, const Slice& value) {
    uint64_t packed = 0;
    Status found = index_->Lookup(key, &packed);
    char inline_rec[kInlineRecordBytes];
    std::string spill;
    Slice rec =
        EncodeRecordInto(key, value, inline_rec, sizeof(inline_rec), &spill);
    if (found.ok()) {
      return UpdateRecord(key, storage::Rid::Unpack(packed), rec);
    }
    if (!found.IsNotFound()) return found;
    auto rid_or = heap_->Insert(rec);
    FAME_RETURN_IF_ERROR(rid_or.status());
    return index_->Insert(key, rid_or.value().Pack());
  }

  /// Rewrites an indexed record. In place when it still fits its page;
  /// otherwise it moves to the heap's tail page (InsertAtTail), in
  /// publish-then-retire order — insert the new copy, re-point the index
  /// entry at it, only then free the old slot — so a lock-free reader
  /// (MVCC snapshot scans, concurrent gets) that already read the old rid
  /// always finds a live record there: either copy is a consistent state,
  /// never a freed slot. (Update's delete-then-reinsert
  /// would leave the published rid dangling for the whole window until
  /// the index re-point, which spans a scheduling quantum in the worst
  /// case — far longer than any bounded reader retry.)
  Status UpdateRecord(const Slice& key, storage::Rid rid, const Slice& rec) {
    Status s = heap_->UpdateInPlace(rid, rec);
    if (s.code() != StatusCode::kResourceExhausted) return s;
    auto moved_or = heap_->InsertAtTail(rec);
    FAME_RETURN_IF_ERROR(moved_or.status());
    FAME_RETURN_IF_ERROR(index_->Insert(key, moved_or.value().Pack()));
    return heap_->Delete(rid);
  }

  Status Remove(const Slice& key) {
    uint64_t packed = 0;
    FAME_RETURN_IF_ERROR(index_->Lookup(key, &packed));
    FAME_RETURN_IF_ERROR(heap_->Delete(storage::Rid::Unpack(packed)));
    return index_->Remove(key);
  }

  /// Opens a heap-joining cursor (index iteration order).
  StatusOr<EngineCursor> NewCursor() {
    FAME_ASSIGN_OR_RETURN(std::unique_ptr<index::Cursor> c,
                          index_->NewCursor());
    EngineCursor cur(std::move(c), heap_);
    FAME_OBS(cur.set_sink(cursor_sink_);)
    return cur;
  }

  // ---- [feature Mvcc] versioned record path ----------------------------
  // Template members: instantiated — and the mvcc codec objects pulled out
  // of the tx library — only when a product that selects Mvcc calls them.
  // The chain is stored as the value half of the ordinary heap record, so
  // index maintenance, heap placement and the cursor join are untouched.

  /// Appends a (commit_ts, value | tombstone) head to `key`'s version
  /// chain, closing the previous head and dropping entries dead below
  /// `prune_below` on the way. Idempotent: a stamp at or below the current
  /// chain head is a replayed write and becomes a no-op — that property
  /// makes crash recovery, double reopens and replication follower apply
  /// safe to re-run.
  Status WriteVersion(const Slice& key, const Slice& value, bool tombstone,
                      uint64_t commit_ts, uint64_t prune_below,
                      tx::mvcc::MvccManager* mgr) {
    // Exclusive physical latch for the whole apply: the rewrite below may
    // compact the heap page, relocate the record, or split index nodes —
    // motion a latch-free snapshot reader could otherwise tear mid-step
    // (see MvccManager::PhysLatch). Readers hold the shared side per step.
    std::unique_lock<std::shared_mutex> phys;
    if (mgr != nullptr) {
      phys = std::unique_lock<std::shared_mutex>(mgr->PhysLatch());
    }
    uint64_t packed = 0;
    Status found = index_->Lookup(key, &packed);
    std::string rec_bytes;
    Slice chain;
    storage::Rid rid;
    if (found.ok()) {
      rid = storage::Rid::Unpack(packed);
      FAME_RETURN_IF_ERROR(heap_->Get(rid, &rec_bytes));
      FAME_RETURN_IF_ERROR(RecordValue(Slice(rec_bytes), key, &chain));
      // Strictly-newer heads mean this write was already applied AND
      // superseded — a replayed tail behind a later checkpoint. An equal
      // ts falls through: ops of one transaction share its commit ts and
      // the last op on a key must win (AppendVersion replaces the head).
      if (tx::mvcc::HeadTs(chain) > commit_ts) return Status::OK();
    } else if (!found.IsNotFound()) {
      return found;
    }
    std::string next;
    uint32_t entries = tx::mvcc::AppendVersion(chain, commit_ts, tombstone,
                                               Slice(value), prune_below,
                                               &next);
    if (mgr != nullptr) mgr->RecordChainLen(entries);
    char inline_rec[kInlineRecordBytes];
    std::string spill;
    Slice rec = EncodeRecordInto(key, Slice(next), inline_rec,
                                 sizeof(inline_rec), &spill);
    if (found.ok()) {
      // Publish-then-retire (UpdateRecord): snapshot readers hold rids
      // with no latch, so the old slot must outlive the index re-point.
      return UpdateRecord(key, rid, rec);
    }
    auto rid_or = heap_->Insert(rec);
    FAME_RETURN_IF_ERROR(rid_or.status());
    return index_->Insert(key, rid_or.value().Pack());
  }

  /// Point lookup at snapshot `ts`: NotFound when the key has no visible
  /// version (absent, written after ts, or tombstoned at ts). `latch`
  /// (optional) shields the physical probe+fetch against concurrent
  /// appliers *and other readers* (exclusive: the SingleThreaded pool's
  /// pin counts are plain ints); the chain copy is resolved outside the
  /// latch. The caller must hold `ts` pinned (a registered snapshot) —
  /// otherwise a concurrent commit's inline prune may retire the version
  /// visible at ts before the chain copy is taken.
  Status GetVersioned(const Slice& key, uint64_t ts, std::string* value,
                      tx::mvcc::MvccManager* latch = nullptr) {
    return GetVisible(key, value, latch, [ts] { return ts; });
  }

  /// Point lookup at the *current* read timestamp, without registering a
  /// snapshot: the ts is sampled under the physical latch, and appliers
  /// hold that latch through apply + inline prune — so between the sample
  /// and the chain copy no commit can retire the version this read
  /// resolves. (Sampling ReadTs outside the latch would leave a window in
  /// which two back-to-back commits advance the watermark past the
  /// sampled ts and prune its version.) Exclusive for the same pin-count
  /// reason as SnapshotCursor::LockStep.
  Status GetVersionedLatest(const Slice& key, std::string* value,
                            tx::mvcc::MvccManager* mgr) {
    return GetVisible(key, value, mgr, [mgr] { return mgr->ReadTs(); });
  }

  /// Opens a snapshot-frozen heap-joining cursor at `ts`. When `mgr` is
  /// given, the caller already registered the snapshot (BeginSnapshot) and
  /// the cursor releases it when destroyed — pinning the GC watermark at
  /// or below ts for the cursor's lifetime, so a concurrent commit's
  /// inline prune cannot retire a version the cursor still has to resolve.
  StatusOr<SnapshotCursor> NewSnapshotCursor(
      uint64_t ts, tx::mvcc::MvccManager* mgr = nullptr) {
    auto c = NewCursor();
    if (!c.ok()) {
      if (mgr != nullptr) mgr->ReleaseSnapshot(ts);
      return c.status();
    }
    return SnapshotCursor(std::move(c).value(), ts, mgr);
  }

  /// Watermark GC sweep: rewrites every chain without its versions dead at
  /// `watermark` and deletes keys whose chain empties (head tombstone at or
  /// below the watermark). Collect-then-apply, because mutating the heap
  /// under an open cursor is not supported. Returns versions pruned.
  StatusOr<uint64_t> MvccSweep(uint64_t watermark, tx::mvcc::MvccManager* mgr) {
    // The sweep holds the physical latch exclusive end to end: collect
    // iterates the heap-joined cursor and apply rewrites records in place,
    // and a snapshot reader must see neither mid-flight. GC is an explicit
    // maintenance call, so stalling readers for its duration is the simple
    // correct trade.
    std::unique_lock<std::shared_mutex> phys;
    if (mgr != nullptr) {
      phys = std::unique_lock<std::shared_mutex>(mgr->PhysLatch());
    }
    struct Edit {
      std::string key;
      std::string chain;  // empty = delete the key
      uint64_t pruned;
    };
    std::vector<Edit> edits;
    {  // the cursor closes before the apply below mutates the heap
      FAME_ASSIGN_OR_RETURN(EngineCursor cur, NewCursor());
      FAME_RETURN_IF_ERROR(VisitRange(
          cur, Slice(), Slice(), /*ordered=*/true,
          [&](const Slice& k, const Slice& v) {
            std::string next;
            uint64_t pruned = 0;
            // A corrupt chain is left in place: the sweep is advisory,
            // readers report the corruption with full context.
            if (!tx::mvcc::PruneChain(v, watermark, &next, &pruned).ok()) {
              return true;
            }
            if (pruned == 0) return true;
            edits.push_back(Edit{k.ToString(), std::move(next), pruned});
            return true;
          }));
    }
    uint64_t total = 0;
    for (const auto& e : edits) {
      if (e.chain.empty()) {
        FAME_RETURN_IF_ERROR(Remove(Slice(e.key)));
      } else {
        FAME_RETURN_IF_ERROR(Put(Slice(e.key), Slice(e.chain)));
      }
      total += e.pruned;
    }
    if (mgr != nullptr) mgr->RecordGcRun(total);
    return total;
  }

 private:
  /// The versioned gets' shared tail: probe + join under `latch` (when
  /// given), with the read ts taken by `read_ts` inside it, then the chain
  /// copy resolved to the version visible at that ts outside it.
  template <typename ReadTs>
  Status GetVisible(const Slice& key, std::string* value,
                    tx::mvcc::MvccManager* latch, ReadTs read_ts) {
    std::string chain;
    uint64_t ts = 0;
    {
      std::unique_lock<std::shared_mutex> phys;
      if (latch != nullptr) {
        phys = std::unique_lock<std::shared_mutex>(latch->PhysLatch());
      }
      ts = read_ts();
      FAME_RETURN_IF_ERROR(Get(key, &chain));
    }
    tx::mvcc::Version v;
    FAME_RETURN_IF_ERROR(tx::mvcc::VisibleAt(Slice(chain), ts, &v));
    value->assign(v.value.data(), v.value.size());
    return Status::OK();
  }

  storage::RecordManager* heap_ = nullptr;
  IndexT* index_ = nullptr;
#if FAME_OBS_ENABLED
  obs::CursorSink cursor_sink_;
#endif
};

}  // namespace fame::core

#endif  // FAME_CORE_ENGINE_CORE_H_
