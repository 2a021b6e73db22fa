// RecordManager: a heap file of variable-length records over the buffer
// manager. Records are addressed by RID {page, slot}. Pages with free space
// are kept on a simple chain threaded through Page::next_page; inserts take
// the first page in chain order with room, found through an in-memory memo
// of the chain rather than by fetching every page. A record that outgrows
// its page moves to the tail page instead (see InsertAtTail).
#ifndef FAME_STORAGE_RECORD_H_
#define FAME_STORAGE_RECORD_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/buffer.h"

namespace fame::storage {

/// Record identifier: physical address of a record.
struct Rid {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  bool operator==(const Rid& o) const {
    return page == o.page && slot == o.slot;
  }
  /// 48-bit packed form used inside index payloads.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static Rid Unpack(uint64_t v) {
    Rid r;
    r.page = static_cast<PageId>(v >> 16);
    r.slot = static_cast<uint16_t>(v & 0xffff);
    return r;
  }
};

/// Heap-file record storage. One RecordManager per named heap; the head of
/// its page chain persists as a PageFile root. Writers (Insert, Update,
/// UpdateInPlace, Delete) must be serialized by the caller; readers (Get,
/// Scan, Count) may run beside each other.
class RecordManager {
 public:
  /// Opens (creating on first use) the heap named `name`.
  static StatusOr<std::unique_ptr<RecordManager>> Open(BufferManager* buffers,
                                                       const std::string& name);

  /// Inserts a record on the first page in chain order with room,
  /// returning its RID.
  StatusOr<Rid> Insert(const Slice& record);

  /// Inserts a relocated record on the tail page, appending a page only
  /// when the tail has no room. Holes earlier in the chain are left to
  /// fresh inserts: a record that outgrew its page would otherwise land in
  /// room just freed by shrinking neighbours, whose own regrowth then
  /// relocates them in turn, and so on (MVCC chains that GC prunes and
  /// later commits regrow). On the tail it sits among other movers.
  StatusOr<Rid> InsertAtTail(const Slice& record);

  /// Reads the record at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out);

  /// Buffer variant for heap-free readers: sets *len to the record size
  /// and copies into `buf` only when it fits (`*len <= cap`); when it does
  /// not, the caller retries with the string overload.
  Status Get(const Rid& rid, char* buf, size_t cap, size_t* len);

  /// Replaces the record at `rid` in place. If the new value no longer fits
  /// on its page, the record moves to the tail and `*rid` is updated
  /// (callers owning index entries must re-point them; the engine layers
  /// do).
  Status Update(Rid* rid, const Slice& record);

  /// In-place-only variant: ResourceExhausted when the new value no longer
  /// fits on its page, leaving the record untouched. Lets callers that
  /// publish rids to lock-free readers relocate in a safe order — insert
  /// the new copy, re-point the index, then Delete the old rid — so no
  /// reader ever follows a published rid into a freed slot (Update's
  /// delete-then-reinsert leaves exactly that window).
  Status UpdateInPlace(const Rid& rid, const Slice& record);

  /// Deletes the record at `rid`.
  Status Delete(const Rid& rid);

  /// Visits every live record. Returning false from the visitor stops the
  /// scan early.
  Status Scan(const std::function<bool(const Rid&, const Slice&)>& visit);

  /// Number of live records (full scan; for tests/stats).
  StatusOr<uint64_t> Count();

 private:
  RecordManager(BufferManager* buffers, std::string name)
      : buffers_(buffers), name_(std::move(name)) {}

  /// Insert and InsertAtTail: places `record` on the page
  /// FindPageWithSpace picks.
  StatusOr<Rid> Place(const Slice& record, bool at_tail);

  /// Finds (or appends) the first page in chain order with at least `need`
  /// bytes of room (free plus reclaimable), without fetching any page the
  /// memo already covers. With `at_tail`, only the tail page is a candidate;
  /// the walk runs to the end of the chain once, and the memo then holds it.
  StatusOr<PageId> FindPageWithSpace(size_t need, bool at_tail);

  /// Appends the next chain page and its room to the memo.
  void Remember(PageId id, uint32_t room);
  /// Refreshes the memo entry of a page a writer just changed; pages the
  /// walk has not reached yet carry no entry.
  void Refresh(PageId id, const Page& page);

  BufferManager* buffers_;
  std::string name_;
  PageId head_ = kInvalidPageId;

  // Free-space memo over the prefix of the chain walked so far, built
  // lazily by FindPageWithSpace and kept exact by every writer, so first
  // fit picks the same page a walk from the head would.
  struct Visited {
    PageId id;
    uint32_t room;  // FreeSpace() + ReclaimableSpace()
  };
  std::vector<Visited> chain_;    // walked pages, in chain order
  std::vector<uint32_t> pos_;     // PageId -> chain_ index + 1; 0 = unwalked
  PageId resume_ = kInvalidPageId;  // first unwalked page; invalid at the end
};

}  // namespace fame::storage

#endif  // FAME_STORAGE_RECORD_H_
