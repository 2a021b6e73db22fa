#include "storage/record.h"

#include <cstring>

namespace fame::storage {
namespace {

/// The number first fit tests: what the page can take after compaction.
uint32_t Room(const Page& page) {
  return static_cast<uint32_t>(page.FreeSpace() + page.ReclaimableSpace());
}

}  // namespace

StatusOr<std::unique_ptr<RecordManager>> RecordManager::Open(
    BufferManager* buffers, const std::string& name) {
  std::unique_ptr<RecordManager> rm(new RecordManager(buffers, name));
  auto root_or = buffers->file()->GetRoot("heap:" + name);
  if (root_or.ok()) {
    rm->head_ = root_or.value();
  } else {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers->New(PageType::kHeap));
    rm->head_ = guard.id();
    guard.MarkDirty();
    guard.Release();
    FAME_RETURN_IF_ERROR(
        buffers->file()->SetRoot("heap:" + name, rm->head_));
  }
  rm->resume_ = rm->head_;  // the memo starts empty: nothing read here
  return rm;
}

void RecordManager::Remember(PageId id, uint32_t room) {
  if (id >= pos_.size()) pos_.resize(static_cast<size_t>(id) + 1, 0);
  chain_.push_back(Visited{id, room});
  pos_[id] = static_cast<uint32_t>(chain_.size());
}

void RecordManager::Refresh(PageId id, const Page& page) {
  if (id < pos_.size() && pos_[id] != 0) {
    chain_[pos_[id] - 1].room = Room(page);
  }
}

StatusOr<PageId> RecordManager::FindPageWithSpace(size_t need, bool at_tail) {
  if (!at_tail) {
    for (const Visited& v : chain_) {
      if (v.room >= need) return v.id;
    }
  }
  // No fit among the walked pages (or the tail is wanted): resume the walk
  // where the memo ends.
  while (resume_ != kInvalidPageId) {
    const PageId id = resume_;
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(id));
    Page page = guard.page();
    const uint32_t room = Room(page);
    Remember(id, room);
    resume_ = page.next_page();
    if (!at_tail && room >= need) return id;
  }
  // The memo covers the whole chain now, so its last entry is the tail.
  if (at_tail && chain_.back().room >= need) return chain_.back().id;
  // Append a page.
  FAME_ASSIGN_OR_RETURN(PageGuard fresh, buffers_->New(PageType::kHeap));
  PageId fresh_id = fresh.id();
  fresh.MarkDirty();
  const uint32_t fresh_room = Room(fresh.page());
  fresh.Release();
  FAME_ASSIGN_OR_RETURN(PageGuard tail, buffers_->Fetch(chain_.back().id));
  tail.page().set_next_page(fresh_id);
  tail.MarkDirty();
  Remember(fresh_id, fresh_room);
  return fresh_id;
}

StatusOr<Rid> RecordManager::Insert(const Slice& record) {
  return Place(record, /*at_tail=*/false);
}

StatusOr<Rid> RecordManager::InsertAtTail(const Slice& record) {
  return Place(record, /*at_tail=*/true);
}

StatusOr<Rid> RecordManager::Place(const Slice& record, bool at_tail) {
  size_t need = record.size() + Page::kSlotSize;
  if (need + Page::kHeaderSize + Page::kSlotSize >
      buffers_->file()->page_size()) {
    return Status::InvalidArgument("record larger than a page");
  }
  FAME_ASSIGN_OR_RETURN(PageId id, FindPageWithSpace(need, at_tail));
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(id));
  Page page = guard.page();
  auto slot_or = page.Insert(record);
  FAME_RETURN_IF_ERROR(slot_or.status());
  guard.MarkDirty();
  Refresh(id, page);
  return Rid{id, slot_or.value()};
}

Status RecordManager::Get(const Rid& rid, std::string* out) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  auto rec_or = guard.page().Get(rid.slot);
  FAME_RETURN_IF_ERROR(rec_or.status());
  out->assign(rec_or.value().data(), rec_or.value().size());
  return Status::OK();
}

Status RecordManager::Get(const Rid& rid, char* buf, size_t cap,
                          size_t* len) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  auto rec_or = guard.page().Get(rid.slot);
  FAME_RETURN_IF_ERROR(rec_or.status());
  *len = rec_or.value().size();
  if (*len <= cap) std::memcpy(buf, rec_or.value().data(), *len);
  return Status::OK();
}

Status RecordManager::Update(Rid* rid, const Slice& record) {
  {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid->page));
    Page page = guard.page();
    Status s = page.Update(rid->slot, record);
    if (s.ok()) {
      guard.MarkDirty();
      Refresh(rid->page, page);
      return Status::OK();
    }
    if (s.code() != StatusCode::kResourceExhausted) return s;
    // Doesn't fit on its page: delete here, reinsert at the tail.
    FAME_RETURN_IF_ERROR(page.Delete(rid->slot));
    guard.MarkDirty();
    Refresh(rid->page, page);
  }
  FAME_ASSIGN_OR_RETURN(Rid moved, InsertAtTail(record));
  *rid = moved;
  return Status::OK();
}

Status RecordManager::UpdateInPlace(const Rid& rid, const Slice& record) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  Page page = guard.page();
  FAME_RETURN_IF_ERROR(page.Update(rid.slot, record));
  guard.MarkDirty();
  Refresh(rid.page, page);
  return Status::OK();
}

Status RecordManager::Delete(const Rid& rid) {
  FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(rid.page));
  Page page = guard.page();
  FAME_RETURN_IF_ERROR(page.Delete(rid.slot));
  guard.MarkDirty();
  Refresh(rid.page, page);
  return Status::OK();
}

Status RecordManager::Scan(
    const std::function<bool(const Rid&, const Slice&)>& visit) {
  PageId id = head_;
  while (id != kInvalidPageId) {
    FAME_ASSIGN_OR_RETURN(PageGuard guard, buffers_->Fetch(id));
    Page page = guard.page();
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
      auto rec_or = page.Get(slot);
      if (!rec_or.ok()) continue;  // dead slot
      if (!visit(Rid{id, slot}, rec_or.value())) return Status::OK();
    }
    id = page.next_page();
  }
  return Status::OK();
}

StatusOr<uint64_t> RecordManager::Count() {
  uint64_t n = 0;
  FAME_RETURN_IF_ERROR(Scan([&n](const Rid&, const Slice&) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace fame::storage
