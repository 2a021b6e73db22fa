#include "storage/pagefile.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif

namespace fame::storage {

namespace {
std::atomic<uint64_t> g_lost_meta_writes{0};
}  // namespace

uint64_t PageFile::lost_meta_writes() {
  return g_lost_meta_writes.load(std::memory_order_relaxed);
}

StatusOr<std::unique_ptr<PageFile>> PageFile::Open(osal::Env* env,
                                                   const std::string& name,
                                                   const PageFileOptions& opts) {
  if (opts.page_size < 512 || opts.page_size > 65536 ||
      (opts.page_size & (opts.page_size - 1)) != 0) {
    return Status::InvalidArgument("page_size must be a power of two in [512, 65536]");
  }
  static_assert(kMetaSlotBytes <= 512, "meta slot must fit the minimum page");
  bool existed = env->FileExists(name);
  auto file_or = env->OpenFile(name, /*create=*/true);
  FAME_RETURN_IF_ERROR(file_or.status());
  std::unique_ptr<PageFile> pf(
      new PageFile(env, std::move(file_or).value(), opts));
  if (existed) {
    auto size_or = pf->file_->Size();
    FAME_RETURN_IF_ERROR(size_or.status());
    existed = size_or.value() > 0;
  }
  if (existed) {
    FAME_RETURN_IF_ERROR(pf->LoadMeta());
  } else {
    pf->page_count_ = kFirstDataPage;
    pf->free_head_ = kInvalidPageId;
    pf->roots_used_ = 0;
    pf->epoch_ = 0;
    pf->meta_dirty_ = true;
    FAME_RETURN_IF_ERROR(pf->StoreMeta());
  }
  return pf;
}

PageFile::~PageFile() {
  if (closed_) return;
  Status s = Close();
  if (!s.ok()) {
    // The caller can no longer see this status; record the loss.
    g_lost_meta_writes.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "fame: PageFile close lost metadata: %s\n",
                 s.ToString().c_str());
  }
}

Status PageFile::Close() {
  if (closed_) return close_status_;
  closed_ = true;
  close_status_ = Status::OK();
  if (meta_dirty_) close_status_ = StoreMeta();
  if (close_status_.ok()) close_status_ = SyncFile();
  return close_status_;
}

// ------------------------------------------------------------ retried IO

Status PageFile::ReadAt(uint64_t offset, size_t n, char* scratch) {
  return RetryOnTransient(retry_, [&] {
    Slice result;
    FAME_RETURN_IF_ERROR(file_->Read(offset, n, scratch, &result));
    if (result.size() < n) return Status::Corruption("short read");
    if (result.data() != scratch) std::memmove(scratch, result.data(), n);
    return Status::OK();
  });
}

Status PageFile::WriteAt(uint64_t offset, const Slice& data) {
  return RetryOnTransient(retry_, [&] { return file_->Write(offset, data); });
}

Status PageFile::SyncFile() {
  return RetryOnTransient(retry_, [&] { return file_->Sync(); });
}

// ------------------------------------------------------------ meta page

void PageFile::EncodeMetaSlot(char* buf, uint64_t epoch) const {
  std::memset(buf, 0, kMetaSlotBytes);
  EncodeFixed32(buf, kMagic);
  EncodeFixed32(buf + 4, kVersion);
  EncodeFixed32(buf + 8, opts_.page_size);
  EncodeFixed32(buf + 12, page_count_);
  EncodeFixed32(buf + 16, free_head_);
  EncodeFixed32(buf + 20, roots_used_);
  EncodeFixed64(buf + 24, epoch);
  char* p = buf + 32;
  for (uint32_t i = 0; i < roots_used_; ++i) {
    EncodeFixed32(p, roots_[i].name_hash);
    EncodeFixed32(p + 4, roots_[i].page);
    EncodeFixed64(p + 8, roots_[i].aux);
    p += 16;
  }
  uint32_t crc = Crc32(buf, kMetaSlotBytes - 4);
  EncodeFixed32(buf + kMetaSlotBytes - 4, MaskCrc(crc));
}

PageFile::MetaSlot PageFile::DecodeMetaSlot(const char* buf) const {
  MetaSlot slot;
  if (DecodeFixed32(buf) != kMagic) {
    slot.why = Status::Corruption("bad magic: not a FAME page file");
    return slot;
  }
  if (DecodeFixed32(buf + 4) != kVersion) {
    slot.why = Status::NotSupported("unsupported page file version");
    return slot;
  }
  uint32_t stored_crc = DecodeFixed32(buf + kMetaSlotBytes - 4);
  if (MaskCrc(Crc32(buf, kMetaSlotBytes - 4)) != stored_crc) {
    slot.why = Status::Corruption("meta slot checksum mismatch");
    return slot;
  }
  slot.stored_page_size = DecodeFixed32(buf + 8);
  slot.page_count = DecodeFixed32(buf + 12);
  slot.free_head = DecodeFixed32(buf + 16);
  slot.roots_used = DecodeFixed32(buf + 20);
  slot.epoch = DecodeFixed64(buf + 24);
  if (slot.roots_used > kMaxRoots) {
    slot.why = Status::Corruption("root directory overflow");
    return slot;
  }
  const char* p = buf + 32;
  for (uint32_t i = 0; i < slot.roots_used; ++i) {
    slot.roots[i].name_hash = DecodeFixed32(p);
    slot.roots[i].page = DecodeFixed32(p + 4);
    slot.roots[i].aux = DecodeFixed64(p + 8);
    p += 16;
  }
  slot.valid = true;
  return slot;
}

Status PageFile::LoadMeta() {
  // Slot A lives at offset 0, slot B at one page. Each is independently
  // validated; the valid slot with the larger epoch wins, so a torn write
  // of one slot falls back to the other.
  char buf_a[kMetaSlotBytes];
  char buf_b[kMetaSlotBytes];
  MetaSlot a, b;
  Status ra = ReadAt(0, kMetaSlotBytes, buf_a);
  a = ra.ok() ? DecodeMetaSlot(buf_a) : MetaSlot{};
  if (!ra.ok()) a.why = ra;
  Status rb = ReadAt(opts_.page_size, kMetaSlotBytes, buf_b);
  b = rb.ok() ? DecodeMetaSlot(buf_b) : MetaSlot{};
  if (!rb.ok()) b.why = rb;

  const MetaSlot* best = nullptr;
  if (a.valid) best = &a;
  if (b.valid && (best == nullptr || b.epoch > best->epoch)) best = &b;
  if (best == nullptr) {
    // Prefer the most specific diagnosis: a recognized-but-unsupported
    // version beats generic corruption.
    if (a.why.code() == StatusCode::kNotSupported) return a.why;
    if (b.why.code() == StatusCode::kNotSupported) return b.why;
    return a.why.ok() ? Status::Corruption("no valid meta slot") : a.why;
  }
  if (best->stored_page_size != opts_.page_size) {
    return Status::InvalidArgument(
        "page size mismatch: file has " +
        std::to_string(best->stored_page_size));
  }
  page_count_ = best->page_count;
  free_head_ = best->free_head;
  roots_used_ = best->roots_used;
  std::memcpy(roots_, best->roots, sizeof(roots_));
  epoch_ = best->epoch;
  if (page_count_ < kFirstDataPage) {
    return Status::Corruption("meta page count below first data page");
  }
  return Status::OK();
}

Status PageFile::StoreMeta() {
  // Write the *other* slot than the one the current epoch lives in: the
  // previous meta stays intact on disk until this write (and a later sync)
  // lands, so a torn write here is always recoverable.
  uint64_t new_epoch = epoch_ + 1;
  uint64_t slot = new_epoch & 1;
  std::vector<char> buf(opts_.page_size, 0);
  EncodeMetaSlot(buf.data(), new_epoch);
  FAME_RETURN_IF_ERROR(
      WriteAt(slot * opts_.page_size, Slice(buf.data(), buf.size())));
  epoch_ = new_epoch;
  meta_dirty_ = false;
  return Status::OK();
}

// ------------------------------------------------------------ page alloc

StatusOr<PageId> PageFile::AllocatePage() {
  if (free_head_ != kInvalidPageId) {
    PageId id = free_head_;
    if (id < kFirstDataPage || id >= page_count_) {
      return Status::Corruption("free chain head out of range: " +
                                std::to_string(id));
    }
    std::vector<char> buf(opts_.page_size);
    FAME_RETURN_IF_ERROR(ReadAt(
        static_cast<uint64_t>(id) * opts_.page_size, opts_.page_size,
        buf.data()));
    // Validate before trusting the chain link: a reused or corrupted page
    // here means a double free or a scribbled chain.
    Page page(buf.data(), opts_.page_size);
    if (page.type() != PageType::kFree) {
      return Status::Corruption("free chain entry " + std::to_string(id) +
                                " is not a free page (double free?)");
    }
    FAME_RETURN_IF_ERROR(page.VerifyChecksum());
    free_head_ = page.next_page();
    meta_dirty_ = true;
    return id;
  }
  PageId id = page_count_;
  if (id == kInvalidPageId) return Status::ResourceExhausted("page id space");
  bool was_dirty = meta_dirty_;
  ++page_count_;
  meta_dirty_ = true;
  // Extend the file eagerly so reads of the new page succeed. MemEnv also
  // charges its capacity budget here; a full device (ENOSPC) fails right
  // here, before any state changed.
  std::vector<char> zero(opts_.page_size, 0);
  Status s = WriteAt(static_cast<uint64_t>(id) * opts_.page_size,
                     Slice(zero.data(), zero.size()));
  if (!s.ok()) {
    // Roll back completely: a failed extension must not leave the meta
    // dirty, or the next Sync would persist a page count the medium never
    // accepted.
    --page_count_;
    meta_dirty_ = was_dirty;
    return s;
  }
  return id;
}

Status PageFile::FreePage(PageId id) {
  if (id < kFirstDataPage || id >= page_count_) {
    return Status::InvalidArgument("cannot free page " + std::to_string(id));
  }
  std::vector<char> buf(opts_.page_size, 0);
  Page page(buf.data(), opts_.page_size);
  page.Init(PageType::kFree);
  page.set_next_page(free_head_);
  page.SealChecksum();
  FAME_RETURN_IF_ERROR(WriteAt(
      static_cast<uint64_t>(id) * opts_.page_size, Slice(buf.data(), buf.size())));
  free_head_ = id;
  meta_dirty_ = true;
  return Status::OK();
}

Status PageFile::ReadPage(PageId id, char* buf) {
  if (id < kFirstDataPage || id >= page_count_) {
    return Status::InvalidArgument("read of invalid page " + std::to_string(id));
  }
  FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> timer(
               &io_metrics_.read_ns);
           io_metrics_.reads.Add(1);
           io_metrics_.read_bytes.Add(opts_.page_size);)
  Status s = ReadAt(static_cast<uint64_t>(id) * opts_.page_size,
                    opts_.page_size, buf);
  if (s.ok() && opts_.paranoid_checks) {
    FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> verify_timer(
                 &io_metrics_.verify_ns);)
    Page page(buf, opts_.page_size);
    s = page.VerifyChecksum();
  }
  FAME_OBS_TRACE(obs::Trace::Record(obs::SpanKind::kPageRead,
                                    obs::TraceOp::kNone, id, opts_.page_size,
                                    !s.ok());)
  return s;
}

Status PageFile::ReadPageRaw(PageId id, char* buf) {
  if (id < kFirstDataPage || id >= page_count_) {
    return Status::InvalidArgument("read of invalid page " + std::to_string(id));
  }
  FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> timer(
               &io_metrics_.read_ns);
           io_metrics_.reads.Add(1);
           io_metrics_.read_bytes.Add(opts_.page_size);)
  return ReadAt(static_cast<uint64_t>(id) * opts_.page_size, opts_.page_size,
                buf);
}

Status PageFile::WritePage(PageId id, char* buf) {
  if (id < kFirstDataPage || id >= page_count_) {
    return Status::InvalidArgument("write of invalid page " + std::to_string(id));
  }
  FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> timer(
               &io_metrics_.write_ns);
           io_metrics_.writes.Add(1);
           io_metrics_.write_bytes.Add(opts_.page_size);)
  Page page(buf, opts_.page_size);
  {
    FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> seal_timer(
                 &io_metrics_.seal_ns);)
    page.SealChecksum();
  }
  Status s = WriteAt(static_cast<uint64_t>(id) * opts_.page_size,
                     Slice(buf, opts_.page_size));
  FAME_OBS_TRACE(obs::Trace::Record(obs::SpanKind::kPageWrite,
                                    obs::TraceOp::kNone, id, opts_.page_size,
                                    !s.ok());)
  return s;
}

Status PageFile::Sync() {
  FAME_OBS(obs::ScopedLatencyTimer<obs::SharedCells> timer(
               &io_metrics_.sync_ns);
           io_metrics_.syncs.Add(1);)
  if (meta_dirty_) FAME_RETURN_IF_ERROR(StoreMeta());
  return SyncFile();
}

// ------------------------------------------------------------ roots

uint32_t PageFile::HashName(const std::string& name) {
  // FNV-1a, 32-bit.
  uint32_t h = 2166136261u;
  for (unsigned char c : name) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

StatusOr<PageId> PageFile::GetRoot(const std::string& name) const {
  uint32_t h = HashName(name);
  for (uint32_t i = 0; i < roots_used_; ++i) {
    if (roots_[i].name_hash == h) return roots_[i].page;
  }
  return Status::NotFound("no root named " + name);
}

StatusOr<uint64_t> PageFile::GetRootAux(const std::string& name) const {
  uint32_t h = HashName(name);
  for (uint32_t i = 0; i < roots_used_; ++i) {
    if (roots_[i].name_hash == h) return roots_[i].aux;
  }
  return Status::NotFound("no root named " + name);
}

Status PageFile::SetRoot(const std::string& name, PageId id, uint64_t aux) {
  uint32_t h = HashName(name);
  for (uint32_t i = 0; i < roots_used_; ++i) {
    if (roots_[i].name_hash == h) {
      roots_[i].page = id;
      roots_[i].aux = aux;
      meta_dirty_ = true;
      return Status::OK();
    }
  }
  if (roots_used_ >= kMaxRoots) {
    return Status::ResourceExhausted("root directory full");
  }
  roots_[roots_used_++] = RootEntry{h, id, aux};
  meta_dirty_ = true;
  return Status::OK();
}

StatusOr<uint32_t> PageFile::CountFreePages() {
  uint32_t n = 0;
  PageId id = free_head_;
  std::vector<char> buf(opts_.page_size);
  while (id != kInvalidPageId) {
    ++n;
    if (n > page_count_) return Status::Corruption("free chain cycle");
    if (id < kFirstDataPage || id >= page_count_) {
      return Status::Corruption("free chain entry out of range");
    }
    FAME_RETURN_IF_ERROR(ReadAt(static_cast<uint64_t>(id) * opts_.page_size,
                                opts_.page_size, buf.data()));
    Page page(buf.data(), opts_.page_size);
    if (page.type() != PageType::kFree) {
      return Status::Corruption("free chain entry is not a free page");
    }
    id = page.next_page();
  }
  return n;
}

}  // namespace fame::storage
