#include "core/database.h"

#include "core/sql.h"
#include "index/bplus_tree.h"
#include "index/list_index.h"
#include "obs/obs.h"
#include "osal/slab_alloc.h"

namespace fame::core {

template class EngineShell<RuntimePolicy>;

StatusOr<std::unique_ptr<RuntimePolicy::Index>> RuntimePolicy::OpenIndex(
    storage::BufferManager* b) const {
  std::unique_ptr<Index> index;
  if (on(Feature::kBPlusTree)) {
    FAME_ASSIGN_OR_RETURN(index, index::BPlusTree::Open(b, "core"));
  } else {
    FAME_ASSIGN_OR_RETURN(index, index::ListIndex::Open(b, "core"));
  }
  return index;
}

Database::~Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Open(const DbOptions& options) {
  std::unique_ptr<Database> db(new Database());
  db->model_ = fm::BuildFameDbmsModel();

  // Derive the product: select the requested features, propagate, complete
  // minimally, validate.
  fm::Configuration config(db->model_.get());
  for (const std::string& f : options.features) {
    FAME_RETURN_IF_ERROR(config.SelectByName(f));
  }
  FAME_RETURN_IF_ERROR(db->model_->CompleteMinimal(&config));
  db->config_ = config;

  FAME_RETURN_IF_ERROR(db->ComposeComponents(options));
  return db;
}

bool Database::HasFeature(const std::string& name) const {
  auto id_or = model_->Find(name);
  return id_or.ok() && config_.IsSelected(id_or.value());
}

Status Database::ComposeComponents(const DbOptions& options) {
  // The runtime policy: one bit per engine feature, resolved here once.
  for (size_t f = 0; f < static_cast<size_t>(Feature::kCount); ++f) {
    if (HasFeature(kFeatureNames[f])) policy_.Select(static_cast<Feature>(f));
  }
  policy_.knobs.page_size = options.page_size;
  policy_.knobs.buffer_frames = options.buffer_frames;
  policy_.knobs.replacement = HasFeature("LFU")     ? "lfu"
                              : HasFeature("Clock") ? "clock"
                                                    : "lru";
  policy_.knobs.wal_segment_bytes = options.wal_segment_bytes;

  // OS-Abstraction alternative.
  osal::Env* env = options.env != nullptr ? options.env : osal::GetPosixEnv();
  if (HasFeature("NutOS")) {
    policy_.owned_env = osal::NewMemEnv(options.nutos_capacity_bytes);
    env = policy_.owned_env.get();
  } else if (HasFeature("Win32")) {
    policy_.owned_env = osal::NewWin32PathEnv(env);
    env = policy_.owned_env.get();
  }

  // Memory Alloc alternative. Static products take their whole budget up
  // front and never touch the heap again: segregated slab classes (O(1)
  // carve/free) replaced the first-fit StaticPoolAllocator walk.
  if (HasFeature("Static")) {
#if FAME_SLAB_ENABLED
    alloc_.owned = std::make_unique<osal::slab::StaticSlabAllocator>(
        options.static_pool_bytes);
#else
    alloc_.owned =
        std::make_unique<osal::StaticPoolAllocator>(options.static_pool_bytes);
#endif
  } else {
    alloc_.owned = std::make_unique<osal::DynamicAllocator>();
  }

  // Tracing feature: flip the process-wide recording gate before the
  // storage stack opens, so open-time page IO is already in the ring.
  // (Static products call obs::Trace::Enable themselves; the facade
  // derives it from the configuration like every other feature.)
  FAME_OBS_TRACE(if (HasFeature("Tracing")) obs::Trace::Enable(true);)

  // FlightRecorder feature: the in-memory black box exists from before the
  // storage stack opens so even open-time degradation leaves breadcrumbs.
  FAME_OBS(if (HasFeature("FlightRecorder")) {
    blackbox_ = std::make_unique<obs::BlackBox>();
  })

  FAME_RETURN_IF_ERROR(Shell::Open(env, options.path));
  OpenScrubber();

  // SQL Engine feature.
  if (HasFeature("SQL-Engine")) {
    sql_ = std::make_unique<SqlEngine>(this, HasFeature("Optimizer"));
  }
  return Status::OK();
}

void Database::OpenScrubber() {
  scrubber_.reset();
  if (Has<kScrub>() || Has<kVerify>()) {
    scrubber_ = std::make_unique<storage::Scrubber>(file_.get());
  }
}

void Database::OnWriteFailure(const Status& s, bool tripped) {
#if FAME_OBS_ENABLED
  if (blackbox_ == nullptr || s.IsNotFound()) return;
  blackbox_->NoteStatus("write", s.ToString());
  if (tripped) {
    // Best-effort by design — the database just degraded, the dump must
    // not mask the original failure.
    (void)DumpBlackBox("read-only latch tripped: " + s.ToString());
  }
#else
  (void)s;
  (void)tripped;
#endif
}

// ------------------------------------------------------------ replication

Status Database::Promote(uint32_t epoch) {
  FAME_RETURN_IF_ERROR(CheckPromotion(epoch));
  // Integrity-gated: a replica with damage must refuse leadership rather
  // than serve (and replicate) divergent data.
  storage::IntegrityReport report;
  Status verify = VerifyIntegrity(&report);
  if (!verify.ok()) {
    return Status::DataLoss("refusing promotion, replica failed its scrub: " +
                            verify.ToString());
  }
  return Refence(epoch, kRoleLeader);
}

// ------------------------------------------------------------ typed records

std::string Database::TableKey(const std::string& table, const Value& pk) {
  std::string key = "t:" + table + "\x01";
  key.append(pk.EncodeKey());
  return key;
}

std::string Database::SchemaKey(const std::string& table) {
  return "s:" + table;
}

Status Database::CreateTable(const Schema& schema) {
  if (schema.columns.empty()) {
    return Status::InvalidArgument("a table needs at least one column");
  }
  for (const Column& c : schema.columns) {
    if (c.type == Value::Kind::kInt) FAME_RETURN_IF_ERROR(Require<kIntTypes>());
    if (c.type == Value::Kind::kString) {
      FAME_RETURN_IF_ERROR(Require<kStringTypes>());
    }
    if (c.type == Value::Kind::kBlob) FAME_RETURN_IF_ERROR(Require<kBlobTypes>());
  }
  std::string existing;
  if (Get(SchemaKey(schema.table), &existing).ok()) {
    return Status::InvalidArgument("table exists: " + schema.table);
  }
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(PutRecord(SchemaKey(schema.table), schema.Encode()));
}

StatusOr<Schema> Database::GetSchema(const std::string& table) {
  std::string data;
  Status s = Get(SchemaKey(table), &data);
  if (s.IsNotFound()) return Status::NotFound("no table named " + table);
  FAME_RETURN_IF_ERROR(s);
  return Schema::Decode(data);
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  FAME_ASSIGN_OR_RETURN(Schema schema, GetSchema(table));
  FAME_RETURN_IF_ERROR(schema.CheckRow(row));
  FAME_RETURN_IF_ERROR(Require<kPut>());
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(PutRecord(TableKey(table, row[0]), EncodeRow(row)));
}

StatusOr<Row> Database::FindRow(const std::string& table, const Value& pk) {
  std::string data;
  FAME_RETURN_IF_ERROR(Get(TableKey(table, pk), &data));
  return DecodeRow(data);
}

Status Database::DeleteRow(const std::string& table, const Value& pk) {
  FAME_RETURN_IF_ERROR(Require<kRemove>());
  FAME_RETURN_IF_ERROR(GuardWrite());
  return NoteWrite(RemoveRecord(TableKey(table, pk)));
}

Status Database::ScanTable(const std::string& table,
                           const std::function<bool(const Row&)>& fn) {
  std::string prefix = "t:" + table + "\x01";
  Status inner = Status::OK();
  const KvVisitor row_visitor = [&](const Slice&, const Slice& value) {
    auto row_or = DecodeRow(value);
    if (!row_or.ok()) {
      inner = row_or.status();
      return false;
    }
    return fn(row_or.value());
  };
  FAME_RETURN_IF_ERROR(ScanPrefixRecords(prefix, row_visitor));
  return inner;
}

}  // namespace fame::core
