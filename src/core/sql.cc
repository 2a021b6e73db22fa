#include "core/sql.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "common/stringutil.h"
#include "core/database.h"
#include "obs/obs.h"

#if FAME_OBS_ENABLED
#include "obs/metrics.h"
#include "obs/serialize.h"
#endif
#if FAME_OBS_TRACING_ENABLED
#include "obs/trace.h"
#endif

namespace fame::core {
namespace {

struct SqlToken {
  enum Kind { kWord, kNumber, kString, kBlob, kPunct, kEnd } kind;
  std::string text;  // words upper-cased; literals raw
};

StatusOr<std::vector<SqlToken>> Lex(const std::string& sql) {
  std::vector<SqlToken> out;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(start, i - start);
      // x'...' blob literal.
      if ((word == "x" || word == "X") && i < n && sql[i] == '\'') {
        size_t end = sql.find('\'', i + 1);
        if (end == std::string::npos) {
          return Status::ParseError("unterminated blob literal");
        }
        std::string hex = sql.substr(i + 1, end - i - 1);
        if (hex.size() % 2 != 0) return Status::ParseError("odd hex length");
        std::string bytes;
        for (size_t h = 0; h < hex.size(); h += 2) {
          auto nib = [](char x) -> int {
            if (x >= '0' && x <= '9') return x - '0';
            if (x >= 'a' && x <= 'f') return x - 'a' + 10;
            if (x >= 'A' && x <= 'F') return x - 'A' + 10;
            return -1;
          };
          int hi = nib(hex[h]), lo = nib(hex[h + 1]);
          if (hi < 0 || lo < 0) return Status::ParseError("bad hex digit");
          bytes.push_back(static_cast<char>((hi << 4) | lo));
        }
        out.push_back({SqlToken::kBlob, bytes});
        i = end + 1;
        continue;
      }
      for (char& ch : word) {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      }
      out.push_back({SqlToken::kWord, word});
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      out.push_back({SqlToken::kNumber, sql.substr(start, i - start)});
    } else if (c == '\'') {
      std::string lit;
      ++i;
      while (i < n) {
        if (sql[i] == '\'' && i + 1 < n && sql[i + 1] == '\'') {
          lit.push_back('\'');  // escaped quote
          i += 2;
        } else if (sql[i] == '\'') {
          break;
        } else {
          lit.push_back(sql[i]);
          ++i;
        }
      }
      if (i >= n) return Status::ParseError("unterminated string literal");
      ++i;
      out.push_back({SqlToken::kString, lit});
    } else {
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      std::string two = sql.substr(i, 2);
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (two == op) {
          out.push_back({SqlToken::kPunct, two == "<>" ? "!=" : two});
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        out.push_back({SqlToken::kPunct, std::string(1, c)});
        ++i;
      }
    }
  }
  out.push_back({SqlToken::kEnd, ""});
  return out;
}

/// Cursor over a token stream with a tiny expectation API.
class Tokens {
 public:
  explicit Tokens(std::vector<SqlToken> toks) : toks_(std::move(toks)) {}
  const SqlToken& Peek() const { return toks_[pos_]; }
  const SqlToken& Next() { return toks_[pos_ == toks_.size() - 1 ? pos_ : pos_++]; }
  bool AtEnd() const {
    return Peek().kind == SqlToken::kEnd ||
           (Peek().kind == SqlToken::kPunct && Peek().text == ";");
  }
  bool ConsumeWord(const char* w) {
    if (Peek().kind == SqlToken::kWord && Peek().text == w) {
      Next();
      return true;
    }
    return false;
  }
  bool ConsumePunct(const char* p) {
    if (Peek().kind == SqlToken::kPunct && Peek().text == p) {
      Next();
      return true;
    }
    return false;
  }
  StatusOr<std::string> ExpectWord() {
    if (Peek().kind != SqlToken::kWord) {
      return Status::ParseError("expected identifier, got '" + Peek().text +
                                "'");
    }
    return Next().text;
  }
  Status ExpectPunct(const char* p) {
    if (!ConsumePunct(p)) {
      return Status::ParseError(std::string("expected '") + p + "'");
    }
    return Status::OK();
  }
  StatusOr<Value> ExpectLiteral() {
    const SqlToken& t = Peek();
    if (t.kind == SqlToken::kNumber) {
      Value v = Value::Int(std::strtoll(t.text.c_str(), nullptr, 10));
      Next();
      return v;
    }
    if (t.kind == SqlToken::kString) {
      Value v = Value::String(t.text);
      Next();
      return v;
    }
    if (t.kind == SqlToken::kBlob) {
      Value v = Value::Blob(t.text);
      Next();
      return v;
    }
    if (t.kind == SqlToken::kWord && t.text == "NULL") {
      Next();
      return Value();
    }
    return Status::ParseError("expected literal, got '" + t.text + "'");
  }

 private:
  std::vector<SqlToken> toks_;
  size_t pos_ = 0;
};

/// Table names arrive upper-cased from the lexer; schemas are stored with
/// that canonical casing because CREATE also goes through the lexer.
bool IsComparisonOp(const std::string& p) {
  return p == "=" || p == "!=" || p == "<" || p == "<=" || p == ">" ||
         p == ">=";
}

bool CompareWithOp(int cmp, const std::string& op) {
  if (op == "=") return cmp == 0;
  if (op == "!=") return cmp != 0;
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  return cmp >= 0;  // >=
}

}  // namespace

std::string ResultSet::ToTable() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out += (i > 0 ? " | " : "") + columns[i];
  }
  if (!columns.empty()) out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i > 0 ? " | " : "") + row[i].ToDisplay();
    }
    out += "\n";
  }
  return out;
}

StatusOr<ResultSet> SqlEngine::Execute(const std::string& sql) {
  // Every statement runs under one root span; engine ops, buffer misses,
  // and WAL syncs it triggers nest beneath it in the trace ring.
  FAME_OBS_TRACE(obs::ScopedOpSpan span(obs::TraceOp::kSql);)
  StatusOr<ResultSet> result = ExecuteStatement(sql);
  FAME_OBS_TRACE(span.set_error(!result.ok());)
  return result;
}

StatusOr<ResultSet> SqlEngine::ExecuteStatement(const std::string& sql) {
  std::string trimmed(Trim(sql));
  std::string head = ToLower(trimmed.substr(0, 7));
  if (StartsWith(head, "explain")) return ExecExplain(trimmed.substr(7));
  if (StartsWith(head, "profile")) return ExecProfile(trimmed.substr(7));
  head = head.substr(0, 6);
  if (StartsWith(head, "create")) return ExecCreate(sql);
  if (StartsWith(head, "insert")) return ExecInsert(sql);
  if (StartsWith(head, "select")) return ExecSelect(sql);
  if (StartsWith(head, "update")) return ExecUpdate(sql);
  if (StartsWith(head, "delete")) return ExecDelete(sql);
  return Status::ParseError("unsupported statement: " + sql);
}

StatusOr<ResultSet> SqlEngine::ExecCreate(const std::string& sql) {
  auto toks_or = Lex(sql);
  FAME_RETURN_IF_ERROR(toks_or.status());
  Tokens t(std::move(toks_or).value());
  if (!t.ConsumeWord("CREATE") || !t.ConsumeWord("TABLE")) {
    return Status::ParseError("expected CREATE TABLE");
  }
  Schema schema;
  FAME_ASSIGN_OR_RETURN(schema.table, t.ExpectWord());
  FAME_RETURN_IF_ERROR(t.ExpectPunct("("));
  while (true) {
    Column col;
    FAME_ASSIGN_OR_RETURN(col.name, t.ExpectWord());
    FAME_ASSIGN_OR_RETURN(std::string type, t.ExpectWord());
    if (type == "INT" || type == "INTEGER") {
      col.type = Value::Kind::kInt;
    } else if (type == "TEXT" || type == "VARCHAR" || type == "STRING") {
      col.type = Value::Kind::kString;
    } else if (type == "BLOB") {
      col.type = Value::Kind::kBlob;
    } else {
      return Status::ParseError("unknown column type " + type);
    }
    schema.columns.push_back(std::move(col));
    if (t.ConsumePunct(")")) break;
    FAME_RETURN_IF_ERROR(t.ExpectPunct(","));
  }
  FAME_RETURN_IF_ERROR(db_->CreateTable(schema));
  ResultSet rs;
  rs.plan = "ddl";
  return rs;
}

StatusOr<ResultSet> SqlEngine::ExecInsert(const std::string& sql) {
  auto toks_or = Lex(sql);
  FAME_RETURN_IF_ERROR(toks_or.status());
  Tokens t(std::move(toks_or).value());
  if (!t.ConsumeWord("INSERT") || !t.ConsumeWord("INTO")) {
    return Status::ParseError("expected INSERT INTO");
  }
  FAME_ASSIGN_OR_RETURN(std::string table, t.ExpectWord());
  if (!t.ConsumeWord("VALUES")) return Status::ParseError("expected VALUES");
  ResultSet rs;
  rs.plan = "insert";
  while (true) {
    FAME_RETURN_IF_ERROR(t.ExpectPunct("("));
    Row row;
    while (true) {
      FAME_ASSIGN_OR_RETURN(Value v, t.ExpectLiteral());
      row.push_back(std::move(v));
      if (t.ConsumePunct(")")) break;
      FAME_RETURN_IF_ERROR(t.ExpectPunct(","));
    }
    FAME_RETURN_IF_ERROR(db_->InsertRow(table, row));
    ++rs.affected;
    if (!t.ConsumePunct(",")) break;
  }
  return rs;
}

bool SqlEngine::RowMatches(const Schema& schema, const Row& row,
                           const Predicate& pred) {
  auto idx_or = schema.ColumnIndex(pred.column);
  if (!idx_or.ok() || idx_or.value() >= row.size()) return false;
  return CompareWithOp(row[idx_or.value()].Compare(pred.literal), pred.op);
}

const SqlEngine::Predicate* SqlEngine::PickAccess(
    const Schema& schema, const std::vector<Predicate>& preds) {
  const Predicate* access = nullptr;
  for (const Predicate& p : preds) {
    auto idx_or = schema.ColumnIndex(p.column);
    if (!idx_or.ok() || idx_or.value() != 0) continue;
    if (p.op == "=") return &p;
    if (access == nullptr &&
        (p.op == "<" || p.op == "<=" || p.op == ">" || p.op == ">=")) {
      access = &p;
    }
  }
  return access;
}

std::string SqlEngine::PlanName(const Predicate* access) const {
  if (access != nullptr && access->op == "=") return "point-lookup";
  if (access != nullptr && optimizer_ && db_->Has<Feature::kBPlusTree>()) {
    return "index-range";
  }
  return "full-scan";
}

Status SqlEngine::CollectRows(const std::string& table,
                              const std::vector<Predicate>& preds,
                              std::optional<uint64_t> limit,
                              std::vector<Row>* rows, std::string* plan,
                              ScanStats* stats) {
  FAME_ASSIGN_OR_RETURN(Schema schema, db_->GetSchema(table));
  for (const Predicate& p : preds) {
    FAME_RETURN_IF_ERROR(schema.ColumnIndex(p.column).status());
  }
  *plan = "full-scan";
  auto done = [&] { return limit.has_value() && rows->size() >= *limit; };
  if (done()) return Status::OK();

  // Pick the access-path predicate: an equality on the primary key beats a
  // range on the primary key beats nothing. The remaining predicates
  // filter.
  const Predicate* access = PickAccess(schema, preds);
  *plan = PlanName(access);
  auto matches_all = [&](const Row& row) {
    for (const Predicate& p : preds) {
      if (!RowMatches(schema, row, p)) return false;
    }
    return true;
  };
  auto scanned = [&] {
    if (stats != nullptr) ++stats->rows_scanned;
  };
  auto matched = [&] {
    if (stats != nullptr) ++stats->rows_matched;
  };

  if (*plan == "point-lookup") {
    auto row_or = db_->FindRow(table, access->literal);
    if (row_or.ok()) {
      scanned();
      if (matches_all(row_or.value())) {
        matched();
        rows->push_back(std::move(row_or).value());
      }
    } else if (!row_or.status().IsNotFound()) {
      return row_or.status();
    }
    return Status::OK();
  }
  if (*plan == "index-range") {
    // Rule-based optimizer: range predicate on the key -> index range.
    std::string prefix = "t:" + table + "\x01";
    std::string lo = prefix, hi = prefix;
    hi.back() = '\x02';
    if (access->op == ">" || access->op == ">=") {
      lo = prefix + access->literal.EncodeKey();
    } else {
      hi = prefix + access->literal.EncodeKey();
      if (access->op == "<=") hi.push_back('\0');  // include the bound
    }
    // Walk the record cursor (a snapshot view with Mvcc) from the range
    // start until the bound or the limit, then abandon it — a LIMIT-k
    // query never touches more than k matching leaves.
    Status decoded = Status::OK();
    FAME_RETURN_IF_ERROR(db_->WithRecordCursor([&](auto& cur) {
      return VisitRange(
          cur, Slice(lo), Slice(hi), /*ordered=*/true,
          [&](const Slice&, const Slice& value) {
            scanned();
            auto row_or = DecodeRow(value);
            if (!row_or.ok()) {
              decoded = row_or.status();
              return false;
            }
            // The bounds over-approximate; re-check every predicate exactly.
            if (matches_all(row_or.value())) {
              matched();
              rows->push_back(std::move(row_or).value());
            }
            return !done();
          });
    }));
    return decoded;
  }
  // Fallback: scan everything, filter; the limit still stops the
  // underlying cursor early once enough rows matched.
  FAME_RETURN_IF_ERROR(db_->ScanTable(table, [&](const Row& row) {
    scanned();
    if (matches_all(row)) {
      matched();
      rows->push_back(row);
      if (done()) return false;
    }
    return true;
  }));
  return Status::OK();
}

Status SqlEngine::ParseSelect(const std::string& sql, SelectQuery* q) {
  auto toks_or = Lex(sql);
  FAME_RETURN_IF_ERROR(toks_or.status());
  Tokens t(std::move(toks_or).value());
  if (!t.ConsumeWord("SELECT")) return Status::ParseError("expected SELECT");

  // Projection list: '*', plain columns, or aggregates (not mixed).
  q->star = t.ConsumePunct("*");
  if (!q->star) {
    while (true) {
      FAME_ASSIGN_OR_RETURN(std::string word, t.ExpectWord());
      if ((word == "COUNT" || word == "SUM" || word == "AVG" ||
           word == "MIN" || word == "MAX") &&
          t.ConsumePunct("(")) {
        SelectQuery::Aggregate agg;
        agg.fn = word;
        if (t.ConsumePunct("*")) {
          if (word != "COUNT") {
            return Status::ParseError(word + "(*) is not supported");
          }
          agg.column = "*";
        } else {
          FAME_ASSIGN_OR_RETURN(agg.column, t.ExpectWord());
        }
        FAME_RETURN_IF_ERROR(t.ExpectPunct(")"));
        q->aggregates.push_back(std::move(agg));
      } else {
        q->wanted.push_back(word);
      }
      if (!t.ConsumePunct(",")) break;
    }
    if (!q->aggregates.empty() && !q->wanted.empty()) {
      return Status::ParseError(
          "mixing aggregates and plain columns is not supported");
    }
  }
  if (!t.ConsumeWord("FROM")) return Status::ParseError("expected FROM");
  FAME_ASSIGN_OR_RETURN(q->table, t.ExpectWord());

  if (t.ConsumeWord("WHERE")) {
    do {
      Predicate p;
      FAME_ASSIGN_OR_RETURN(p.column, t.ExpectWord());
      if (t.Peek().kind != SqlToken::kPunct ||
          !IsComparisonOp(t.Peek().text)) {
        return Status::ParseError("expected comparison operator");
      }
      p.op = t.Next().text;
      FAME_ASSIGN_OR_RETURN(p.literal, t.ExpectLiteral());
      q->preds.push_back(std::move(p));
    } while (t.ConsumeWord("AND"));
  }
  if (t.ConsumeWord("ORDER")) {
    if (!t.ConsumeWord("BY")) return Status::ParseError("expected BY");
    FAME_ASSIGN_OR_RETURN(std::string col, t.ExpectWord());
    q->order_by = col;
    if (t.ConsumeWord("DESC")) {
      q->order_desc = true;
    } else {
      t.ConsumeWord("ASC");
    }
  }
  if (t.ConsumeWord("LIMIT")) {
    if (t.Peek().kind != SqlToken::kNumber) {
      return Status::ParseError("expected LIMIT count");
    }
    q->limit = std::strtoull(t.Next().text.c_str(), nullptr, 10);
  }
  if (!t.AtEnd()) {
    return Status::ParseError("trailing input after SELECT: '" +
                              t.Peek().text + "'");
  }
  return Status::OK();
}

StatusOr<ResultSet> SqlEngine::ExecSelect(const std::string& sql) {
  SelectQuery q;
  FAME_RETURN_IF_ERROR(ParseSelect(sql, &q));
  return RunSelect(q, nullptr);
}

namespace {
uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}
}  // namespace

StatusOr<ResultSet> SqlEngine::RunSelect(const SelectQuery& q,
                                         SelectProfile* prof) {
  FAME_ASSIGN_OR_RETURN(Schema schema, db_->GetSchema(q.table));
  ResultSet rs;
  std::vector<Row> rows;
  // LIMIT pushes down into collection (stopping the cursor after k matches)
  // only when collection order is output order; ORDER BY and aggregates
  // need the full row set first.
  std::optional<uint64_t> pushdown;
  if (!q.order_by.has_value() && q.aggregates.empty()) pushdown = q.limit;
  ScanStats scan_stats;
  auto mark = [&](const std::string& name, uint64_t rows_in, uint64_t rows_out,
                  std::chrono::steady_clock::time_point since) {
    if (prof != nullptr) {
      prof->ops.push_back({name, rows_in, rows_out, ElapsedNs(since)});
    }
  };
  auto scan_t0 = std::chrono::steady_clock::now();
  FAME_RETURN_IF_ERROR(CollectRows(q.table, q.preds, pushdown, &rows, &rs.plan,
                                   prof != nullptr ? &scan_stats : nullptr));
  mark("scan:" + rs.plan, scan_stats.rows_scanned, rows.size(), scan_t0);

  if (!q.aggregates.empty()) {
    // Aggregation consumes the row set; ORDER BY / LIMIT are meaningless
    // on the single result row and therefore rejected.
    if (q.order_by.has_value() || q.limit.has_value()) {
      return Status::ParseError("ORDER BY / LIMIT on an aggregate query");
    }
    auto agg_t0 = std::chrono::steady_clock::now();
    const uint64_t agg_in = rows.size();
    Row out_row;
    for (const SelectQuery::Aggregate& agg : q.aggregates) {
      rs.columns.push_back(agg.fn + "(" + agg.column + ")");
      if (agg.fn == "COUNT" && agg.column == "*") {
        out_row.push_back(Value::Int(static_cast<int64_t>(rows.size())));
        continue;
      }
      FAME_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(agg.column));
      int64_t count = 0, sum = 0;
      std::optional<Value> best;
      bool numeric = true;
      for (const Row& row : rows) {
        const Value& v = row[col];
        if (v.is_null()) continue;
        ++count;
        if (v.kind() == Value::Kind::kInt) {
          sum += v.AsInt();
        } else {
          numeric = false;
        }
        if (!best.has_value() ||
            (agg.fn == "MIN" && v.Compare(*best) < 0) ||
            (agg.fn == "MAX" && v.Compare(*best) > 0)) {
          best = v;
        }
      }
      if (agg.fn == "COUNT") {
        out_row.push_back(Value::Int(count));
      } else if (agg.fn == "SUM" || agg.fn == "AVG") {
        if (!numeric) {
          return Status::InvalidArgument(agg.fn + " needs an INT column");
        }
        if (agg.fn == "SUM") {
          out_row.push_back(count == 0 ? Value() : Value::Int(sum));
        } else {
          out_row.push_back(count == 0 ? Value() : Value::Int(sum / count));
        }
      } else {  // MIN / MAX
        out_row.push_back(best.value_or(Value()));
      }
    }
    rs.rows.push_back(std::move(out_row));
    mark("aggregate", agg_in, 1, agg_t0);
    return rs;
  }

  if (q.order_by.has_value()) {
    auto sort_t0 = std::chrono::steady_clock::now();
    FAME_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(*q.order_by));
    const bool order_desc = q.order_desc;
    std::stable_sort(rows.begin(), rows.end(),
                     [col, order_desc](const Row& a, const Row& b) {
                       int cmp = a[col].Compare(b[col]);
                       return order_desc ? cmp > 0 : cmp < 0;
                     });
    mark("sort", rows.size(), rows.size(), sort_t0);
  }
  if (q.limit.has_value()) {
    auto limit_t0 = std::chrono::steady_clock::now();
    const uint64_t limit_in = rows.size();
    if (rows.size() > *q.limit) rows.resize(*q.limit);
    mark("limit", limit_in, rows.size(), limit_t0);
  }

  // Projection.
  auto proj_t0 = std::chrono::steady_clock::now();
  std::vector<size_t> proj;
  if (q.star) {
    for (size_t i = 0; i < schema.columns.size(); ++i) proj.push_back(i);
    for (const Column& c : schema.columns) rs.columns.push_back(c.name);
  } else {
    for (const std::string& name : q.wanted) {
      FAME_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
      proj.push_back(idx);
      rs.columns.push_back(name);
    }
  }
  for (Row& row : rows) {
    Row out;
    out.reserve(proj.size());
    for (size_t idx : proj) out.push_back(row[idx]);
    rs.rows.push_back(std::move(out));
  }
  mark("project", rs.rows.size(), rs.rows.size(), proj_t0);
  return rs;
}

StatusOr<ResultSet> SqlEngine::ExecExplain(const std::string& select_sql) {
  SelectQuery q;
  FAME_RETURN_IF_ERROR(ParseSelect(select_sql, &q));
  // Validate every referenced column against the schema so EXPLAIN rejects
  // exactly what execution would — it just never touches the data.
  FAME_ASSIGN_OR_RETURN(Schema schema, db_->GetSchema(q.table));
  for (const Predicate& p : q.preds) {
    FAME_RETURN_IF_ERROR(schema.ColumnIndex(p.column).status());
  }
  if (q.order_by.has_value()) {
    FAME_RETURN_IF_ERROR(schema.ColumnIndex(*q.order_by).status());
  }
  for (const std::string& name : q.wanted) {
    FAME_RETURN_IF_ERROR(schema.ColumnIndex(name).status());
  }
  for (const SelectQuery::Aggregate& agg : q.aggregates) {
    if (agg.column != "*") {
      FAME_RETURN_IF_ERROR(schema.ColumnIndex(agg.column).status());
    }
  }

  const Predicate* access = PickAccess(schema, q.preds);
  ResultSet rs;
  rs.plan = PlanName(access);
  rs.columns = {"step", "detail"};
  auto step = [&rs](const std::string& name, const std::string& detail) {
    rs.rows.push_back({Value::String(name), Value::String(detail)});
  };
  std::string access_detail = rs.plan + " on " + q.table;
  if (access != nullptr && rs.plan != "full-scan") {
    access_detail +=
        " (" + access->column + " " + access->op + " " +
        access->literal.ToDisplay() + ")";
  }
  step("access", access_detail);
  if (!q.preds.empty()) {
    step("filter", std::to_string(q.preds.size()) +
                       " predicate(s) re-checked on every row");
  }
  if (!q.aggregates.empty()) {
    std::string aggs;
    for (const SelectQuery::Aggregate& agg : q.aggregates) {
      if (!aggs.empty()) aggs += ", ";
      aggs += agg.fn + "(" + agg.column + ")";
    }
    step("aggregate", aggs);
  }
  if (q.order_by.has_value()) {
    step("sort", "ORDER BY " + *q.order_by + (q.order_desc ? " DESC" : " ASC"));
  }
  if (q.limit.has_value()) {
    const bool pushdown = !q.order_by.has_value() && q.aggregates.empty();
    step("limit", std::to_string(*q.limit) +
                      (pushdown ? " (pushed down into the scan)"
                                : " (applied after sort/aggregate)"));
  }
  if (q.star) {
    step("project", "*");
  } else if (!q.wanted.empty()) {
    std::string cols;
    for (const std::string& name : q.wanted) {
      if (!cols.empty()) cols += ", ";
      cols += name;
    }
    step("project", cols);
  }
  return rs;
}

StatusOr<ResultSet> SqlEngine::ExecProfile(const std::string& select_sql) {
#if FAME_OBS_ENABLED
  SelectQuery q;
  FAME_RETURN_IF_ERROR(ParseSelect(select_sql, &q));
  // The IO columns are registry deltas around execution: the profile is
  // read from the same counters `fame stats` reports, not a parallel
  // bookkeeping path that could drift.
  auto before_or = db_->GetMetricsSnapshot();
  FAME_RETURN_IF_ERROR(before_or.status());
  const obs::MetricsSnapshot before = std::move(before_or).value();

  SelectProfile prof;
  auto total_t0 = std::chrono::steady_clock::now();
  auto run_or = RunSelect(q, &prof);
  const uint64_t total_ns = ElapsedNs(total_t0);
  FAME_RETURN_IF_ERROR(run_or.status());

  auto after_or = db_->GetMetricsSnapshot();
  FAME_RETURN_IF_ERROR(after_or.status());
  const obs::MetricsSnapshot after = std::move(after_or).value();
  const uint64_t page_reads = after.file_reads - before.file_reads;
  const uint64_t buffer_hits = after.buffer_hits - before.buffer_hits;

  ResultSet rs;
  rs.plan = run_or.value().plan;
  rs.columns = {"operator", "rows_in",    "rows_out",
                "wall_ns",  "page_reads", "buffer_hits"};
  for (const SelectProfile::OpStat& op : prof.ops) {
    // All data access happens in the scan operator; the statement's IO
    // deltas are attributed there, the in-memory operators get nulls.
    const bool is_scan = StartsWith(op.name, "scan:");
    rs.rows.push_back({Value::String(op.name),
                       Value::Int(static_cast<int64_t>(op.rows_in)),
                       Value::Int(static_cast<int64_t>(op.rows_out)),
                       Value::Int(static_cast<int64_t>(op.wall_ns)),
                       is_scan ? Value::Int(static_cast<int64_t>(page_reads))
                               : Value(),
                       is_scan ? Value::Int(static_cast<int64_t>(buffer_hits))
                               : Value()});
  }
  rs.rows.push_back({Value::String("total"), Value(),
                     Value::Int(static_cast<int64_t>(run_or.value().rows.size())),
                     Value::Int(static_cast<int64_t>(total_ns)),
                     Value::Int(static_cast<int64_t>(page_reads)),
                     Value::Int(static_cast<int64_t>(buffer_hits))});

  // Page-read latency percentiles for this statement, interpolated from
  // the delta of the base-4 IO histogram (shared with `fame stats`).
  obs::HistogramSnapshot read_ns;
  for (size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
    read_ns.counts[b] = after.file_read_ns.counts[b] - before.file_read_ns.counts[b];
  }
  read_ns.count = after.file_read_ns.count - before.file_read_ns.count;
  read_ns.sum = after.file_read_ns.sum - before.file_read_ns.sum;
  if (read_ns.count > 0) {
    for (double quantile : {0.50, 0.95, 0.99}) {
      const uint64_t ns = obs::HistogramPercentile(read_ns, quantile);
      rs.rows.push_back(
          {Value::String("io.read.p" +
                         std::to_string(static_cast<int>(quantile * 100))),
           Value(), Value(), Value::Int(static_cast<int64_t>(ns)), Value(),
           Value()});
    }
  }
  return rs;
#else
  (void)select_sql;
  return Status::NotSupported("PROFILE requires observability support");
#endif
}

StatusOr<ResultSet> SqlEngine::ExecUpdate(const std::string& sql) {
  auto toks_or = Lex(sql);
  FAME_RETURN_IF_ERROR(toks_or.status());
  Tokens t(std::move(toks_or).value());
  if (!t.ConsumeWord("UPDATE")) return Status::ParseError("expected UPDATE");
  FAME_ASSIGN_OR_RETURN(std::string table, t.ExpectWord());
  if (!t.ConsumeWord("SET")) return Status::ParseError("expected SET");

  std::vector<std::pair<std::string, Value>> sets;
  while (true) {
    FAME_ASSIGN_OR_RETURN(std::string col, t.ExpectWord());
    FAME_RETURN_IF_ERROR(t.ExpectPunct("="));
    FAME_ASSIGN_OR_RETURN(Value v, t.ExpectLiteral());
    sets.emplace_back(std::move(col), std::move(v));
    if (!t.ConsumePunct(",")) break;
  }
  std::vector<Predicate> preds;
  if (t.ConsumeWord("WHERE")) {
    do {
      Predicate p;
      FAME_ASSIGN_OR_RETURN(p.column, t.ExpectWord());
      if (t.Peek().kind != SqlToken::kPunct ||
          !IsComparisonOp(t.Peek().text)) {
        return Status::ParseError("expected comparison operator");
      }
      p.op = t.Next().text;
      FAME_ASSIGN_OR_RETURN(p.literal, t.ExpectLiteral());
      preds.push_back(std::move(p));
    } while (t.ConsumeWord("AND"));
  }

  FAME_ASSIGN_OR_RETURN(Schema schema, db_->GetSchema(table));
  std::vector<std::pair<size_t, Value>> set_idx;
  for (auto& [col, v] : sets) {
    FAME_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
    if (idx == 0) {
      return Status::NotSupported("updating the primary key is not supported");
    }
    set_idx.emplace_back(idx, v);
  }

  ResultSet rs;
  std::vector<Row> rows;
  FAME_RETURN_IF_ERROR(
      CollectRows(table, preds, std::nullopt, &rows, &rs.plan));
  for (Row& row : rows) {
    for (const auto& [idx, v] : set_idx) row[idx] = v;
    FAME_RETURN_IF_ERROR(db_->InsertRow(table, row));  // upsert by key
    ++rs.affected;
  }
  return rs;
}

StatusOr<ResultSet> SqlEngine::ExecDelete(const std::string& sql) {
  auto toks_or = Lex(sql);
  FAME_RETURN_IF_ERROR(toks_or.status());
  Tokens t(std::move(toks_or).value());
  if (!t.ConsumeWord("DELETE") || !t.ConsumeWord("FROM")) {
    return Status::ParseError("expected DELETE FROM");
  }
  FAME_ASSIGN_OR_RETURN(std::string table, t.ExpectWord());
  std::vector<Predicate> preds;
  if (t.ConsumeWord("WHERE")) {
    do {
      Predicate p;
      FAME_ASSIGN_OR_RETURN(p.column, t.ExpectWord());
      if (t.Peek().kind != SqlToken::kPunct ||
          !IsComparisonOp(t.Peek().text)) {
        return Status::ParseError("expected comparison operator");
      }
      p.op = t.Next().text;
      FAME_ASSIGN_OR_RETURN(p.literal, t.ExpectLiteral());
      preds.push_back(std::move(p));
    } while (t.ConsumeWord("AND"));
  }
  ResultSet rs;
  std::vector<Row> rows;
  FAME_RETURN_IF_ERROR(
      CollectRows(table, preds, std::nullopt, &rows, &rs.plan));
  for (const Row& row : rows) {
    FAME_RETURN_IF_ERROR(db_->DeleteRow(table, row[0]));
    ++rs.affected;
  }
  return rs;
}

}  // namespace fame::core
