#include "obs/serialize.h"

#include <cinttypes>
#include <set>
#include <sstream>

namespace fame::obs {
namespace {

void Line(std::string* out, const char* k, uint64_t v) {
  *out += std::string(k) + ": " + std::to_string(v) + "\n";
}

void HistoLine(std::string* out, const char* k, const HistogramSnapshot& h) {
  if (h.count == 0) return;
  *out += std::string(k) + ": " + RenderHistogram(h) + "\n";
}

// --- Prometheus helpers -------------------------------------------------

/// Output stream plus the set of metric families already announced, so
/// `# HELP` / `# TYPE` appear exactly once per family even when a family
/// emits one sample per label set (buffer shards, allocators).
struct PromState {
  std::ostringstream os;
  std::set<std::string> announced;
};

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside the quotes.
std::string PromEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string PromLabel(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + PromEscape(value) + "\"";
}

void PromAnnounce(PromState& st, const char* name, const char* type) {
  if (!st.announced.insert(name).second) return;
  std::string help(name);
  for (char& c : help) {
    if (c == '_') c = ' ';
  }
  st.os << "# HELP fame_" << name << " " << help << "\n";
  st.os << "# TYPE fame_" << name << " " << type << "\n";
}

void PromCounter(PromState& st, const char* name, uint64_t v,
                 const std::string& labels = "") {
  const std::string n(name);
  const bool counter =
      n.size() >= 6 && n.compare(n.size() - 6, 6, "_total") == 0;
  PromAnnounce(st, name, counter ? "counter" : "gauge");
  st.os << "fame_" << name;
  if (!labels.empty()) st.os << "{" << labels << "}";
  st.os << " " << v << "\n";
}

void PromHisto(PromState& st, const char* name, const HistogramSnapshot& h) {
  PromAnnounce(st, name, "histogram");
  uint64_t cumulative = 0;
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    cumulative += h.counts[b];
    st.os << "fame_" << name << "_bucket{le=\"";
    if (b + 1 == HistogramSnapshot::kBuckets) {
      st.os << "+Inf";
    } else {
      st.os << HistogramSnapshot::BucketBound(b);
    }
    st.os << "\"} " << cumulative << "\n";
  }
  st.os << "fame_" << name << "_sum " << h.sum << "\n";
  st.os << "fame_" << name << "_count " << h.count << "\n";
}

}  // namespace

uint64_t HistogramPercentile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile (1-based, rounded up so p100 lands on
  // the last sample), then a linear interpolation inside the base-4 bucket
  // that holds it — log-spaced buckets, linear within.
  const double rank = q * static_cast<double>(h.count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += h.counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    const uint64_t lo = b == 0 ? 0 : (uint64_t{1} << (2 * b));
    const uint64_t hi = HistogramSnapshot::BucketBound(b) + 1;
    const double frac = (rank - static_cast<double>(before)) /
                        static_cast<double>(h.counts[b]);
    return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
  }
  return HistogramSnapshot::BucketBound(HistogramSnapshot::kBuckets - 1);
}

std::string RenderHistogram(const HistogramSnapshot& h) {
  std::ostringstream os;
  os << "count=" << h.count << " sum=" << h.sum << " mean="
     << static_cast<uint64_t>(h.Mean());
  if (h.count > 0) {
    os << " p50=" << HistogramPercentile(h, 0.50)
       << " p95=" << HistogramPercentile(h, 0.95)
       << " p99=" << HistogramPercentile(h, 0.99);
  }
  os << " buckets=[";
  bool first = true;
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    if (!first) os << " ";
    first = false;
    if (b + 1 == HistogramSnapshot::kBuckets) {
      os << "le+Inf:";
    } else {
      os << "le" << HistogramSnapshot::BucketBound(b) << ":";
    }
    os << h.counts[b];
  }
  os << "]";
  return os.str();
}

std::string RenderText(const MetricsSnapshot& m) {
  std::string out;
  // Historical DbStats block — keep the line keys stable; tests and
  // scripts grep them.
  Line(&out, "pages", m.page_count);
  Line(&out, "buffer hits", m.buffer_hits);
  Line(&out, "buffer misses", m.buffer_misses);
  Line(&out, "buffer evictions", m.buffer_evictions);
  Line(&out, "dirty writebacks", m.buffer_writebacks);
  Line(&out, "scrub pages checked", m.scrub_pages_checked);
  Line(&out, "scrub corrupt pages", m.scrub_corrupt_pages);
  Line(&out, "scrub cycles", m.scrub_cycles);
  Line(&out, "verify runs", m.verify_runs);
  Line(&out, "repair runs", m.repair_runs);
  Line(&out, "pages quarantined", m.pages_quarantined);
  Line(&out, "records salvaged", m.records_salvaged);
  Line(&out, "lost meta writes", m.lost_meta_writes);
  Line(&out, "lost page writebacks", m.lost_page_writebacks);
  Line(&out, "committed txns", m.committed_txns);
  Line(&out, "aborted txns", m.aborted_txns);
  Line(&out, "wal records appended", m.wal_appends);
  Line(&out, "wal fsyncs", m.wal_syncs);
  Line(&out, "wal group-commit batches", m.wal_batches);
  Line(&out, "wal records replayed at open", m.recovery_applied_records);
  Line(&out, "wal bytes dropped at open", m.recovery_dropped_bytes);
  out += std::string("read-only: ") + (m.read_only ? "yes" : "no") + "\n";
  if (m.wal_segmented) {
    // [feature Backup] only — products on the legacy single-file log keep
    // the historical output byte-identical.
    Line(&out, "wal segments", m.wal_segments);
    Line(&out, "wal segment rotations", m.wal_rotations);
    Line(&out, "wal segments recycled", m.wal_recycled);
    Line(&out, "wal segments archived", m.wal_archived);
    Line(&out, "wal archive lag bytes", m.wal_archive_lag_bytes);
    out += std::string("wal archive stalled: ") +
           (m.wal_archive_stalled ? "yes" : "no") + "\n";
    Line(&out, "wal retained lsn", m.wal_retained_lsn);
    Line(&out, "backup runs", m.backup_runs);
    Line(&out, "backup bytes", m.backup_bytes);
  }
  if (m.repl) {
    // [feature Replication] only — unfenced products keep the historical
    // output byte-identical.
    out += std::string("repl role: ") +
           (m.repl_follower ? "follower" : "leader") + "\n";
    Line(&out, "repl epoch", m.repl_epoch);
    Line(&out, "repl lag bytes", m.repl_lag_bytes);
    Line(&out, "repl lag epochs", m.repl_lag_epochs);
  }
  if (m.mvcc) {
    // [feature Mvcc] only — products without snapshot isolation keep the
    // historical output byte-identical.
    Line(&out, "mvcc active snapshots", m.mvcc_active_snapshots);
    Line(&out, "mvcc conflicts", m.mvcc_conflicts);
    Line(&out, "mvcc gc runs", m.mvcc_gc_runs);
    Line(&out, "mvcc gc pruned versions", m.mvcc_gc_pruned);
    Line(&out, "mvcc watermark", m.mvcc_watermark);
    Line(&out, "mvcc commit clock", m.mvcc_clock);
    HistoLine(&out, "mvcc chain length", m.mvcc_chain_len);
  }

  // Observability sections (nonzero data only).
  if (!m.buffer_shards.empty() && m.buffer_shards.size() > 1) {
    for (size_t i = 0; i < m.buffer_shards.size(); ++i) {
      const BufferShardSnapshot& s = m.buffer_shards[i];
      if (s.hits + s.misses + s.evictions + s.dirty_writebacks == 0) continue;
      out += "buffer shard " + std::to_string(i) + ": hits=" +
             std::to_string(s.hits) + " misses=" + std::to_string(s.misses) +
             " evictions=" + std::to_string(s.evictions) + " writebacks=" +
             std::to_string(s.dirty_writebacks) + "\n";
    }
  }
  if (m.file_reads + m.file_writes + m.file_syncs > 0) {
    Line(&out, "file reads", m.file_reads);
    Line(&out, "file writes", m.file_writes);
    Line(&out, "file syncs", m.file_syncs);
    Line(&out, "file read bytes", m.file_read_bytes);
    Line(&out, "file write bytes", m.file_write_bytes);
    HistoLine(&out, "file read latency ns", m.file_read_ns);
    HistoLine(&out, "file write latency ns", m.file_write_ns);
    HistoLine(&out, "file sync latency ns", m.file_sync_ns);
    HistoLine(&out, "file verify latency ns", m.file_verify_ns);
    HistoLine(&out, "file seal latency ns", m.file_seal_ns);
  }
  HistoLine(&out, "wal batch records", m.wal_batch_records);
  if (m.btree_descents + m.btree_splits + m.btree_merges > 0) {
    Line(&out, "btree descents", m.btree_descents);
    Line(&out, "btree splits", m.btree_splits);
    Line(&out, "btree merges", m.btree_merges);
  }
  if (m.cursor_seeks + m.cursor_rows_scanned > 0) {
    Line(&out, "cursor seeks", m.cursor_seeks);
    Line(&out, "cursor rows scanned", m.cursor_rows_scanned);
    Line(&out, "cursor rows returned", m.cursor_rows_returned);
    Line(&out, "cursors open", m.cursors_open);
  }
  if (m.engine_gets + m.engine_puts + m.engine_removes + m.engine_scans > 0) {
    Line(&out, "engine gets", m.engine_gets);
    Line(&out, "engine puts", m.engine_puts);
    Line(&out, "engine removes", m.engine_removes);
    Line(&out, "engine scans", m.engine_scans);
    HistoLine(&out, "get latency ns", m.get_ns);
    HistoLine(&out, "put latency ns", m.put_ns);
    HistoLine(&out, "remove latency ns", m.remove_ns);
    HistoLine(&out, "scan latency ns", m.scan_ns);
  }
  if (!m.alloc_name.empty()) {
    // Memory path: snapshots assembled before the alloc gauges existed
    // carry no allocator name and keep the historical output byte-identical.
    out += "alloc name: " + m.alloc_name + "\n";
    Line(&out, "alloc live bytes", m.alloc_live_bytes);
    Line(&out, "alloc peak bytes", m.alloc_peak_bytes);
    Line(&out, "alloc remote frees", m.alloc_remote_frees);
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& m) {
  PromState st;
  PromCounter(st, "buffer_hits_total", m.buffer_hits);
  PromCounter(st, "buffer_misses_total", m.buffer_misses);
  PromCounter(st, "buffer_evictions_total", m.buffer_evictions);
  PromCounter(st, "buffer_writebacks_total", m.buffer_writebacks);
  for (size_t i = 0; i < m.buffer_shards.size(); ++i) {
    const BufferShardSnapshot& s = m.buffer_shards[i];
    std::string label = PromLabel("shard", std::to_string(i));
    PromCounter(st, "buffer_shard_hits_total", s.hits, label);
    PromCounter(st, "buffer_shard_misses_total", s.misses, label);
    PromCounter(st, "buffer_shard_evictions_total", s.evictions, label);
    PromCounter(st, "buffer_shard_writebacks_total", s.dirty_writebacks,
                label);
  }
  PromCounter(st, "file_reads_total", m.file_reads);
  PromCounter(st, "file_writes_total", m.file_writes);
  PromCounter(st, "file_syncs_total", m.file_syncs);
  PromCounter(st, "file_read_bytes_total", m.file_read_bytes);
  PromCounter(st, "file_write_bytes_total", m.file_write_bytes);
  PromHisto(st, "file_read_latency_ns", m.file_read_ns);
  PromHisto(st, "file_write_latency_ns", m.file_write_ns);
  PromHisto(st, "file_sync_latency_ns", m.file_sync_ns);
  PromHisto(st, "file_verify_latency_ns", m.file_verify_ns);
  PromHisto(st, "file_seal_latency_ns", m.file_seal_ns);
  PromCounter(st, "wal_appends_total", m.wal_appends);
  PromCounter(st, "wal_fsyncs_total", m.wal_syncs);
  PromCounter(st, "wal_batches_total", m.wal_batches);
  PromCounter(st, "wal_batched_bytes_total", m.wal_batched_bytes);
  PromHisto(st, "wal_batch_records", m.wal_batch_records);
  if (m.wal_segmented) {
    PromCounter(st, "wal_segments", m.wal_segments);
    PromCounter(st, "wal_rotations_total", m.wal_rotations);
    PromCounter(st, "wal_recycled_total", m.wal_recycled);
    PromCounter(st, "wal_archived_total", m.wal_archived);
    PromCounter(st, "wal_archive_lag_bytes", m.wal_archive_lag_bytes);
    PromCounter(st, "wal_archive_stalled", m.wal_archive_stalled ? 1 : 0);
    PromCounter(st, "wal_retained_lsn", m.wal_retained_lsn);
    PromCounter(st, "backup_runs_total", m.backup_runs);
    PromCounter(st, "backup_bytes_total", m.backup_bytes);
  }
  if (m.repl) {
    PromCounter(st, "repl_follower", m.repl_follower ? 1 : 0);
    PromCounter(st, "repl_epoch", m.repl_epoch);
    PromCounter(st, "repl_lag_bytes", m.repl_lag_bytes);
    PromCounter(st, "repl_lag_epochs", m.repl_lag_epochs);
  }
  if (m.mvcc) {
    PromCounter(st, "mvcc_active_snapshots", m.mvcc_active_snapshots);
    PromCounter(st, "mvcc_conflicts_total", m.mvcc_conflicts);
    PromCounter(st, "mvcc_gc_runs_total", m.mvcc_gc_runs);
    PromCounter(st, "mvcc_gc_pruned_total", m.mvcc_gc_pruned);
    PromCounter(st, "mvcc_watermark", m.mvcc_watermark);
    PromCounter(st, "mvcc_commit_clock", m.mvcc_clock);
    PromHisto(st, "mvcc_chain_len", m.mvcc_chain_len);
  }
  PromCounter(st, "btree_splits_total", m.btree_splits);
  PromCounter(st, "btree_merges_total", m.btree_merges);
  PromCounter(st, "btree_descents_total", m.btree_descents);
  PromCounter(st, "cursor_seeks_total", m.cursor_seeks);
  PromCounter(st, "cursor_rows_scanned_total", m.cursor_rows_scanned);
  PromCounter(st, "cursor_rows_returned_total", m.cursor_rows_returned);
  PromCounter(st, "cursors_open", m.cursors_open);
  PromCounter(st, "engine_gets_total", m.engine_gets);
  PromCounter(st, "engine_puts_total", m.engine_puts);
  PromCounter(st, "engine_removes_total", m.engine_removes);
  PromCounter(st, "engine_scans_total", m.engine_scans);
  PromHisto(st, "get_latency_ns", m.get_ns);
  PromHisto(st, "put_latency_ns", m.put_ns);
  PromHisto(st, "remove_latency_ns", m.remove_ns);
  PromHisto(st, "scan_latency_ns", m.scan_ns);
  PromCounter(st, "verify_runs_total", m.verify_runs);
  PromCounter(st, "repair_runs_total", m.repair_runs);
  PromCounter(st, "pages_quarantined_total", m.pages_quarantined);
  PromCounter(st, "records_salvaged_total", m.records_salvaged);
  PromCounter(st, "scrub_pages_checked_total", m.scrub_pages_checked);
  PromCounter(st, "scrub_corrupt_pages_total", m.scrub_corrupt_pages);
  PromCounter(st, "scrub_cycles_total", m.scrub_cycles);
  PromCounter(st, "lost_meta_writes_total", m.lost_meta_writes);
  PromCounter(st, "lost_page_writebacks_total", m.lost_page_writebacks);
  PromCounter(st, "committed_txns_total", m.committed_txns);
  PromCounter(st, "aborted_txns_total", m.aborted_txns);
  if (!m.alloc_name.empty()) {
    std::string label = PromLabel("allocator", m.alloc_name);
    PromCounter(st, "alloc_live_bytes", m.alloc_live_bytes, label);
    PromCounter(st, "alloc_peak_bytes", m.alloc_peak_bytes, label);
    PromCounter(st, "alloc_remote_frees_total", m.alloc_remote_frees, label);
  }
  PromCounter(st, "page_count", m.page_count);
  PromCounter(st, "read_only", m.read_only ? 1 : 0);
  return st.os.str();
}

}  // namespace fame::obs
