#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/json_writer.hpp"
#include "util/assert.hpp"

namespace syncpat::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// Histogram as JSON: count, sum, and the non-empty log2 buckets as
/// [bucket_index, count] pairs (bucket_lo(i) recovers the value range).
void append_histogram_json(std::string& out, const util::Histogram& h) {
  appendf(out, "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"buckets\":[",
          h.count(), h.sum());
  bool first = true;
  for (std::size_t i = 0; i < util::Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    appendf(out, "%s[%zu,%" PRIu64 "]", first ? "" : ",", i, h.bucket_count(i));
    first = false;
  }
  out += "]}";
}

/// CSV cell-safe: the exported labels are program/scheme names (no commas or
/// quotes in practice), but scrub separators anyway so a row stays a row.
std::string csv_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    out.push_back(c == ',' || c == '\n' || c == '\r' ? ' ' : c);
  }
  return out;
}

void append_histogram_csv(std::string& out, const std::string& record,
                          const char* name, const util::Histogram& h) {
  appendf(out, "%s,%s.count,%" PRIu64 "\n", record.c_str(), name, h.count());
  appendf(out, "%s,%s.sum,%" PRIu64 "\n", record.c_str(), name, h.sum());
  for (std::size_t i = 0; i < util::Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    appendf(out, "%s,%s.bucket%zu,%" PRIu64 "\n", record.c_str(), name, i,
            h.bucket_count(i));
  }
}

}  // namespace

// --------------------------------------------------------------------------
// BusWindowGauge

BusWindowGauge::BusWindowGauge(std::uint32_t window_cycles)
    : window_cycles_(window_cycles) {
  SYNCPAT_ASSERT(window_cycles_ > 0);
}

void BusWindowGauge::credit(std::uint64_t cycle, std::uint64_t busy,
                            bool subtract) {
  while (busy > 0) {
    const std::uint64_t w = cycle / window_cycles_;
    if (busy_.size() <= w) busy_.resize(w + 1, 0);
    const std::uint64_t window_end = (w + 1) * std::uint64_t{window_cycles_};
    const std::uint64_t in_window = std::min(busy, window_end - cycle);
    if (subtract) {
      SYNCPAT_ASSERT(busy_[w] >= in_window && total_busy_ >= in_window);
      busy_[w] -= in_window;
      total_busy_ -= in_window;
    } else {
      busy_[w] += in_window;
      total_busy_ += in_window;
    }
    cycle += in_window;
    busy -= in_window;
  }
}

void BusWindowGauge::add(std::uint64_t cycle, std::uint64_t busy) {
  credit(cycle, busy, /*subtract=*/false);
  last_start_ = cycle;
  last_len_ = busy;
}

void BusWindowGauge::finalize(std::uint64_t end_cycle) {
  if (last_len_ > 0 && last_start_ + last_len_ - 1 > end_cycle) {
    // The run ended mid-tenure (a trailing write-back still on the bus):
    // remove the cycles that were never ticked so total_busy() equals the
    // bus's busy-cycle counter exactly.
    const std::uint64_t kept =
        end_cycle >= last_start_ ? end_cycle - last_start_ + 1 : 0;
    credit(last_start_ + kept, last_len_ - kept, /*subtract=*/true);
    last_len_ = kept;
  }
  const std::uint64_t want = end_cycle / window_cycles_ + 1;
  if (busy_.size() < want) busy_.resize(want, 0);
}

double BusWindowGauge::utilization(std::size_t i) const {
  return static_cast<double>(busy_[i]) / static_cast<double>(window_cycles_);
}

// --------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(const MetricsConfig& config)
    : bus_(config.bus_window_cycles) {}

void MetricsRegistry::finalize(std::uint64_t run_time,
                               std::vector<ProcAttribution> ledgers,
                               std::map<std::uint32_t, sync::LockAggregate> locks) {
  bus_.finalize(run_time);
  ledgers_ = std::move(ledgers);
  locks_ = std::move(locks);
}

// --------------------------------------------------------------------------
// Export

MetricsFormat metrics_format_from_path(const std::string& path) {
  const std::size_t dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".json") return MetricsFormat::kJson;
  if (ext == ".csv") return MetricsFormat::kCsv;
  throw std::invalid_argument("metrics output path must end in .json or .csv, got \"" +
                              path + "\"");
}

std::string metrics_to_json(const MetricsRegistry& m, const MetricsMeta& meta) {
  std::string out;
  out.reserve(4096);
  // Labels are appended directly: a program may be a trace-file path of any
  // length, too long for appendf's buffer.
  out += "{\n\"program\":\"" + json_escape(meta.program) + "\",\"scheme\":\"" +
         json_escape(meta.scheme) + "\",\"consistency\":\"" +
         json_escape(meta.consistency) + "\",";
  appendf(out, "\"num_procs\":%u,\"run_time\":%" PRIu64 ",\n", meta.num_procs,
          meta.run_time);

  out += "\"stall_attribution\":[\n";
  ProcAttribution totals;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    const ProcAttribution& a = m.ledger(p);
    appendf(out, "%s{\"proc\":%u", p == 0 ? "" : ",\n", p);
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
      appendf(out, ",\"%s\":%" PRIu64,
              stall_cat_name(static_cast<StallCat>(c)), a.cycles[c]);
      totals.cycles[c] += a.cycles[c];
    }
    appendf(out, ",\"total\":%" PRIu64 "}", a.total());
  }
  out += "\n],\n\"stall_totals\":{";
  for (std::size_t c = 0; c < kNumStallCats; ++c) {
    appendf(out, "%s\"%s\":%" PRIu64, c == 0 ? "" : ",",
            stall_cat_name(static_cast<StallCat>(c)), totals.cycles[c]);
  }
  appendf(out, ",\"total\":%" PRIu64 "},\n", totals.total());

  out += "\"locks\":[\n";
  bool first = true;
  for (const auto& [line, lm] : m.locks()) {
    appendf(out, "%s{\"line\":%u,\"acquisitions\":%" PRIu64
                 ",\"transfers\":%" PRIu64 ",\"waiters_at_acquire\":",
            first ? "" : ",\n", line, lm.acquisitions, lm.transfers);
    append_histogram_json(out, lm.waiters_at_acquire);
    out += ",\"hold_cycles\":";
    append_histogram_json(out, lm.hold_hist);
    out += ",\"handoff_cycles\":";
    append_histogram_json(out, lm.transfer_hist);
    out += "}";
    first = false;
  }
  out += "\n],\n";

  const BusWindowGauge& bus = m.bus();
  appendf(out, "\"bus\":{\"window_cycles\":%u,\"total_busy\":%" PRIu64
               ",\"busy_per_window\":[",
          bus.window_cycles(), bus.total_busy());
  for (std::size_t i = 0; i < bus.windows().size(); ++i) {
    appendf(out, "%s%" PRIu64, i == 0 ? "" : ",", bus.windows()[i]);
  }
  out += "]},\n\"counters\":{";
  first = true;
  for (const auto& [name, value] : m.counters()) {
    appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",",
            json_escape(name).c_str(), value);
    first = false;
  }
  out += "}\n}\n";
  return out;
}

std::string metrics_to_csv(const MetricsRegistry& m, const MetricsMeta& meta) {
  std::string out;
  out.reserve(4096);
  out += "record,field,value\n";
  out += "meta,program," + csv_escape(meta.program) + "\n";
  out += "meta,scheme," + csv_escape(meta.scheme) + "\n";
  out += "meta,consistency," + csv_escape(meta.consistency) + "\n";
  appendf(out, "meta,num_procs,%u\n", meta.num_procs);
  appendf(out, "meta,run_time,%" PRIu64 "\n", meta.run_time);

  ProcAttribution totals;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    const ProcAttribution& a = m.ledger(p);
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
      appendf(out, "stall.proc%u,%s,%" PRIu64 "\n", p,
              stall_cat_name(static_cast<StallCat>(c)), a.cycles[c]);
      totals.cycles[c] += a.cycles[c];
    }
    appendf(out, "stall.proc%u,total,%" PRIu64 "\n", p, a.total());
  }
  for (std::size_t c = 0; c < kNumStallCats; ++c) {
    appendf(out, "stall.total,%s,%" PRIu64 "\n",
            stall_cat_name(static_cast<StallCat>(c)), totals.cycles[c]);
  }
  appendf(out, "stall.total,total,%" PRIu64 "\n", totals.total());

  for (const auto& [line, lm] : m.locks()) {
    char record[32];
    std::snprintf(record, sizeof record, "lock.0x%08x", line);
    appendf(out, "%s,acquisitions,%" PRIu64 "\n", record, lm.acquisitions);
    appendf(out, "%s,transfers,%" PRIu64 "\n", record, lm.transfers);
    append_histogram_csv(out, record, "waiters_at_acquire",
                         lm.waiters_at_acquire);
    append_histogram_csv(out, record, "hold_cycles", lm.hold_hist);
    append_histogram_csv(out, record, "handoff_cycles", lm.transfer_hist);
  }

  const BusWindowGauge& bus = m.bus();
  appendf(out, "bus,window_cycles,%u\n", bus.window_cycles());
  appendf(out, "bus,total_busy,%" PRIu64 "\n", bus.total_busy());
  for (std::size_t i = 0; i < bus.windows().size(); ++i) {
    appendf(out, "bus,window%zu,%" PRIu64 "\n", i, bus.windows()[i]);
  }
  for (const auto& [name, value] : m.counters()) {
    appendf(out, "counter,%s,%" PRIu64 "\n", csv_escape(name).c_str(), value);
  }
  return out;
}

}  // namespace syncpat::obs
