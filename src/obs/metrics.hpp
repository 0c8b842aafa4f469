// MetricsRegistry: the export side of the deterministic metrics layer.  The
// simulator keeps its cycle ledgers (ProcStats::ledger) and per-lock records
// (sync::LockAggregate) on every run; the registry adds only what a plain run
// does not keep — the windowed bus-utilization gauge and the machine
// counters — and, at the end of the run, receives a copy of the ledgers and
// lock records so the exporters and the machine-profile report read one
// object.  The Simulator holds no registry when MetricsConfig.enabled is
// false; the gauge is its only live hook, and metrics-enabled runs are
// byte-identical to disabled ones (fuzz oracle #7 runs the reference
// simulation with metrics on and compares it byte-for-byte against a plain
// run).
//
// Everything in the registry is a deterministic function of simulation state:
// integer cycle counts keyed by sorted maps, so two runs of the same cell —
// on any --jobs count, on either engine — render identical bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/stall_attribution.hpp"
#include "sync/lock_stats.hpp"

namespace syncpat::obs {

struct MetricsConfig {
  bool enabled = false;
  /// Bus-utilization gauge window, in cycles (>= 1).
  std::uint32_t bus_window_cycles = 4096;
};

/// Windowed bus-utilization gauge: busy cycles accumulated per fixed-size
/// cycle window.  Tenures are credited in full when they start (the bus's
/// busy counter accrues the same cycles tick by tick); since tenures never
/// overlap, only the final one can outlive the run, and finalize() clips it
/// so that the window totals equal Bus::busy_cycles() exactly.
class BusWindowGauge {
 public:
  explicit BusWindowGauge(std::uint32_t window_cycles);

  /// A bus tenure of `busy` cycles starting at `cycle`.
  void add(std::uint64_t cycle, std::uint64_t busy);
  /// Clips the tail tenure at `end_cycle` (the run's last executed cycle)
  /// and zero-extends the window vector to cover [0, end_cycle].
  void finalize(std::uint64_t end_cycle);

  [[nodiscard]] std::uint32_t window_cycles() const { return window_cycles_; }
  [[nodiscard]] const std::vector<std::uint64_t>& windows() const {
    return busy_;
  }
  [[nodiscard]] std::uint64_t total_busy() const { return total_busy_; }
  /// Busy fraction of window `i` (the last window may be partial; its
  /// denominator is still the full window size).
  [[nodiscard]] double utilization(std::size_t i) const;

 private:
  void credit(std::uint64_t cycle, std::uint64_t busy, bool subtract);

  std::uint32_t window_cycles_;
  std::vector<std::uint64_t> busy_;  // busy cycles per window
  std::uint64_t total_busy_ = 0;
  std::uint64_t last_start_ = 0;  // final tenure, for finalize()'s clip
  std::uint64_t last_len_ = 0;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(const MetricsConfig& config);

  /// Called once at the end of Simulator::run(): clips the bus gauge at the
  /// run's final cycle and takes the end-of-run snapshot — one ledger per
  /// processor and one record per lock, keyed and exported by line address
  /// (sorted, so rendering is deterministic).
  void finalize(std::uint64_t run_time, std::vector<ProcAttribution> ledgers,
                std::map<std::uint32_t, sync::LockAggregate> locks);

  [[nodiscard]] std::uint32_t num_procs() const {
    return static_cast<std::uint32_t>(ledgers_.size());
  }
  [[nodiscard]] const ProcAttribution& ledger(std::uint32_t p) const {
    return ledgers_[p];
  }
  [[nodiscard]] const std::map<std::uint32_t, sync::LockAggregate>& locks()
      const {
    return locks_;
  }

  [[nodiscard]] BusWindowGauge& bus() { return bus_; }
  [[nodiscard]] const BusWindowGauge& bus() const { return bus_; }

  /// Named machine-level counter (accumulating; sorted for export).  Only
  /// deterministic-across-engines values belong here: the export is compared
  /// byte-for-byte between DES and per-cycle tick.
  void count(const std::string& name, std::uint64_t n) { counters_[name] += n; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

 private:
  std::vector<ProcAttribution> ledgers_;
  std::map<std::uint32_t, sync::LockAggregate> locks_;
  BusWindowGauge bus_;
  std::map<std::string, std::uint64_t> counters_;
};

// --- export ---------------------------------------------------------------

/// Run labels stamped into the export header.
struct MetricsMeta {
  std::string program;
  std::string scheme;
  std::string consistency;
  std::uint32_t num_procs = 0;
  std::uint64_t run_time = 0;
};

enum class MetricsFormat : std::uint8_t { kJson, kCsv };

/// Dispatches on the file extension: ".json" or ".csv"; anything else throws
/// std::invalid_argument (the strict-parsing policy: junk errors loudly).
[[nodiscard]] MetricsFormat metrics_format_from_path(const std::string& path);

[[nodiscard]] std::string metrics_to_json(const MetricsRegistry& m,
                                          const MetricsMeta& meta);
[[nodiscard]] std::string metrics_to_csv(const MetricsRegistry& m,
                                         const MetricsMeta& meta);

}  // namespace syncpat::obs
