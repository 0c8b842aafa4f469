// Experiment runner: the one recipe for a cell, which the engine, the CLI,
// the fuzzer and the model validation share.  Runs a program (a benchmark
// profile's synthesized trace or a loaded trace file) under a machine
// configuration, returning both the ideal analysis (Tables 1/2) and the
// simulation result (Tables 3-8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "core/results.hpp"
#include "obs/lock_timeline.hpp"
#include "obs/metrics.hpp"
#include "sync/lock_stats.hpp"
#include "trace/analyzer.hpp"
#include "trace/source.hpp"
#include "workload/profile.hpp"

namespace syncpat::core {

/// Outcome of the opt-in InvariantChecker (all zeros when it was disabled).
struct InvariantReport {
  bool enabled = false;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> samples;  // bounded, see InvariantChecker
};

struct ExperimentOutcome {
  trace::IdealProgramStats ideal;
  SimulationResult sim;
  /// The cell's per-lock records (LockStatsCollector::per_lock()), which
  /// report::per_lock_table renders.
  sync::LockRecords per_lock;
  InvariantReport invariants;
  /// Filled only when config.trace.enabled: the complete Chrome trace-event
  /// JSON document and the per-lock hand-off timeline for this cell.  Built
  /// inside the cell's run, so grid results are byte-identical whatever the
  /// engine's job count.
  std::string trace_json;
  obs::LockTimeline lock_timeline;
  /// Filled only when config.metrics.enabled: the finalized registry (kept
  /// alive past the simulator) and its JSON rendering.  Rendered inside the
  /// cell's run like trace_json, so metrics bytes are identical whatever the
  /// engine's job count (test-enforced).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::string metrics_json;
};

/// Runs `program` on the machine, whose processor count becomes the
/// program's: the one way to run a cell.  The ideal statistics accumulate
/// during the simulated pass over the trace, and the trace is labelled with
/// the program's name.
[[nodiscard]] ExperimentOutcome run_experiment(const MachineConfig& config,
                                               trace::ProgramTrace program);

/// Synthesizes `profile` (optionally length-scaled by `scale`) and runs it.
[[nodiscard]] ExperimentOutcome run_experiment(const MachineConfig& config,
                                               const workload::BenchmarkProfile& profile,
                                               std::uint64_t scale = 1);

/// Ideal analysis only (no simulation) — Tables 1 and 2, from a pass of
/// their own.
[[nodiscard]] trace::IdealProgramStats run_ideal(
    const workload::BenchmarkProfile& profile, std::uint64_t scale = 1);

/// Reads the trace-length scale from the SYNCPAT_SCALE environment variable;
/// defaults to `fallback` when unset (benches use 8 so the full suite runs in
/// seconds; SYNCPAT_SCALE=1 reproduces paper-scale trace lengths).  Throws
/// std::invalid_argument when the variable is set but empty, non-numeric,
/// zero, negative, or has trailing junk.
[[nodiscard]] std::uint64_t scale_from_env(std::uint64_t fallback);

/// Strict positive-integer environment knob (the SYNCPAT_SCALE policy,
/// reusable: SYNCPAT_BENCH_REPS uses it).  Returns `fallback` when `var` is
/// unset; throws std::invalid_argument when it is set but empty, non-numeric,
/// zero, negative, or has trailing junk — never silently defaults.
[[nodiscard]] std::uint64_t positive_u64_from_env(const char* var,
                                                  std::uint64_t fallback);

}  // namespace syncpat::core
