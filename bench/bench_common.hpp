// Shared helpers for the table-reproduction benches.
//
// Every bench accepts the SYNCPAT_SCALE environment variable (default 8):
// traces are 1/scale the paper's length, and count-like columns are scaled
// back up for display.  SYNCPAT_SCALE=1 reproduces paper-length traces.
//
// Benches run their experiment grids on the parallel engine
// (core/experiment_engine.hpp).  The worker count comes from --jobs N (or
// -j N) on the command line, or SYNCPAT_JOBS; 0 (the default) uses every
// core.  Results are deterministic and identical for any worker count.
// Set SYNCPAT_CHECK_INVARIANTS=1 to run every cell with the runtime
// invariant checker enabled (exits non-zero on any violation).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/machine_config.hpp"
#include "core/results.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace_event.hpp"
#include "trace/analyzer.hpp"
#include "workload/profiles.hpp"

namespace syncpat::bench {

inline constexpr std::uint64_t kDefaultScale = 8;

struct BenchOptions {
  std::uint32_t jobs = 0;  // 0 = all cores
  std::string trace_out;   // empty = tracing off
  std::uint32_t trace_categories = obs::category::kAll;
};

[[noreturn]] inline void usage_and_exit(const char* prog) {
  std::cerr << "usage: " << prog
            << " [--jobs N | -j N] [--trace-out FILE] [--trace-events LIST]\n"
            << "  --jobs N          worker threads for the experiment grid "
               "(0 = all cores; also SYNCPAT_JOBS)\n"
            << "  --trace-out FILE  write Chrome trace-event JSON (one file "
               "per grid cell,\n"
               "                    cell label spliced into FILE's name); "
               "load at ui.perfetto.dev\n"
            << "  --trace-events L  comma list of categories to record: "
               "locks,bus,coherence,\n"
               "                    barriers,all (default all)\n";
  std::exit(2);
}

/// Parses the common bench command line (--jobs/-j), seeded from
/// SYNCPAT_JOBS.  Exits with a usage message on malformed input.
inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  try {
    opts.jobs = core::jobs_from_env(0);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--trace-out" || arg.rfind("--trace-out=", 0) == 0) {
      if (arg == "--trace-out") {
        if (i + 1 >= argc) usage_and_exit(argv[0]);
        opts.trace_out = argv[++i];
      } else {
        opts.trace_out = arg.substr(std::strlen("--trace-out="));
      }
      if (opts.trace_out.empty()) usage_and_exit(argv[0]);
      continue;
    }
    if (arg == "--trace-events" || arg.rfind("--trace-events=", 0) == 0) {
      std::string list;
      if (arg == "--trace-events") {
        if (i + 1 >= argc) usage_and_exit(argv[0]);
        list = argv[++i];
      } else {
        list = arg.substr(std::strlen("--trace-events="));
      }
      try {
        opts.trace_categories = obs::parse_categories(list);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(2);
      }
      continue;
    }
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      value = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(std::strlen("--jobs="));
    } else {
      usage_and_exit(argv[0]);
    }
    try {
      std::size_t consumed = 0;
      const unsigned long parsed = std::stoul(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
      opts.jobs = static_cast<std::uint32_t>(parsed);
    } catch (const std::exception&) {
      std::cerr << "error: --jobs expects a non-negative integer, got \""
                << value << "\"\n";
      std::exit(2);
    }
  }
  return opts;
}

/// Copies the --trace-out/--trace-events decision onto a machine config.
inline void apply_trace_options(const BenchOptions& opts,
                                core::MachineConfig& config) {
  if (opts.trace_out.empty()) return;
  config.trace.enabled = true;
  config.trace.categories = opts.trace_categories;
}

/// scale_from_env with bench-friendly error reporting (exit 2, not a throw).
inline std::uint64_t scale_or_die(std::uint64_t fallback = kDefaultScale) {
  try {
    return core::scale_from_env(fallback);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Runs a grid on the engine; any cell error or invariant violation is
/// fatal.  SYNCPAT_CHECK_INVARIANTS=1 enables the runtime checker in every
/// cell.
inline core::GridResult run_grid_or_die(core::ExperimentGrid grid,
                                        std::uint32_t jobs) {
  if (std::getenv("SYNCPAT_CHECK_INVARIANTS") != nullptr) {
    grid.base.invariants.enabled = true;
  }
  core::EngineOptions options;
  options.jobs = jobs;
  const core::GridResult result = core::run_grid(grid, options);
  bool failed = false;
  for (std::size_t i = 0; i < result.size(); ++i) {
    const core::CellResult& cell = result.results[i];
    if (!cell.ok()) {
      std::cerr << "error: cell " << result.cells[i].label() << " failed: "
                << cell.error << "\n";
      failed = true;
    } else if (cell.outcome.invariants.violations > 0) {
      std::cerr << "error: cell " << result.cells[i].label() << " had "
                << cell.outcome.invariants.violations
                << " invariant violations; first: "
                << (cell.outcome.invariants.samples.empty()
                        ? "<none recorded>"
                        : cell.outcome.invariants.samples[0])
                << "\n";
      failed = true;
    }
  }
  if (failed) std::exit(1);
  return result;
}

/// The six paper benchmarks as a grid under `config`.  `skip_lockless`
/// drops Topopt (Tables 4-6 and 8 have no row for it).
inline core::ExperimentGrid suite_grid(const core::MachineConfig& config,
                                       bool skip_lockless,
                                       std::uint64_t scale) {
  core::ExperimentGrid grid;
  grid.base = config;
  for (const auto& profile : workload::paper_profiles()) {
    if (skip_lockless && profile.locking.pairs_per_proc == 0) continue;
    grid.profiles.push_back(profile);
  }
  grid.scales = {scale};
  return grid;
}

struct SuiteRun {
  std::uint64_t scale = kDefaultScale;
  std::vector<trace::IdealProgramStats> ideal;
  std::vector<core::SimulationResult> results;
  double wall_ms = 0.0;
  std::uint32_t jobs_used = 0;
  // Populated only when the grid ran with tracing enabled, in cell order.
  std::vector<std::string> labels;
  std::vector<std::string> trace_json;
  std::vector<obs::LockTimeline> timelines;
};

/// Runs all six paper benchmarks under `config` on the parallel engine.
inline SuiteRun run_suite(core::MachineConfig config, bool skip_lockless,
                          std::uint32_t jobs = 0) {
  SuiteRun run;
  run.scale = scale_or_die(kDefaultScale);
  const core::GridResult grid =
      run_grid_or_die(suite_grid(config, skip_lockless, run.scale), jobs);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::CellResult& cell = grid.results[i];
    run.ideal.push_back(cell.outcome.ideal);
    run.results.push_back(cell.outcome.sim);
    if (config.trace.enabled) {
      run.labels.push_back(grid.cells[i].label());
      run.trace_json.push_back(cell.outcome.trace_json);
      run.timelines.push_back(cell.outcome.lock_timeline);
    }
  }
  run.wall_ms = grid.wall_ms;
  run.jobs_used = grid.jobs_used;
  return run;
}

/// Writes one Chrome trace file per traced cell, the cell label spliced into
/// `base` before its extension.  No-op (returns true) when tracing was off.
inline bool write_trace_files(const SuiteRun& run, const std::string& base) {
  for (std::size_t i = 0; i < run.trace_json.size(); ++i) {
    const std::string path = obs::trace_out_path(base, run.labels[i]);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return false;
    }
    out << run.trace_json[i];
    std::cout << "wrote " << path << "\n";
  }
  return true;
}

/// Slices a multi-scheme grid (e.g. Table 5's ttas-vs-queuing comparison run
/// as one grid) down to the cells using `kind`, in grid order.
inline std::vector<core::SimulationResult> results_for_scheme(
    const core::GridResult& grid, sync::SchemeKind kind) {
  std::vector<core::SimulationResult> out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid.cells[i].config.lock_scheme == kind) {
      out.push_back(grid.results[i].outcome.sim);
    }
  }
  return out;
}

/// Same for a multi-consistency-model grid (Table 7).
inline std::vector<core::SimulationResult> results_for_consistency(
    const core::GridResult& grid, bus::ConsistencyModel model) {
  std::vector<core::SimulationResult> out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid.cells[i].config.consistency == model) {
      out.push_back(grid.results[i].outcome.sim);
    }
  }
  return out;
}

inline void print_scale_banner(std::uint64_t scale) {
  std::cout << "[trace scale 1/" << scale
            << " of paper length; set SYNCPAT_SCALE=1 for full length]\n\n";
}

inline void print_engine_banner(std::uint64_t scale, double wall_ms,
                                std::uint32_t jobs_used) {
  std::cout << "[trace scale 1/" << scale
            << " of paper length; set SYNCPAT_SCALE=1 for full length | grid "
               "ran in "
            << wall_ms << " ms on " << jobs_used << " worker"
            << (jobs_used == 1 ? "" : "s") << "]\n\n";
}

inline void print_transfer_latencies(const std::vector<core::SimulationResult>& rs) {
  std::cout << "Average lock transfer time (release -> next acquire, cycles):\n";
  for (const auto& r : rs) {
    if (r.locks.transfers == 0) continue;
    std::cout << "  " << r.program << ": "
              << r.locks.transfer_cycles.mean() << "\n";
  }
  std::cout << "\n";
}

}  // namespace syncpat::bench
