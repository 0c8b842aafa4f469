// Shared helpers for the benches.
//
// Benches that run the paper's workloads read the SYNCPAT_SCALE environment
// variable through scale_or_die: traces are 1/scale the paper's length, and
// count-like columns are scaled back up for display.  SYNCPAT_SCALE=1
// reproduces paper-length traces.  The two grid benches, bench_paper and
// bench_ablations, read SYNCPAT_JOBS through jobs_or_die and run their cells
// through run_or_die.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/machine_config.hpp"
#include "workload/profiles.hpp"

namespace syncpat::bench {

inline constexpr std::uint64_t kDefaultScale = 8;

/// scale_from_env with bench-friendly error reporting (exit 2, not a throw).
inline std::uint64_t scale_or_die(std::uint64_t fallback = kDefaultScale) {
  try {
    return core::scale_from_env(fallback);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// jobs_from_env likewise; unset means 0, every core.
inline std::uint32_t jobs_or_die() {
  try {
    return core::jobs_from_env(0);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Runs the cells on the engine; a cell error or invariant violation exits 1.
inline core::GridResult run_or_die(std::vector<core::ExperimentCell> cells,
                                   std::uint32_t jobs) {
  core::EngineOptions options;
  options.jobs = jobs;
  core::GridResult run = core::run_grid(std::move(cells), options);
  bool failed = false;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const core::CellResult& cell = run.results[i];
    if (!cell.ok()) {
      std::cerr << "error: cell " << run.cells[i].label() << " failed: "
                << cell.error << "\n";
      failed = true;
    } else if (cell.outcome.invariants.violations > 0) {
      std::cerr << "error: cell " << run.cells[i].label() << " had "
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
  return run;
}

/// The grid benches' banner: the trace scale, then the grid's wall time and
/// worker count (the only line that differs between --jobs settings).
inline void print_grid_banner(std::uint64_t scale, const core::GridResult& run) {
  std::cout << "[trace scale 1/" << scale
            << " of paper length; set SYNCPAT_SCALE=1 for full length | grid "
               "ran in "
            << run.wall_ms << " ms on " << run.jobs_used << " worker"
            << (run.jobs_used == 1 ? "" : "s") << "]\n\n";
}

}  // namespace syncpat::bench
