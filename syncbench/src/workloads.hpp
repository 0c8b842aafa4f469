// The benchmark's four workloads, each a set of experiment grids run through
// core::run_grid.  The seed argument becomes BenchmarkProfile::seed on every
// profile, so the simulator receives only the traces generated from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment_engine.hpp"

namespace syncbench {

struct Workload {
  std::string name;
  /// Grids run one after another; large-p needs two (the bus discipline is a
  /// machine setting, not a grid axis).
  std::vector<syncpat::core::ExperimentGrid> grids;
  /// Worker threads for run_grid (fixed, so runs compare across machines
  /// with at least this many cores).
  std::uint32_t jobs = 2;
  /// paper-suite renders the paper's eight tables; the others render a
  /// per-cell summary table.
  bool paper_tables = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace syncbench
