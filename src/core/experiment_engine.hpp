// Parallel experiment engine: runs a declarative cartesian grid of
// experiments (profile × scheme × consistency model × write policy ×
// processor count × scale) on a work-stealing thread pool.
//
// Every cell builds its own ProgramTrace and Simulator, so cells share no
// mutable state and the grid parallelizes embarrassingly; results come back
// indexed by cell, in deterministic grid order regardless of how the pool
// scheduled them.  This is the substrate bench_paper, syncpat_cli --sweep,
// and the golden regression tests run on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/machine_config.hpp"
#include "workload/profile.hpp"

namespace syncpat::core {

/// Declarative cartesian product of experiment axes.  An empty axis means
/// "use the base value" (from `base` for machine axes, from the profile for
/// proc_counts, 1 for scales); a 0 in proc_counts keeps the profile's own
/// processor count.
struct ExperimentGrid {
  MachineConfig base;
  std::vector<workload::BenchmarkProfile> profiles;
  std::vector<sync::SchemeKind> schemes;
  std::vector<bus::ConsistencyModel> consistency_models;
  std::vector<cache::WritePolicy> write_policies;
  std::vector<std::uint32_t> proc_counts;
  std::vector<std::uint64_t> scales;
  /// Skip simulation: cells carry the ideal trace analysis only (Tables 1/2).
  bool ideal_only = false;
};

/// One fully-resolved grid cell, in deterministic grid order
/// (profile-major, then scheme, consistency, write policy, procs, scale).
struct ExperimentCell {
  std::size_t index = 0;
  workload::BenchmarkProfile profile;  // num_procs already overridden
  MachineConfig config;                // scheme/consistency/policy resolved
  std::uint64_t scale = 1;
  bool ideal_only = false;

  /// "Grav/queuing/sequential/write-back/p12/x8"
  [[nodiscard]] std::string label() const;
};

struct CellResult {
  ExperimentOutcome outcome;
  double wall_ms = 0.0;
  std::uint32_t attempts = 0;  // 1 unless retried on std::bad_alloc
  std::string error;           // non-empty when the cell failed terminally

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct GridResult {
  std::vector<ExperimentCell> cells;
  std::vector<CellResult> results;  // results[i] belongs to cells[i]
  double wall_ms = 0.0;
  std::uint32_t jobs_used = 0;

  [[nodiscard]] std::size_t size() const { return cells.size(); }
};

struct EngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::uint32_t jobs = 0;
  /// Attempts per cell before a std::bad_alloc becomes a cell error.
  std::uint32_t max_attempts = 3;
};

/// Expands the grid into its cells without running anything.
[[nodiscard]] std::vector<ExperimentCell> grid_cells(const ExperimentGrid& grid);

/// Runs every cell.  jobs == 1 runs inline on the calling thread (fully
/// serial, no pool); otherwise a work-stealing pool of `jobs` workers.
/// Results are deterministic and independent of the worker count.
[[nodiscard]] GridResult run_grid(const ExperimentGrid& grid,
                                  const EngineOptions& options = {});

/// Same for an explicit cell list (e.g. several grids' cells concatenated,
/// so they share one pool); cells are renumbered in list order.
[[nodiscard]] GridResult run_grid(std::vector<ExperimentCell> cells,
                                  const EngineOptions& options = {});

/// Reads the worker count from SYNCPAT_JOBS; `fallback` when unset.  Throws
/// std::invalid_argument for empty/non-numeric/negative/trailing-junk values
/// (0 is allowed: "use all cores", like --jobs 0).
[[nodiscard]] std::uint32_t jobs_from_env(std::uint32_t fallback);

}  // namespace syncpat::core
