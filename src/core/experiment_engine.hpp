// Parallel experiment engine: runs a declarative cartesian grid of
// experiments (profile × scheme × consistency model × write policy ×
// processor count × scale) on a pool of workers that take cells in order
// from one shared cursor.
//
// Every cell builds its own ProgramTrace and Simulator (core::run_experiment),
// so cells share no mutable state and the grid parallelizes embarrassingly;
// results come back indexed by cell, in deterministic grid order regardless
// of which worker ran which cell.  This is the substrate bench_paper,
// syncpat_cli --sweep, and the golden regression tests run on; the fuzz batch
// runs its cases on the same cursor (parallel_for).
#pragma once

#include <cstdint>
#include <functional>
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
};

/// One fully-resolved grid cell, in deterministic grid order
/// (profile-major, then scheme, consistency, write policy, procs, scale).
struct ExperimentCell {
  std::size_t index = 0;
  workload::BenchmarkProfile profile;  // num_procs already overridden
  MachineConfig config;                // scheme/consistency/policy resolved
  std::uint64_t scale = 1;

  /// "Grav/queuing/sequential/write-back/p12/x8"
  [[nodiscard]] std::string label() const;
};

struct CellResult {
  ExperimentOutcome outcome;
  double wall_ms = 0.0;
  std::string error;  // non-empty when the cell failed terminally

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
};

/// Calls fn(i) once for every i in [0, n) on `jobs` workers (0 = every
/// core, never more than n); jobs == 1 runs inline on the calling thread.
/// Workers take indices from one shared cursor in increasing order; nothing
/// is added mid-run, so an empty cursor means done.  Returns the worker
/// count once every call has returned.  fn must not throw.
std::uint32_t parallel_for(std::size_t n, std::uint32_t jobs,
                           const std::function<void(std::size_t)>& fn);

/// Expands the grid into its cells without running anything.
[[nodiscard]] std::vector<ExperimentCell> grid_cells(const ExperimentGrid& grid);

/// Runs every cell on parallel_for with options.jobs workers.  A cell that
/// runs out of memory is retried twice, after a pause; any other exception
/// becomes the cell's error.  Results are deterministic and independent of
/// the worker count.
[[nodiscard]] GridResult run_grid(const ExperimentGrid& grid,
                                  const EngineOptions& options = {});

/// Same for an explicit cell list (e.g. several grids' cells concatenated,
/// so they share one run); cells are renumbered in list order.
[[nodiscard]] GridResult run_grid(std::vector<ExperimentCell> cells,
                                  const EngineOptions& options = {});

/// Reads the worker count from SYNCPAT_JOBS; `fallback` when unset.  Throws
/// std::invalid_argument for empty/non-numeric/negative/trailing-junk values
/// (0 is allowed: "use all cores", like --jobs 0).
[[nodiscard]] std::uint32_t jobs_from_env(std::uint32_t fallback);

}  // namespace syncpat::core
