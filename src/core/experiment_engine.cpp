#include "core/experiment_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/parse.hpp"

namespace syncpat::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Attempts per cell before a std::bad_alloc becomes the cell's error.
constexpr std::uint32_t kMaxAttempts = 3;

[[nodiscard]] CellResult run_cell(const ExperimentCell& cell) {
  CellResult result;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    try {
      result.outcome = run_experiment(cell.config, cell.profile, cell.scale);
      result.error.clear();
      break;
    } catch (const std::bad_alloc&) {
      result.error = "out of memory";
      if (attempt < kMaxAttempts) {
        // Give concurrently-running cells a chance to finish and free their
        // simulators before retrying.
        std::this_thread::sleep_for(std::chrono::milliseconds(50) * attempt);
      }
    } catch (const std::exception& e) {
      result.error = e.what();
      break;  // deterministic failures don't benefit from a retry
    }
  }
  result.wall_ms = ms_since(start);
  return result;
}

}  // namespace

std::string ExperimentCell::label() const {
  std::string s = profile.name;
  s += '/';
  s += sync::scheme_kind_name(config.lock_scheme);
  s += '/';
  s += bus::consistency_name(config.consistency);
  s += '/';
  s += cache::write_policy_name(config.write_policy);
  s += "/p";
  s += std::to_string(profile.num_procs);
  s += "/x";
  s += std::to_string(scale);
  return s;
}

std::vector<ExperimentCell> grid_cells(const ExperimentGrid& grid) {
  const std::vector<sync::SchemeKind> schemes =
      grid.schemes.empty() ? std::vector<sync::SchemeKind>{grid.base.lock_scheme}
                           : grid.schemes;
  const std::vector<bus::ConsistencyModel> models =
      grid.consistency_models.empty()
          ? std::vector<bus::ConsistencyModel>{grid.base.consistency}
          : grid.consistency_models;
  const std::vector<cache::WritePolicy> policies =
      grid.write_policies.empty()
          ? std::vector<cache::WritePolicy>{grid.base.write_policy}
          : grid.write_policies;
  const std::vector<std::uint32_t> procs =
      grid.proc_counts.empty() ? std::vector<std::uint32_t>{0}
                               : grid.proc_counts;
  const std::vector<std::uint64_t> scales =
      grid.scales.empty() ? std::vector<std::uint64_t>{1} : grid.scales;

  std::vector<ExperimentCell> cells;
  cells.reserve(grid.profiles.size() * schemes.size() * models.size() *
                policies.size() * procs.size() * scales.size());
  for (const workload::BenchmarkProfile& profile : grid.profiles) {
    for (const sync::SchemeKind scheme : schemes) {
      for (const bus::ConsistencyModel model : models) {
        for (const cache::WritePolicy policy : policies) {
          for (const std::uint32_t nprocs : procs) {
            for (const std::uint64_t scale : scales) {
              ExperimentCell cell;
              cell.index = cells.size();
              cell.profile = profile;
              if (nprocs != 0) cell.profile.num_procs = nprocs;
              cell.config = grid.base;
              cell.config.lock_scheme = scheme;
              cell.config.consistency = model;
              cell.config.write_policy = policy;
              cell.config.num_procs = cell.profile.num_procs;
              cell.scale = scale;
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

GridResult run_grid(const ExperimentGrid& grid, const EngineOptions& options) {
  return run_grid(grid_cells(grid), options);
}

std::uint32_t parallel_for(std::size_t n, std::uint32_t jobs,
                           const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = static_cast<std::uint32_t>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(n, 1)));
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (std::size_t i = cursor++; i < n; i = cursor++) fn(i);
  };
  if (jobs == 1) {
    worker();
    return 1;
  }
  // The caller only waits: cells run on the main thread allocate from the
  // main heap, which returns memory to the system less readily (syncbench
  // observed's peak RSS rose by up to a fifth).  Plain threads, because
  // std::jthread workers raised syncbench's setup_s by a tenth to a fifth.
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  try {
    for (std::uint32_t w = 0; w < jobs; ++w) workers.emplace_back(worker);
  } catch (...) {
    // The workers that did start drain the cursor before the error leaves.
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();
  return jobs;
}

GridResult run_grid(std::vector<ExperimentCell> cells,
                    const EngineOptions& options) {
  GridResult out;
  out.cells = std::move(cells);
  for (std::size_t i = 0; i < out.cells.size(); ++i) out.cells[i].index = i;
  out.results.resize(out.cells.size());
  const Clock::time_point start = Clock::now();
  // Each worker stores its cell's result at the cell's index.
  out.jobs_used = parallel_for(out.cells.size(), options.jobs,
                               [&out](std::size_t i) {
                                 out.results[i] = run_cell(out.cells[i]);
                               });
  out.wall_ms = ms_since(start);
  return out;
}

std::uint32_t jobs_from_env(std::uint32_t fallback) {
  const char* env = std::getenv("SYNCPAT_JOBS");
  if (env == nullptr) return fallback;
  std::uint64_t value = 0;
  if (!util::try_parse_u64(env, value) || value > 0xffff'ffffULL) {
    throw std::invalid_argument(
        "SYNCPAT_JOBS must be a non-negative integer (0 = all cores), got \"" +
        std::string(env) + "\"");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace syncpat::core
