#include "core/experiment_engine.hpp"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <mutex>
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

[[nodiscard]] CellResult run_cell(const ExperimentCell& cell,
                                  std::uint32_t max_attempts) {
  CellResult result;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    try {
      if (cell.ideal_only) {
        result.outcome.ideal = run_ideal(cell.profile, cell.scale);
      } else {
        result.outcome = run_experiment(cell.config, cell.profile, cell.scale);
      }
      result.error.clear();
      break;
    } catch (const std::bad_alloc&) {
      result.error = "out of memory";
      if (attempt < max_attempts) {
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

/// One mutex-protected deque per worker.  Owners pop from the front of their
/// own deque; thieves steal from the back of others.
struct WorkerQueue {
  std::mutex mutex;
  std::deque<std::size_t> items;
};

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
              cell.ideal_only = grid.ideal_only;
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

GridResult run_grid(std::vector<ExperimentCell> cells,
                    const EngineOptions& options) {
  GridResult out;
  out.cells = std::move(cells);
  for (std::size_t i = 0; i < out.cells.size(); ++i) out.cells[i].index = i;
  out.results.resize(out.cells.size());
  const Clock::time_point start = Clock::now();

  std::uint32_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  jobs = std::min<std::uint32_t>(
      jobs, std::max<std::size_t>(out.cells.size(), 1));
  out.jobs_used = jobs;

  const std::uint32_t max_attempts = std::max(options.max_attempts, 1u);

  if (jobs == 1) {
    for (const ExperimentCell& cell : out.cells) {
      out.results[cell.index] = run_cell(cell, max_attempts);
    }
    out.wall_ms = ms_since(start);
    return out;
  }

  // Deal cells round-robin, then let workers steal: long-running cells (e.g.
  // Topopt at paper scale) end up alone on a worker while the others drain
  // the rest.  No new work is ever produced, so "all deques empty" is a
  // stable termination condition.
  std::vector<WorkerQueue> queues(jobs);
  for (std::size_t i = 0; i < out.cells.size(); ++i) {
    queues[i % jobs].items.push_back(i);
  }

  auto worker = [&](std::uint32_t self) {
    for (;;) {
      std::size_t index = 0;
      bool found = false;
      {
        std::lock_guard<std::mutex> lk(queues[self].mutex);
        if (!queues[self].items.empty()) {
          index = queues[self].items.front();
          queues[self].items.pop_front();
          found = true;
        }
      }
      if (!found) {
        for (std::uint32_t offset = 1; offset < jobs && !found; ++offset) {
          WorkerQueue& victim = queues[(self + offset) % jobs];
          std::lock_guard<std::mutex> lk(victim.mutex);
          if (!victim.items.empty()) {
            index = victim.items.back();
            victim.items.pop_back();
            found = true;
          }
        }
      }
      if (!found) return;  // every deque empty: done
      out.results[index] = run_cell(out.cells[index], max_attempts);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (std::uint32_t w = 0; w < jobs; ++w) {
    threads.emplace_back(worker, w);
  }
  for (std::thread& t : threads) t.join();

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
