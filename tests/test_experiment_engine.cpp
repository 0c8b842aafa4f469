// Tests for the parallel experiment engine: grid expansion order, result
// determinism across worker counts, equivalence with direct run_experiment
// calls, the worker cursor, and SYNCPAT_JOBS parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using core::EngineOptions;
using core::ExperimentGrid;
using core::GridResult;

/// Every integer quantity the paper tables report, serialized per cell.
/// Two GridResults with equal fingerprints produced identical experiments.
std::string fingerprint(const GridResult& grid) {
  std::string out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::CellResult& r = grid.results[i];
    out += grid.cells[i].label();
    out += ": err=" + r.error;
    const core::SimulationResult& sim = r.outcome.sim;
    out += " run_time=" + std::to_string(sim.run_time);
    out += " acq=" + std::to_string(sim.locks.acquisitions);
    out += " xfer=" + std::to_string(sim.locks.transfers);
    out += " bus=" + std::to_string(sim.traffic.total());
    out += " c2c=" + std::to_string(sim.traffic.c2c_supplies);
    out += " lockops=" + std::to_string(sim.traffic.lock_ops);
    out += " syncs=" + std::to_string(sim.syncs);
    out += " barriers=" + std::to_string(sim.barriers_completed);
    for (const core::ProcResult& p : sim.per_proc) {
      out += " [" + std::to_string(p.work_cycles) + "," +
             std::to_string(p.stall_cache) + "," +
             std::to_string(p.stall_lock) + "," +
             std::to_string(p.stall_fence) + "," +
             std::to_string(p.completion_cycle) + "]";
    }
    out += "\n";
  }
  return out;
}

ExperimentGrid small_grid() {
  ExperimentGrid grid;
  grid.profiles = {workload::qsort_profile(), workload::fullconn_profile()};
  grid.schemes = {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas};
  grid.consistency_models = {bus::ConsistencyModel::kSequential,
                             bus::ConsistencyModel::kWeak};
  grid.scales = {128};
  return grid;
}

TEST(ExperimentEngine, GridCellsEnumerateInDeterministicOrder) {
  const auto cells = core::grid_cells(small_grid());
  ASSERT_EQ(cells.size(), 8u);
  // Profile-major, then scheme, then consistency model.
  EXPECT_EQ(cells[0].label(), "Qsort/queuing/sequential/write-back/p12/x128");
  EXPECT_EQ(cells[1].label(), "Qsort/queuing/weak/write-back/p12/x128");
  EXPECT_EQ(cells[2].label(), "Qsort/ttas/sequential/write-back/p12/x128");
  EXPECT_EQ(cells[7].label(), "FullConn/ttas/weak/write-back/p12/x128");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ExperimentEngine, ProcCountAxisOverridesProfile) {
  ExperimentGrid grid;
  grid.profiles = {workload::qsort_profile()};
  grid.proc_counts = {0, 4, 8};
  const auto cells = core::grid_cells(grid);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].profile.num_procs, workload::qsort_profile().num_procs);
  EXPECT_EQ(cells[1].profile.num_procs, 4u);
  EXPECT_EQ(cells[1].config.num_procs, 4u);
  EXPECT_EQ(cells[2].profile.num_procs, 8u);
}

// The tentpole determinism guarantee: grid results are byte-identical no
// matter how many workers ran them, across repeated runs.
TEST(ExperimentEngine, ResultsIdenticalAcrossJobCounts) {
  const ExperimentGrid grid = small_grid();
  EngineOptions serial;
  serial.jobs = 1;
  EngineOptions pooled;
  pooled.jobs = 8;

  const std::string serial1 = fingerprint(core::run_grid(grid, serial));
  const std::string pooled1 = fingerprint(core::run_grid(grid, pooled));
  const std::string serial2 = fingerprint(core::run_grid(grid, serial));
  const std::string pooled2 = fingerprint(core::run_grid(grid, pooled));

  EXPECT_FALSE(serial1.empty());
  EXPECT_EQ(serial1, pooled1);
  EXPECT_EQ(serial1, serial2);
  EXPECT_EQ(pooled1, pooled2);
}

TEST(ExperimentEngine, MatchesDirectRunExperiment) {
  ExperimentGrid grid;
  grid.profiles = {workload::grav_profile()};
  grid.schemes = {sync::SchemeKind::kTicket};
  grid.scales = {128};
  const GridResult result = core::run_grid(grid);
  ASSERT_EQ(result.size(), 1u);
  ASSERT_TRUE(result.results[0].ok());
  EXPECT_GT(result.results[0].wall_ms, 0.0);

  core::MachineConfig config;
  config.lock_scheme = sync::SchemeKind::kTicket;
  const core::ExperimentOutcome direct =
      core::run_experiment(config, workload::grav_profile(), 128);
  EXPECT_EQ(result.results[0].outcome.sim.run_time, direct.sim.run_time);
  EXPECT_EQ(result.results[0].outcome.sim.locks.acquisitions,
            direct.sim.locks.acquisitions);
  EXPECT_EQ(result.results[0].outcome.ideal.avg_refs_all(),
            direct.ideal.avg_refs_all());
}

// The cursor hands out every index exactly once, whatever the worker count,
// and never starts more workers than there are indices.
TEST(ExperimentEngine, ParallelForCallsEveryIndexOnce) {
  for (const std::uint32_t jobs : {1u, 3u, 0u}) {
    std::vector<std::atomic<int>> calls(50);
    const std::uint32_t used = core::parallel_for(
        calls.size(), jobs, [&calls](std::size_t i) { ++calls[i]; });
    const std::uint32_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(used, std::min<std::uint32_t>(jobs != 0 ? jobs : cores, 50));
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "index " << i << ", jobs " << jobs;
    }
  }
  EXPECT_EQ(core::parallel_for(2, 8, [](std::size_t) {}), 2u);
  EXPECT_EQ(core::parallel_for(0, 8, [](std::size_t) {
              ADD_FAILURE() << "called with no indices";
            }),
            1u);
}

TEST(ExperimentEngine, JobsFromEnvParsesAndRejects) {
  unsetenv("SYNCPAT_JOBS");
  EXPECT_EQ(core::jobs_from_env(3), 3u);

  setenv("SYNCPAT_JOBS", "6", 1);
  EXPECT_EQ(core::jobs_from_env(3), 6u);
  setenv("SYNCPAT_JOBS", "0", 1);  // 0 = all cores, valid
  EXPECT_EQ(core::jobs_from_env(3), 0u);

  setenv("SYNCPAT_JOBS", "", 1);
  EXPECT_THROW(static_cast<void>(core::jobs_from_env(3)), std::invalid_argument);
  setenv("SYNCPAT_JOBS", "junk", 1);
  EXPECT_THROW(static_cast<void>(core::jobs_from_env(3)), std::invalid_argument);
  setenv("SYNCPAT_JOBS", "4x", 1);
  EXPECT_THROW(static_cast<void>(core::jobs_from_env(3)), std::invalid_argument);
  setenv("SYNCPAT_JOBS", "-2", 1);
  EXPECT_THROW(static_cast<void>(core::jobs_from_env(3)), std::invalid_argument);
  unsetenv("SYNCPAT_JOBS");
}

// SYNCPAT_BENCH_REPS and friends share this helper; it follows the
// SYNCPAT_SCALE policy — a set-but-malformed value is an error, never a
// silent fall-through to the default.
TEST(ExperimentEngine, PositiveU64FromEnvParsesAndRejects) {
  const char* var = "SYNCPAT_TEST_KNOB";
  unsetenv(var);
  EXPECT_EQ(core::positive_u64_from_env(var, 7), 7u);

  setenv(var, "12", 1);
  EXPECT_EQ(core::positive_u64_from_env(var, 7), 12u);

  for (const char* bad : {"", "abc", "3x", "0", "-2", " 4"}) {
    setenv(var, bad, 1);
    EXPECT_THROW(static_cast<void>(core::positive_u64_from_env(var, 7)),
                 std::invalid_argument)
        << "value \"" << bad << "\" should be rejected";
  }
  unsetenv(var);
}

}  // namespace
}  // namespace syncpat
