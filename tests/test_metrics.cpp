// The deterministic metrics layer: the always-on stall ledger (every
// simulated cycle charged to exactly one category, ledger == completion
// cycle) and its export, the windowed bus gauge conserved against the bus's
// own busy counter, the JSON/CSV/Chrome-trace exports, and byte-identical
// exports across execution engines and engine job counts.
//
// Every suite here is named Metrics* so the TSan recipe can select the whole
// layer with --gtest_filter=':Metrics*'.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/interface.hpp"
#include "core/experiment_engine.hpp"
#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "fuzz/render.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profile.hpp"
#include "obs/stall_attribution.hpp"
#include "sync/scheme_factory.hpp"
#include "test_util.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using namespace testutil;
using obs::StallCat;

workload::BenchmarkProfile profile_by_name(const std::string& name) {
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown profile " << name;
  return {};
}

/// The conservation property, checked per processor: the attribution ledger
/// sums to exactly the processor's completion cycle.
void expect_conservation(const obs::MetricsRegistry& m,
                         const core::SimulationResult& r,
                         const std::string& what) {
  ASSERT_EQ(m.num_procs(), r.per_proc.size()) << what;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    EXPECT_EQ(m.ledger(p).total(), r.per_proc[p].completion_cycle)
        << what << ": proc " << p;
  }
}

std::uint64_t total_of(const obs::MetricsRegistry& m, StallCat cat) {
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    sum += m.ledger(p).of(cat);
  }
  return sum;
}

// Ledger conservation across every machine variant, plus export
// byte-identity between execution engines (metrics must not observe the
// engine's stepping strategy: DES or per-cycle tick).
TEST(MetricsConservation, HoldsAcrossSchemesModelsAndPolicies) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Grav").scaled(64);
  for (const sync::SchemeKind scheme : sync::all_scheme_kinds()) {
    for (const bus::ConsistencyModel model :
         {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
      for (const cache::WritePolicy policy :
           {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
        const std::string what =
            std::string(sync::scheme_kind_name(scheme)) + "/" +
            bus::consistency_name(model) + "/" +
            cache::write_policy_name(policy);
        constexpr core::EngineKind kEngines[] = {core::EngineKind::kDes,
                                                 core::EngineKind::kTick};
        std::string exports[2];
        for (std::size_t mode = 0; mode < 2; ++mode) {
          core::MachineConfig cfg;
          cfg.lock_scheme = scheme;
          cfg.consistency = model;
          cfg.write_policy = policy;
          cfg.engine = kEngines[mode];
          cfg.metrics.enabled = true;
          cfg.num_procs = scaled.num_procs;
          trace::ProgramTrace program = workload::make_program_trace(scaled);
          core::Simulator sim(cfg, program);
          const core::SimulationResult r = sim.run();
          const obs::MetricsRegistry* m = sim.metrics();
          ASSERT_NE(m, nullptr) << what;
          expect_conservation(*m, r, what);
          // The clipped gauge equals the bus's tick-by-tick busy counter.
          EXPECT_EQ(m->bus().total_busy(), sim.bus().busy_cycles()) << what;
          const obs::MetricsMeta meta{r.program, r.scheme, r.consistency,
                                      r.num_procs, r.run_time};
          exports[mode] = obs::metrics_to_json(*m, meta);
        }
        EXPECT_EQ(exports[0], exports[1])
            << what << ": metrics JSON differs between DES and per-cycle tick";
      }
    }
  }
}

// Two processors fighting over one lock: the loser's cycles land in the
// lock-wait categories and the hand-off shows up in the lock histograms.
TEST(MetricsMicro, SingleLockHandoff) {
  trace::ProgramTrace program = make_program({
      {lock_acq(0, 1), ifetch(0x100, 40), lock_rel(0, 1), ifetch(0x140, 2)},
      {lock_acq(0, 2), ifetch(0x100, 40), lock_rel(0, 1), ifetch(0x140, 2)},
  });
  core::MachineConfig cfg = machine(sync::SchemeKind::kQueuing);
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "single-lock hand-off");

  ASSERT_EQ(m->locks().size(), 1u);
  const sync::LockAggregate& lm = m->locks().begin()->second;
  EXPECT_EQ(lm.acquisitions, 2u);
  EXPECT_EQ(lm.waiters_at_acquire.count(), 2u);
  EXPECT_EQ(lm.transfers, 1u);
  EXPECT_EQ(lm.hold_hist.count(), 2u);
  // The loser spent real cycles waiting for the queued lock.
  EXPECT_GT(total_of(*m, StallCat::kLockQueuedWait) +
                total_of(*m, StallCat::kLockSpin),
            20u);
  EXPECT_EQ(total_of(*m, StallCat::kBarrierWait), 0u);
}

// Barrier-only workload: wait cycles are barrier cycles, never lock cycles.
TEST(MetricsMicro, BarrierOnly) {
  auto barrier = [](std::uint32_t gap) {
    return trace::Event{trace::AddressMap::barrier_addr(0), gap,
                        trace::Op::kBarrier};
  };
  trace::ProgramTrace program = make_program({
      {barrier(1), ifetch(0x100, 2)},
      {barrier(200), ifetch(0x100, 2)},  // arrives ~200 cycles later
      {barrier(1), ifetch(0x100, 2)},
  });
  core::MachineConfig cfg = machine();
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "barrier-only");
  // The two early arrivals waited out the slow processor's head start.
  EXPECT_GT(total_of(*m, StallCat::kBarrierWait), 300u);
  EXPECT_EQ(total_of(*m, StallCat::kLockQueuedWait), 0u);
  EXPECT_EQ(total_of(*m, StallCat::kLockSpin), 0u);
}

// A store burst under weak ordering saturates the write buffer: the stall
// cycles must be charged to write_buffer_full, not memory latency.
TEST(MetricsMicro, WriteBufferSaturation) {
  std::vector<trace::Event> events;
  for (std::uint32_t i = 0; i < 32; ++i) {
    events.push_back(store(shared_line(i), 1));
  }
  events.push_back(ifetch(0x100, 2));
  trace::ProgramTrace program =
      make_program({events}, "write-buffer-saturation");
  core::MachineConfig cfg =
      machine(sync::SchemeKind::kTtas, bus::ConsistencyModel::kWeak);
  cfg.cache_bus_buffer_depth = 2;
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "write-buffer saturation");
  EXPECT_GT(total_of(*m, StallCat::kWriteBufferFull), 0u);
}

// Per-cell metrics bytes must be identical whatever the engine's job count
// (the jobs-differential guarantee extended to the metrics export).
TEST(MetricsConservation, ExportBytesIdenticalAcrossJobCounts) {
  core::ExperimentGrid grid;
  grid.base.metrics.enabled = true;
  grid.profiles = {workload::qsort_profile(), workload::fullconn_profile()};
  grid.schemes = {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas};
  grid.scales = {128};

  auto fingerprint = [](const core::GridResult& result) {
    std::string out;
    for (const core::CellResult& cell : result.results) {
      EXPECT_TRUE(cell.ok()) << cell.error;
      EXPECT_FALSE(cell.outcome.metrics_json.empty());
      out += cell.outcome.metrics_json;
      out += '\n';
    }
    return out;
  };

  core::EngineOptions serial;
  serial.jobs = 1;
  core::EngineOptions pooled;
  pooled.jobs = 8;
  const std::string a = fingerprint(core::run_grid(grid, serial));
  const std::string b = fingerprint(core::run_grid(grid, pooled));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

class MetricsLedger : public ::testing::Test {
 protected:
  /// One scale-64 paper-profile cell, run to completion on construction.
  struct Cell {
    Cell(const std::string& name, sync::SchemeKind scheme,
         bus::ConsistencyModel model, bool metrics)
        : program(workload::make_program_trace(
              profile_by_name(name).scaled(64))),
          sim(config(scheme, model, metrics, program.num_procs()), program),
          result(sim.run()) {}

    static core::MachineConfig config(sync::SchemeKind scheme,
                                      bus::ConsistencyModel model,
                                      bool metrics, std::size_t procs) {
      core::MachineConfig cfg;
      cfg.lock_scheme = scheme;
      cfg.consistency = model;
      cfg.num_procs = static_cast<std::uint32_t>(procs);
      cfg.metrics.enabled = metrics;
      return cfg;
    }
    [[nodiscard]] obs::MetricsMeta meta() const {
      return {result.program, result.scheme, result.consistency,
              result.num_procs, result.run_time};
    }

    trace::ProgramTrace program;
    core::Simulator sim;
    core::SimulationResult result;
  };
};

// The ledger is always on: a metrics-off run books the per-processor
// category totals that the metrics export of the same cell reports, lost-line
// refills included (the cell has invalidation_refill cycles).
TEST_F(MetricsLedger, MetricsOffRunBooksTheExportedLedger) {
  const Cell off("Grav", sync::SchemeKind::kTtas,
                 bus::ConsistencyModel::kSequential, /*metrics=*/false);
  const Cell on("Grav", sync::SchemeKind::kTtas,
                bus::ConsistencyModel::kSequential, /*metrics=*/true);
  ASSERT_EQ(off.sim.metrics(), nullptr);
  ASSERT_NE(on.sim.metrics(), nullptr);
  const std::string csv = obs::metrics_to_csv(*on.sim.metrics(), on.meta());

  std::uint64_t refill = 0;
  for (std::uint32_t p = 0; p < off.result.num_procs; ++p) {
    const obs::ProcAttribution& ledger = off.sim.proc(p).stats().ledger;
    refill += ledger.of(StallCat::kInvalidationRefill);
    for (std::size_t c = 0; c < obs::kNumStallCats; ++c) {
      const std::string row =
          "\nstall.proc" + std::to_string(p) + "," +
          obs::stall_cat_name(static_cast<StallCat>(c)) + "," +
          std::to_string(ledger.cycles[c]) + "\n";
      EXPECT_NE(csv.find(row), std::string::npos) << row;
    }
  }
  EXPECT_GT(refill, 0u);
}

// The paper columns are not a function of the ten categories: structural
// stalls count as stall_cache but are write_buffer_full, so on this cell the
// category exceeds the fence column while the ledger still sums exactly.
TEST_F(MetricsLedger, WriteBufferFullIsNotTheFenceColumn) {
  const Cell cell("Pverify", sync::SchemeKind::kQueuing,
                  bus::ConsistencyModel::kWeak, /*metrics=*/false);
  std::uint64_t write_buffer_full = 0;
  std::uint64_t stall_fence = 0;
  for (std::uint32_t p = 0; p < cell.result.num_procs; ++p) {
    const core::ProcStats& ps = cell.sim.proc(p).stats();
    write_buffer_full += ps.ledger.of(StallCat::kWriteBufferFull);
    stall_fence += ps.stall_fence;
    EXPECT_EQ(ps.ledger.total(), ps.completion_cycle) << "proc " << p;
  }
  EXPECT_GT(write_buffer_full, stall_fence);
}

// metrics_to_csv's record structure: the meta header, one stall block per
// processor plus the totals, one lock.0x... block per lock record in line
// order, then the bus gauge and the machine counters.
TEST_F(MetricsLedger, CsvHasOneBlockPerRecord) {
  const Cell cell("Grav", sync::SchemeKind::kQueuing,
                  bus::ConsistencyModel::kSequential, /*metrics=*/true);
  const obs::MetricsRegistry& m = *cell.sim.metrics();
  ASSERT_GT(m.locks().size(), 1u);
  const std::string csv = obs::metrics_to_csv(m, cell.meta());

  std::vector<std::string> expected = {"record", "meta"};
  for (std::uint32_t p = 0; p < cell.result.num_procs; ++p) {
    expected.push_back("stall.proc" + std::to_string(p));
  }
  expected.push_back("stall.total");
  for (const auto& [line, lock] : m.locks()) {
    char record[32];
    std::snprintf(record, sizeof record, "lock.0x%08x", line);
    expected.push_back(record);
    EXPECT_NE(csv.find(std::string("\n") + record + ",acquisitions," +
                       std::to_string(lock.acquisitions) + "\n"),
              std::string::npos)
        << record;
  }
  expected.push_back("bus");
  expected.push_back("counter");

  std::vector<std::string> blocks;
  std::istringstream in(csv);
  for (std::string row; std::getline(in, row);) {
    const std::string record = row.substr(0, row.find(','));
    if (blocks.empty() || blocks.back() != record) blocks.push_back(record);
  }
  EXPECT_EQ(blocks, expected);

  std::uint64_t completion = 0;
  for (const core::ProcResult& p : cell.result.per_proc) {
    completion += p.completion_cycle;
  }
  EXPECT_NE(csv.find("\nstall.total,total," + std::to_string(completion) + "\n"),
            std::string::npos);
}

// A program label may be a trace-file path of any length: every export
// carries it whole (a fixed-size format buffer would truncate it).
TEST(MetricsExport, LongProgramNameSurvivesEveryExport) {
  const std::string name = "traces/" + std::string(285, 'x') + ".sptrace";
  ASSERT_EQ(name.size(), 300u);
  obs::MetricsRegistry m{obs::MetricsConfig{}};
  m.finalize(0, {}, {});
  const obs::MetricsMeta meta{name, "ttas", "sequential", 1, 0};

  const std::string header = "{\n\"program\":\"" + name +
                             "\",\"scheme\":\"ttas\",\"consistency\":"
                             "\"sequential\",\"num_procs\":1,\"run_time\":0,\n";
  EXPECT_EQ(obs::metrics_to_json(m, meta).substr(0, header.size()), header);
  const std::string csv = obs::metrics_to_csv(m, meta);
  EXPECT_NE(csv.find("\nmeta,program," + name + "\nmeta,scheme,ttas\n"),
            std::string::npos);

  const std::string trace = obs::ChromeTraceSink(name, 1).finish();
  for (const char* suffix : {"processors", "locks", "bus", "machine"}) {
    EXPECT_NE(trace.find("\"args\":{\"name\":\"" + name + " " + suffix +
                         "\"}},\n"),
              std::string::npos)
        << suffix;
  }
}

TEST(MetricsDisabled, SimulatorHoldsNoRegistry) {
  trace::ProgramTrace program = make_program({{ifetch(0x100, 2)}});
  core::MachineConfig cfg = machine();
  cfg.num_procs = 1;
  core::Simulator sim(cfg, program);
  EXPECT_EQ(sim.metrics(), nullptr);
  sim.run();
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_EQ(sim.take_metrics(), nullptr);
}

TEST(MetricsParse, FormatFollowsExtensionStrictly) {
  EXPECT_EQ(obs::metrics_format_from_path("out.json"),
            obs::MetricsFormat::kJson);
  EXPECT_EQ(obs::metrics_format_from_path("dir.v2/cell.csv"),
            obs::MetricsFormat::kCsv);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("out.txt")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("noext")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("")),
               std::invalid_argument);
}

TEST(MetricsBusGauge, SplitsTenuresAcrossWindows) {
  obs::BusWindowGauge g(16);
  g.add(0, 40);  // spans windows 0, 1 and half of 2
  ASSERT_EQ(g.windows().size(), 3u);
  EXPECT_EQ(g.windows()[0], 16u);
  EXPECT_EQ(g.windows()[1], 16u);
  EXPECT_EQ(g.windows()[2], 8u);
  EXPECT_EQ(g.total_busy(), 40u);
  g.finalize(63);  // zero-extends to cover the whole run
  ASSERT_EQ(g.windows().size(), 4u);
  EXPECT_EQ(g.windows()[3], 0u);
  EXPECT_EQ(g.total_busy(), 40u);
  EXPECT_DOUBLE_EQ(g.utilization(0), 1.0);
  EXPECT_DOUBLE_EQ(g.utilization(2), 0.5);
}

TEST(MetricsBusGauge, FinalizeClipsTheTrailingTenure) {
  obs::BusWindowGauge g(16);
  g.add(10, 20);      // busy cycles 10..29
  g.finalize(19);     // run ended at cycle 19: cycles 20..29 never ticked
  EXPECT_EQ(g.total_busy(), 10u);
  ASSERT_GE(g.windows().size(), 2u);
  EXPECT_EQ(g.windows()[0], 6u);   // cycles 10..15
  EXPECT_EQ(g.windows()[1], 4u);   // cycles 16..19
}

TEST(MetricsSelfProfile, AttachingNeverChangesTheSimulation) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Qsort").scaled(256);
  // Both engines: the profiler observes the host, never the simulation, and
  // either engine's loop lands in the one event-loop bucket.
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    core::MachineConfig cfg;
    cfg.num_procs = scaled.num_procs;
    cfg.engine = engine;

    trace::ProgramTrace plain_program = workload::make_program_trace(scaled);
    core::Simulator plain(cfg, plain_program);
    const std::string plain_rendered = fuzz::render_result(plain.run());

    trace::ProgramTrace profiled_program = workload::make_program_trace(scaled);
    core::Simulator profiled(cfg, profiled_program);
    obs::SelfProfiler profiler;
    profiled.set_self_profiler(&profiler);
    const std::string profiled_rendered = fuzz::render_result(profiled.run());

    EXPECT_EQ(plain_rendered, profiled_rendered)
        << core::engine_name(engine);
    const obs::SelfProfiler::Snapshot snap = profiler.snapshot();
    const auto loop =
        static_cast<std::size_t>(obs::SelfProfiler::Phase::kEventLoop);
    EXPECT_EQ(snap.calls[loop], 1u) << core::engine_name(engine);
    EXPECT_GT(snap.ns[loop], 0) << core::engine_name(engine);
    EXPECT_FALSE(profiler.to_string().empty());
  }
}

}  // namespace
}  // namespace syncpat
