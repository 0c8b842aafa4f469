// Differential test for the execution engines: the discrete-event core and
// the per-cycle tick loop that is its oracle must produce byte-identical
// SimulationResults for every lock scheme, consistency model, and write
// policy — and so must the DES core with the invariant checker attached.
// Every field — including RunningStat moments, which would expose a single
// reordered or double-counted sample — is rendered with hexfloat precision
// (fuzz::render_result, shared with the fuzzing harness) and compared as a
// string so nothing is hidden by rounding.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bus/interface.hpp"
#include "core/invariant_checker.hpp"
#include "core/machine_config.hpp"
#include "core/results.hpp"
#include "core/simulator.hpp"
#include "fuzz/render.hpp"
#include "sync/scheme_factory.hpp"
#include "test_util.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

constexpr std::uint64_t kScale = 64;

workload::BenchmarkProfile profile_by_name(const std::string& name) {
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown profile " << name;
  return {};
}

struct RunOutput {
  std::string rendered;
  core::DesStats des;
  core::EngineKind engine = core::EngineKind::kDes;
  std::uint64_t checks = 0;      // invariant checker, when enabled
  std::uint64_t violations = 0;
};

RunOutput run_once(const workload::BenchmarkProfile& scaled,
                   core::MachineConfig cfg, core::EngineKind engine) {
  cfg.num_procs = scaled.num_procs;
  cfg.engine = engine;
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  core::Simulator sim(cfg, program);
  RunOutput out;
  out.rendered = fuzz::render_result(sim.run());
  out.des = sim.des_stats();
  out.engine = sim.engine();
  if (const core::InvariantChecker* checker = sim.invariant_checker()) {
    out.checks = checker->checks();
    out.violations = checker->violation_count();
  }
  return out;
}

// The engine matrix: every lock scheme x 2 consistency models x 2 write
// policies, each run three ways — DES, per-cycle tick, and DES with the
// invariant checker attached.  The checked arm proves the checker is a
// non-perturbing observer of the production engine with nothing to report.
TEST(EngineDifferential, ByteIdenticalAcrossSchemesModelsAndPolicies) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Grav").scaled(kScale);
  std::uint64_t total_spans = 0;
  for (const sync::SchemeKind scheme : sync::all_scheme_kinds()) {
    for (const bus::ConsistencyModel model :
         {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
      for (const cache::WritePolicy policy :
           {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
        core::MachineConfig cfg;
        cfg.lock_scheme = scheme;
        cfg.consistency = model;
        cfg.write_policy = policy;
        const std::string label =
            std::string("scheme=") + sync::scheme_kind_name(scheme) +
            " model=" + bus::consistency_name(model) +
            " policy=" + cache::write_policy_name(policy);
        const RunOutput des = run_once(scaled, cfg, core::EngineKind::kDes);
        const RunOutput tick = run_once(scaled, cfg, core::EngineKind::kTick);
        core::MachineConfig checked_cfg = cfg;
        checked_cfg.invariants.enabled = true;
        const RunOutput checked =
            run_once(scaled, checked_cfg, core::EngineKind::kDes);
        EXPECT_EQ(des.engine, core::EngineKind::kDes);
        EXPECT_EQ(tick.engine, core::EngineKind::kTick);
        EXPECT_EQ(checked.engine, core::EngineKind::kDes);
        EXPECT_EQ(des.rendered, tick.rendered)
            << "DES diverged from per-cycle ticking: " << label;
        EXPECT_EQ(checked.rendered, tick.rendered)
            << "the invariant checker perturbed DES: " << label;
        EXPECT_GT(checked.checks, 0u) << label;
        EXPECT_EQ(checked.violations, 0u) << label;
        total_spans += des.des.spans;
      }
    }
  }
  // DES must actually skip cycles somewhere, or this test proves nothing
  // about its bulk-advance path.
  EXPECT_GT(total_spans, 0u);
}

TEST(EngineDifferential, DesSkipsMostCyclesOnCoarseGrainedWork) {
  // Long compute gaps between references: the event queue should jump the
  // gaps and make stepped cycles a small minority.
  workload::BenchmarkProfile coarse = profile_by_name("Grav");
  coarse.work_cycles_per_ref = 400;
  coarse.name = "Grav-coarse";
  const workload::BenchmarkProfile scaled = coarse.scaled(kScale * 4);
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  const RunOutput des = run_once(scaled, cfg, core::EngineKind::kDes);
  EXPECT_EQ(des.engine, core::EngineKind::kDes);
  EXPECT_GT(des.des.spans, 0u);
  EXPECT_GT(des.des.span_cycles, des.des.stepped_cycles)
      << "the event queue should make stepped cycles the minority";
}

// The checker runs on whichever engine is configured: on DES it checks at
// every event cycle, the only cycles where the state it reads can change.
TEST(EngineDifferential, InvariantCheckerKeepsConfiguredEngine) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Pverify").scaled(kScale * 4);
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.invariants.enabled = true;
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    const RunOutput checked = run_once(scaled, cfg, engine);
    EXPECT_EQ(checked.engine, engine) << core::engine_name(engine);
    // Only the DES core steps event cycles.
    EXPECT_EQ(checked.des.stepped_cycles > 0, engine == core::EngineKind::kDes)
        << core::engine_name(engine);
    EXPECT_GT(checked.checks, 0u) << core::engine_name(engine);
    EXPECT_EQ(checked.violations, 0u) << core::engine_name(engine);
  }
}

/// Runs `per_proc` under `scheme` on `engine`: a program that can never
/// finish, so the progress watchdog prints its diagnostic and aborts.
void run_deadlocked(std::vector<std::vector<trace::Event>> per_proc,
                    core::EngineKind engine,
                    sync::SchemeKind scheme = sync::SchemeKind::kTtas) {
  trace::ProgramTrace program = testutil::make_program(std::move(per_proc));
  core::MachineConfig cfg = testutil::machine(scheme);
  cfg.engine = engine;
  (void)testutil::simulate(cfg, program);
}

// A run that can never finish stops at the same cycle, with the same
// counters, on both engines: both execute the stop cycle, 500,000 cycles past
// the last cycle through which any trace progressed.
TEST(EngineDeadlockDeathTest, BarrierOnlyOneProcessorReaches) {
  const trace::Event barrier{trace::AddressMap::barrier_addr(0), 1,
                             trace::Op::kBarrier};
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    SCOPED_TRACE(core::engine_name(engine));
    EXPECT_DEATH(run_deadlocked({{testutil::ifetch(0x100), barrier,
                                  testutil::ifetch(0x110, 2)},
                                 {testutil::ifetch(0x200, 2),
                                  testutil::ifetch(0x210)}},
                                engine),
                 "deadlock diagnostic at cycle 500018:\n"
                 "  proc 0 state=3 work=2 lockstall=500003 done=0\n"
                 "  proc 1 state=6 work=3 lockstall=0 done=1\n"
                 "  active txns=0 line_inflight=0 timers=0\n"
                 "  barrier 0xf2000000 waiting=1\n");
  }
}

// The holder finishes without releasing the lock; its trace end, after its
// load's 1,500 work cycles and miss, is the last progress.
TEST(EngineDeadlockDeathTest, LockHolderNeverReleases) {
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    SCOPED_TRACE(core::engine_name(engine));
    EXPECT_DEATH(run_deadlocked({{testutil::lock_acq(0),
                                  testutil::load(testutil::shared_line(1), 1500)},
                                 {testutil::ifetch(0x200, 5),
                                  testutil::lock_acq(0), testutil::lock_rel(0)}},
                                engine),
                 "deadlock diagnostic at cycle 501515:\n"
                 "  proc 0 state=6 work=1501 lockstall=0 done=1\n"
                 "  proc 1 state=4 work=6 lockstall=501503 done=0\n"
                 "  active txns=0 line_inflight=0 timers=0\n");
  }
}

// The same program under tas: the waiter's test&set retries create a
// transaction each but finish no trace event, so they are not progress and
// the watchdog trips as it does under ttas.
TEST(EngineDeadlockDeathTest, TasHolderNeverReleases) {
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    SCOPED_TRACE(core::engine_name(engine));
    EXPECT_DEATH(run_deadlocked({{testutil::lock_acq(0),
                                  testutil::load(testutil::shared_line(1), 1500)},
                                 {testutil::ifetch(0x200, 5),
                                  testutil::lock_acq(0), testutil::lock_rel(0)}},
                                engine, sync::SchemeKind::kTas),
                 "deadlock diagnostic at cycle 501514:\n"
                 "  proc 0 state=6 work=1501 lockstall=0 done=1\n"
                 "  proc 1 state=2 work=6 lockstall=501502 done=0\n"
                 "  active txns=1 line_inflight=0 timers=0\n");
  }
}

// The holder's last progress is a load that hits after a 1,500-cycle gap;
// both engines stop exactly 500,000 cycles after it.
TEST(EngineDeadlockDeathTest, LastProgressIsAHitAfterALongGap) {
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    SCOPED_TRACE(core::engine_name(engine));
    EXPECT_DEATH(run_deadlocked({{testutil::lock_acq(0),
                                  testutil::load(testutil::shared_line(1)),
                                  testutil::load(testutil::shared_line(1), 1500)},
                                 {testutil::ifetch(0x200, 5),
                                  testutil::lock_acq(0), testutil::lock_rel(0)}},
                                engine),
                 "deadlock diagnostic at cycle 501517:\n"
                 "  proc 0 state=6 work=1502 lockstall=0 done=1\n"
                 "  proc 1 state=4 work=6 lockstall=501505 done=0\n"
                 "  active txns=0 line_inflight=0 timers=0\n");
  }
}

}  // namespace
}  // namespace syncpat
