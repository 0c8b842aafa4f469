// Invariant-checker suite: every shipped lock scheme, under both memory
// models, runs a contended workload with the checker enabled and must show
// zero violations — then hand-fed cache transitions prove the coherence
// check fires in the cycle a violation arises, and two deliberately-broken
// in-test schemes prove the lock checks fire (mutual exclusion, FIFO
// hand-off) on both engines.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/invariant_checker.hpp"
#include "core/simulator.hpp"
#include "sync/scheme.hpp"
#include "test_util.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using testutil::load;
using testutil::lock_acq;
using testutil::lock_rel;
using testutil::store;

// --------------------------------------------------------------------------
// Shipped schemes are clean.

struct SchemeModelCase {
  sync::SchemeKind scheme;
  bus::ConsistencyModel model;
};

std::vector<SchemeModelCase> all_cases() {
  std::vector<SchemeModelCase> cases;
  for (const sync::SchemeKind kind : sync::all_scheme_kinds()) {
    cases.push_back({kind, bus::ConsistencyModel::kSequential});
    cases.push_back({kind, bus::ConsistencyModel::kWeak});
  }
  return cases;
}

TEST(Invariants, AllSchemesAndModelsRunClean) {
  for (const SchemeModelCase& c : all_cases()) {
    core::MachineConfig config;
    config.lock_scheme = c.scheme;
    config.consistency = c.model;
    config.invariants.enabled = true;
    // A small cache forces evictions/refills, exercising more coherence
    // paths, not fewer.
    config.cache.size_bytes = 16 * 1024;

    const core::ExperimentOutcome outcome =
        core::run_experiment(config, workload::grav_profile(), 64);
    const core::InvariantReport& report = outcome.invariants;
    ASSERT_TRUE(report.enabled);
    EXPECT_GT(report.checks, 0u);
    EXPECT_EQ(report.violations, 0u)
        << "scheme=" << sync::scheme_kind_name(c.scheme)
        << " model=" << bus::consistency_name(c.model) << " first violation: "
        << (report.samples.empty() ? "<none recorded>" : report.samples[0]);
  }
}

// The DES core runs the per-cycle checks at its event cycles, not only at run
// end.  Proc 0 computes for 2000 cycles between its stores: one long span
// with no event cycle in it.
TEST(Invariants, DesChecksEventCyclesAndSpans) {
  trace::ProgramTrace program = testutil::make_program({
      {store(testutil::shared_line(1)), store(testutil::shared_line(2), 2000)},
      {load(testutil::shared_line(1), 5)},
  });
  core::MachineConfig config = testutil::machine();
  config.invariants.enabled = true;
  config.num_procs = 2;
  core::Simulator sim(config, program);
  EXPECT_EQ(sim.engine(), core::EngineKind::kDes);
  (void)sim.run();
  EXPECT_GT(sim.des_stats().span_cycles, 1500u);
  const core::InvariantChecker& checker = *sim.invariant_checker();
  EXPECT_TRUE(checker.ok());
  // What the end-of-run sweep alone counts.
  core::InvariantChecker final_sweep(false, 2);
  final_sweep.on_run_end(sim);
  EXPECT_GT(checker.checks(), final_sweep.checks())
      << "no checks at DES event cycles";
}

// The coherence check runs over the lines that changed, at the end of the
// cycle they changed in.  A standalone checker is fed cache transitions by
// hand beside a machine stepped cycle by cycle: both processors have read
// line A (the directory lists two holders of it) and compute for a long
// time, while the checker hears of a second owner of A, an owner of A beside
// a sharer, and a holder of line B that the directory lacks.
TEST(Invariants, ChangedLinesAreCheckedAtTheEndOfTheirCycle) {
  constexpr cache::LineState I = cache::LineState::kInvalid;
  constexpr cache::LineState S = cache::LineState::kShared;
  constexpr cache::LineState E = cache::LineState::kExclusive;
  constexpr cache::LineState M = cache::LineState::kModified;
  const std::uint32_t a = testutil::shared_line(1);
  const std::uint32_t b = testutil::shared_line(2);
  trace::ProgramTrace program = testutil::make_program({
      {load(a), load(b, 5000)},
      {load(a), load(b, 5000)},
  });
  core::MachineConfig config = testutil::machine();
  config.num_procs = 2;
  config.engine = core::EngineKind::kTick;
  core::Simulator sim(config, program);
  while (sim.cache_of(0).state(a) != S || sim.cache_of(1).state(a) != S) {
    ASSERT_LT(sim.now(), 1000u) << "line A never became shared";
    sim.step();
  }

  struct Change {
    std::uint32_t line;
    cache::LineState from, to;
  };
  core::InvariantChecker checker(false, 2);
  // Steps the machine one cycle in which the checker hears `changes`, and
  // returns the violations it reports at the end of that cycle.
  const auto cycle_with = [&](const std::vector<Change>& changes) {
    sim.step();
    const std::uint64_t before = checker.violation_count();
    for (const Change& c : changes) checker.on_transition(c.line, c.from, c.to);
    EXPECT_EQ(checker.violation_count(), before);
    checker.on_cycle(sim);
    const std::vector<std::string>& all = checker.violations();
    return std::vector<std::string>(
        all.begin() + static_cast<std::ptrdiff_t>(before), all.end());
  };
  // As cycle_with, expecting exactly one violation that names `what` and
  // the cycle; returns its message.
  const auto expect_one = [&](const std::vector<Change>& changes,
                              const std::string& what) {
    const std::vector<std::string> reported = cycle_with(changes);
    if (reported.size() != 1) {
      ADD_FAILURE() << reported.size() << " violations instead of " << what;
      return std::string();
    }
    EXPECT_NE(reported[0].find(what), std::string::npos) << reported[0];
    EXPECT_NE(reported[0].find("at cycle " + std::to_string(sim.now())),
              std::string::npos)
        << reported[0];
    return reported[0];
  };

  ASSERT_TRUE(cycle_with({{a, I, S}, {a, I, S}}).empty());
  const std::string two_owners =
      expect_one({{a, S, E}, {a, S, M}}, "single-writer");
  EXPECT_NE(two_owners.find("held by proc 0 (S), proc 1 (S)"),
            std::string::npos)
      << two_owners;
  EXPECT_TRUE(cycle_with({}).empty()) << "reported again without a change";
  expect_one({{a, E, S}}, "stale sharer");
  expect_one({{b, I, S}}, "holder directory lists 0 holders");
  EXPECT_EQ(sim.cache_of(0).state(b), I) << "the machine itself read line B";
}

// Two transactions holding one line's slot at once: the check re-derives
// the pair from their phases and reports it once, in that cycle.
TEST(Invariants, TwoTransactionsOnOneLineAreReported) {
  const std::uint32_t a = testutil::shared_line(1);
  trace::ProgramTrace program = testutil::make_program({{load(a)}, {load(a)}});
  core::MachineConfig config = testutil::machine();
  config.num_procs = 2;
  core::Simulator sim(config, program);
  core::InvariantChecker checker(false, 2);
  bus::Transaction* first = sim.make_txn(bus::TxnKind::kRead, a, 0,
                                         bus::StallCause::kCacheMiss, true);
  bus::Transaction* second = sim.make_txn(bus::TxnKind::kReadX, a, 1,
                                          bus::StallCause::kCacheMiss, true);
  checker.on_cycle(sim);
  ASSERT_EQ(checker.violation_count(), 0u) << "queued requests hold no slot";

  first->phase = bus::TxnPhase::kOnBusReq;
  second->phase = bus::TxnPhase::kOnBusReq;
  checker.on_cycle(sim);
  ASSERT_EQ(checker.violation_count(), 1u);
  const std::string& message = checker.violations()[0];
  char line[16];
  std::snprintf(line, sizeof(line), "%x", a);
  EXPECT_EQ(message.rfind("two transactions in flight for line 0x" +
                              std::string(line) + " (ids ",
                          0),
            0u)
      << message;
  EXPECT_NE(message.find(std::to_string(first->id)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(second->id)), std::string::npos)
      << message;
  EXPECT_NE(message.find("at cycle " + std::to_string(sim.now())),
            std::string::npos)
      << message;
}

// --------------------------------------------------------------------------
// Broken schemes are caught.

/// Runs `streams` with the checker on and `Scheme` swapped in for the
/// configured one — by hand on the per-cycle step() loop, or through run()
/// on the DES core — and returns the violations the checker recorded.
template <typename Scheme>
std::vector<std::string> run_broken_scheme(
    std::vector<std::vector<trace::Event>> streams,
    sync::SchemeKind configured, core::EngineKind engine) {
  trace::ProgramTrace program = testutil::make_program(std::move(streams));
  core::MachineConfig config = testutil::machine(configured);
  config.invariants.enabled = true;
  config.num_procs = static_cast<std::uint32_t>(program.num_procs());
  config.engine = engine;
  core::Simulator sim(config, program);
  EXPECT_EQ(sim.engine(), engine);
  sim.set_scheme_for_test(std::make_unique<Scheme>(sim));
  if (engine == core::EngineKind::kDes) {
    (void)sim.run();
  } else {
    while (!sim.all_done()) sim.step();
  }
  return sim.invariant_checker()->violations();
}

/// Grants every acquire as soon as its bus access completes, ignoring the
/// lock state entirely — concurrent critical sections on a contended lock.
class NoMutexScheme final : public sync::LockScheme {
 public:
  explicit NoMutexScheme(sync::SchemeServices& services)
      : services_(services) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override {
    services_.issue_lock_txn(proc, lock_line, bus::TxnKind::kReadX,
                             bus::StallCause::kCacheMiss, /*stalls=*/true,
                             sync::kStepAcquire);
  }
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override {
    services_.issue_lock_txn(proc, lock_line, bus::TxnKind::kReadX,
                             bus::StallCause::kCacheMiss, /*stalls=*/true,
                             sync::kStepRelease);
  }
  void on_txn_complete(std::uint32_t proc, std::uint32_t /*line_addr*/,
                       std::uint8_t step) override {
    if (step == sync::kStepAcquire) {
      services_.proc_acquired(proc);
    } else {
      services_.proc_release_done(proc);
    }
  }
  void on_spin_invalidated(std::uint32_t, std::uint32_t) override {}

 private:
  sync::SchemeServices& services_;
};

TEST(Invariants, CheckerCatchesMutualExclusionViolation) {
  // Long critical sections on one lock from three processors: with every
  // acquire granted immediately, the sections overlap.
  const std::uint32_t data = testutil::shared_line(1);
  for (const core::EngineKind engine :
       {core::EngineKind::kTick, core::EngineKind::kDes}) {
    const std::vector<std::string> violations =
        run_broken_scheme<NoMutexScheme>(
            {
                {lock_acq(0, 1), store(data, 200), lock_rel(0, 1)},
                {lock_acq(0, 5), store(data, 200), lock_rel(0, 1)},
                {lock_acq(0, 9), store(data, 200), lock_rel(0, 1)},
            },
            sync::SchemeKind::kTtas, engine);
    ASSERT_FALSE(violations.empty()) << core::engine_name(engine);
    EXPECT_NE(violations[0].find("mutual exclusion"), std::string::npos)
        << core::engine_name(engine) << ": " << violations[0];
  }
}

/// A mutually-exclusive lock that grants waiters in LIFO order — legal for a
/// TAS-style lock, but a FIFO violation for the schemes that promise
/// bus-order hand-off.
class LifoScheme final : public sync::LockScheme {
 public:
  explicit LifoScheme(sync::SchemeServices& services) : services_(services) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override {
    services_.issue_lock_txn(proc, lock_line, bus::TxnKind::kReadX,
                             bus::StallCause::kCacheMiss, /*stalls=*/true,
                             sync::kStepAcquire);
  }
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override {
    services_.issue_lock_txn(proc, lock_line, bus::TxnKind::kReadX,
                             bus::StallCause::kCacheMiss, /*stalls=*/true,
                             sync::kStepRelease);
  }
  void on_txn_complete(std::uint32_t proc, std::uint32_t /*line_addr*/,
                       std::uint8_t step) override {
    if (step == sync::kStepAcquire) {
      if (held_) {
        waiters_.push_back(proc);
        services_.proc_wait(proc, /*spinning=*/false, 0);
      } else {
        held_ = true;
        owner_ = proc;
        services_.proc_acquired(proc);
      }
      return;
    }
    // Release: hand to the most recent waiter (LIFO), if any.
    services_.proc_release_done(proc);
    if (waiters_.empty()) {
      held_ = false;
    } else {
      owner_ = waiters_.back();
      waiters_.pop_back();
      services_.proc_acquired(owner_);
    }
  }
  void on_spin_invalidated(std::uint32_t, std::uint32_t) override {}

 private:
  sync::SchemeServices& services_;
  bool held_ = false;
  std::uint32_t owner_ = 0;
  std::vector<std::uint32_t> waiters_;
};

TEST(Invariants, CheckerCatchesFifoHandoffViolation) {
  // Proc 0 holds the lock long enough for procs 1 and 2 to queue in that
  // order; the LIFO scheme then grants proc 2 first.  The machine config
  // claims the queuing scheme, so the checker enforces FIFO hand-off.
  const std::uint32_t data = testutil::shared_line(1);
  for (const core::EngineKind engine :
       {core::EngineKind::kTick, core::EngineKind::kDes}) {
    const std::vector<std::string> violations = run_broken_scheme<LifoScheme>(
        {
            {lock_acq(0, 1), store(data, 400), lock_rel(0, 1)},
            {lock_acq(0, 30), store(data, 10), lock_rel(0, 1)},
            {lock_acq(0, 90), store(data, 10), lock_rel(0, 1)},
        },
        sync::SchemeKind::kQueuing, engine);
    bool found_fifo = false;
    for (const std::string& v : violations) {
      if (v.find("FIFO") != std::string::npos) found_fifo = true;
    }
    EXPECT_TRUE(found_fifo) << core::engine_name(engine)
                            << ": no FIFO violation among "
                            << violations.size() << " recorded";
  }
}

// The checker is off by default and costs nothing.
TEST(Invariants, DisabledByDefault) {
  const core::ExperimentOutcome outcome = core::run_experiment(
      core::MachineConfig{}, workload::qsort_profile(), 256);
  EXPECT_FALSE(outcome.invariants.enabled);
  EXPECT_EQ(outcome.invariants.checks, 0u);
}

}  // namespace
}  // namespace syncpat
