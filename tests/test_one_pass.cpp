// One synthesis pass per cell: run_experiment and the CLI take the Table 1-2
// ideal statistics from the simulated pass (trace::IdealTap) rather than from
// a pass of their own.  The one-pass statistics must equal analyze_program on
// a fresh program, and the simulator must pull every event exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "sync/scheme_factory.hpp"
#include "trace/analyzer.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

#include "test_util.hpp"

namespace syncpat {
namespace {

using testutil::expect_same_ideal;

trace::IdealProgramStats standalone_ideal(
    const workload::BenchmarkProfile& profile) {
  trace::ProgramTrace fresh = workload::make_program_trace(profile);
  return trace::analyze_program(fresh);
}

TEST(OnePass, PaperProfilesMatchTheStandalonePass) {
  constexpr std::uint64_t kScale = 256;
  for (const workload::BenchmarkProfile& profile : workload::paper_profiles()) {
    const trace::IdealProgramStats want =
        standalone_ideal(profile.scaled(kScale));
    for (const sync::SchemeKind scheme :
         {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas}) {
      SCOPED_TRACE(profile.name + " " + sync::scheme_kind_name(scheme));
      expect_same_ideal(
          core::run_experiment(testutil::machine(scheme), profile, kScale).ideal,
          want);
    }
  }
}

TEST(OnePass, BarrierProfileMatchesTheStandalonePassAtP1024) {
  const workload::BenchmarkProfile profile = testutil::scale_study(1024, 60);
  const trace::IdealProgramStats got =
      core::run_experiment(testutil::machine(), profile).ideal;
  expect_same_ideal(got, standalone_ideal(profile));
  ASSERT_EQ(got.per_proc.size(), 1024u);
  EXPECT_EQ(got.per_proc[1023].barriers, 1u);
}

TEST(OnePass, LoadedTraceFileMatchesTheStandalonePass) {
  const std::string path = testutil::test_temp_dir() + "/Pdsa.sptrace";
  trace::ProgramTrace generated =
      workload::make_program_trace(workload::pdsa_profile().scaled(256));
  trace::save_program_trace(path, generated);

  trace::ProgramTrace reference = trace::load_program_trace(path);
  const trace::IdealProgramStats want = trace::analyze_program(reference);

  trace::ProgramTrace program = trace::load_program_trace(path);
  const trace::IdealTap tap(program);
  (void)testutil::simulate(testutil::machine(), program);
  expect_same_ideal(tap.finish(), want);
}

/// Counts the events its consumer pulls, across resets.
class CountingSource final : public trace::TraceSource {
 public:
  CountingSource(std::unique_ptr<trace::TraceSource> inner,
                 std::uint64_t& pulls)
      : inner_(std::move(inner)), pulls_(pulls) {}

  bool next(trace::Event& out) override {
    if (!inner_->next(out)) return false;
    ++pulls_;
    return true;
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  std::uint64_t& pulls_;
};

TEST(OnePass, SimulatorPullsEveryEventOnce) {
  for (const workload::BenchmarkProfile& profile :
       {workload::grav_profile().scaled(256), testutil::scale_study(64, 200)}) {
    SCOPED_TRACE(profile.name);
    trace::ProgramTrace fresh = workload::make_program_trace(profile);
    std::uint64_t events = 0;
    trace::Event e;
    for (auto& source : fresh.per_proc) {
      while (source->next(e)) ++events;
    }

    trace::ProgramTrace program = workload::make_program_trace(profile);
    std::uint64_t pulls = 0;
    for (auto& source : program.per_proc) {
      source = std::make_unique<CountingSource>(std::move(source), pulls);
    }
    const trace::IdealTap tap(program);
    (void)testutil::simulate(testutil::machine(sync::SchemeKind::kTtas),
                             program);
    EXPECT_GT(events, 0u);
    EXPECT_EQ(pulls, events);
    expect_same_ideal(tap.finish(), standalone_ideal(profile));
  }
}

}  // namespace
}  // namespace syncpat
