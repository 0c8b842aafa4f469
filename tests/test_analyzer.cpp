#include "trace/analyzer.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace syncpat::trace {
namespace {

using testutil::ifetch;
using testutil::load;
using testutil::lock_acq;
using testutil::lock_rel;
using testutil::make_program;
using testutil::store;

TEST(Analyzer, CountsReferenceCategories) {
  ProgramTrace program = make_program({{
      ifetch(0x100, 2),
      load(AddressMap::private_addr(0, 16), 3),
      store(AddressMap::shared_addr(0), 1),
      load(AddressMap::shared_addr(64), 4),
  }});
  const IdealProgramStats stats = analyze_program(program);
  ASSERT_EQ(stats.per_proc.size(), 1u);
  const IdealProcStats& p = stats.per_proc[0];
  EXPECT_EQ(p.refs_all, 4u);
  EXPECT_EQ(p.refs_data, 3u);
  EXPECT_EQ(p.refs_shared, 2u);
  EXPECT_EQ(p.stores, 1u);
  EXPECT_EQ(p.shared_stores, 1u);
  EXPECT_EQ(p.work_cycles, 10u);
}

TEST(Analyzer, LockPairAccounting) {
  ProgramTrace program = make_program({{
      lock_acq(0, 1),
      load(AddressMap::shared_addr(0), 10),
      lock_rel(0, 5),
      ifetch(0x100, 4),
      lock_acq(0, 1),
      lock_rel(0, 20),
  }});
  const IdealProgramStats stats = analyze_program(program);
  const IdealProcStats& p = stats.per_proc[0];
  EXPECT_EQ(p.lock_pairs, 2u);
  EXPECT_EQ(p.nested_pairs, 0u);
  // First pair held 15 cycles (load gap 10 + release gap 5), second 20.
  EXPECT_EQ(p.pair_hold_cycles, 35u);
  EXPECT_EQ(p.held_cycles, 35u);
}

TEST(Analyzer, NestedLocksNotDoubleCountedInUnion) {
  ProgramTrace program = make_program({{
      lock_acq(0, 1),
      load(AddressMap::shared_addr(0), 4),
      lock_acq(1, 2),   // nested: thread-queue lock
      load(AddressMap::shared_addr(64), 6),
      lock_rel(1, 2),
      lock_rel(0, 6),
  }});
  const IdealProgramStats stats = analyze_program(program);
  const IdealProcStats& p = stats.per_proc[0];
  EXPECT_EQ(p.lock_pairs, 2u);
  EXPECT_EQ(p.nested_pairs, 1u);
  // Outer held 4+2+6+2+6 = 20; inner held 6+2 = 8; union = 20.
  EXPECT_EQ(p.held_cycles, 20u);
  EXPECT_EQ(p.pair_hold_cycles, 28u);
}

TEST(Analyzer, HeldTimeFraction) {
  ProgramTrace program = make_program({{
      ifetch(0x100, 60),
      lock_acq(0, 0),
      load(AddressMap::shared_addr(0), 40),
      lock_rel(0, 0),
  }});
  const IdealProgramStats stats = analyze_program(program);
  EXPECT_DOUBLE_EQ(stats.held_time_fraction(), 0.4);
}

TEST(Analyzer, AveragesAcrossProcessors) {
  ProgramTrace program = make_program({
      {ifetch(0x100, 10)},
      {ifetch(0x100, 30)},
  });
  const IdealProgramStats stats = analyze_program(program);
  EXPECT_EQ(stats.num_procs, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_work_cycles(), 20.0);
  EXPECT_DOUBLE_EQ(stats.avg_refs_all(), 1.0);
}

TEST(Analyzer, InterleavedDifferentLocksMatchCorrectly) {
  // Release matches the most recent acquire of the *same* lock even when
  // another lock was acquired in between.
  ProgramTrace program = make_program({{
      lock_acq(0, 1),
      lock_acq(1, 5),
      lock_rel(0, 5),  // releases lock 0, held 10
      lock_rel(1, 5),  // releases lock 1, held 10
  }});
  const IdealProgramStats stats = analyze_program(program);
  const IdealProcStats& p = stats.per_proc[0];
  EXPECT_EQ(p.lock_pairs, 2u);
  EXPECT_EQ(p.nested_pairs, 1u);
  EXPECT_EQ(p.pair_hold_cycles, 20u);
}

TEST(Analyzer, TraceRemainsUsableAfterAnalysis) {
  ProgramTrace program = make_program({{load(1), load(2)}});
  (void)analyze_program(program);
  Event e;
  EXPECT_TRUE(program.per_proc[0]->next(e));  // sources were reset
}

TEST(Analyzer, EmptyTrace) {
  ProgramTrace program = make_program({{}});
  const IdealProgramStats stats = analyze_program(program);
  EXPECT_EQ(stats.per_proc[0].work_cycles, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_hold_per_pair(), 0.0);
  EXPECT_DOUBLE_EQ(stats.held_time_fraction(), 0.0);
}

std::vector<std::vector<Event>> nested_trace() {
  return {
      {lock_acq(0, 1), load(AddressMap::shared_addr(0), 4), lock_acq(1, 2),
       store(AddressMap::shared_addr(64), 6), lock_rel(1, 2), lock_rel(0, 6),
       ifetch(0x100, 3)},
      {ifetch(0x100, 10), store(AddressMap::private_addr(1, 8), 2),
       Event{AddressMap::barrier_addr(0), 2, Op::kBarrier}},
  };
}

TEST(IdealTap, ForwardsEventsAndMatchesAnalyzeProgram) {
  ProgramTrace expected_program = make_program(nested_trace());
  const IdealProgramStats expected = analyze_program(expected_program);

  ProgramTrace program = make_program(nested_trace());
  const IdealTap tap(program);
  for (std::size_t p = 0; p < program.num_procs(); ++p) {
    EXPECT_EQ(collect(*program.per_proc[p]), nested_trace()[p]);
  }
  const IdealProgramStats stats = tap.finish();
  testutil::expect_same_ideal(stats, expected);
  EXPECT_EQ(stats.per_proc[0].nested_pairs, 1u);
  EXPECT_EQ(stats.per_proc[1].barriers, 1u);
}

TEST(IdealTap, ResetClearsTheAccumulator) {
  ProgramTrace expected_program = make_program(nested_trace());
  const IdealProgramStats expected = analyze_program(expected_program);

  ProgramTrace program = make_program(nested_trace());
  const IdealTap tap(program);
  Event e;
  ASSERT_TRUE(program.per_proc[0]->next(e));
  ASSERT_TRUE(program.per_proc[0]->next(e));
  (void)collect(*program.per_proc[1]);
  program.reset_all();
  for (auto& source : program.per_proc) (void)collect(*source);
  testutil::expect_same_ideal(tap.finish(), expected);
}

TEST(IdealTap, FinishNeedsTheWholeTrace) {
  ProgramTrace program = make_program(nested_trace());
  const IdealTap tap(program);
  (void)collect(*program.per_proc[0]);
  EXPECT_DEATH((void)tap.finish(), "whole trace");
}

TEST(IdealTap, KeepsTheAnalyzerAssertions) {
  ProgramTrace unheld = make_program({{load(1), lock_rel(0)}});
  const IdealTap unheld_tap(unheld);
  EXPECT_DEATH((void)collect(*unheld.per_proc[0]), "does not hold");

  // A trace that ends inside a critical section fails when it ends, before
  // any consumer asks for the statistics.
  ProgramTrace open = make_program({{lock_acq(0), load(1)}});
  const IdealTap open_tap(open);
  EXPECT_DEATH((void)collect(*open.per_proc[0]), "holding a lock");
}

}  // namespace
}  // namespace syncpat::trace
