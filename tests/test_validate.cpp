#include "trace/validate.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat::trace {
namespace {

using testutil::ifetch;
using testutil::load;
using testutil::lock_acq;
using testutil::lock_rel;
using testutil::make_program;
using testutil::store;

TEST(Validate, CleanTracePasses) {
  ProgramTrace program = make_program({{
      ifetch(0x100),
      load(AddressMap::shared_addr(0)),
      lock_acq(0),
      store(AddressMap::shared_addr(16)),
      lock_rel(0),
  }});
  const ValidationReport r = validate_program(program);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.events_checked, 5u);
}

TEST(Validate, ReleaseWithoutAcquireFlagged) {
  ProgramTrace program = make_program({{lock_rel(3)}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("not held"), std::string::npos);
}

TEST(Validate, DanglingLockFlagged) {
  ProgramTrace program = make_program({{lock_acq(0), load(AddressMap::shared_addr(0))}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("ends holding"), std::string::npos);
}

TEST(Validate, IFetchOutsideCodeFlagged) {
  ProgramTrace program =
      make_program({{Event{AddressMap::shared_addr(0), 1, Op::kIFetch}}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("code region"), std::string::npos);
}

TEST(Validate, DataRefIntoLockRegionFlagged) {
  ProgramTrace program =
      make_program({{Event{AddressMap::lock_addr(0), 1, Op::kLoad}}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("lock region"), std::string::npos);
}

TEST(Validate, ForeignPrivateReferenceFlagged) {
  // Processor 0 touching processor 3's private segment.
  ProgramTrace program =
      make_program({{Event{AddressMap::private_addr(3, 64), 1, Op::kLoad}}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("another processor"), std::string::npos);
}

TEST(Validate, MismatchedBarrierSequencesFlagged) {
  ProgramTrace program = make_program({
      {Event{AddressMap::barrier_addr(0), 1, Op::kBarrier}},
      {ifetch(0x100)},  // processor 1 never arrives
  });
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("deadlock"), std::string::npos);
}

TEST(Validate, ReacquireOfHeldLockFlagged) {
  // Locks are non-reentrant: re-acquiring a held lock deadlocks the machine.
  ProgramTrace program = make_program(
      {{lock_acq(0), lock_acq(0), lock_rel(0), lock_rel(0)}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("non-reentrant"), std::string::npos);
}

TEST(Validate, DistinctNestedLocksAreFine) {
  ProgramTrace program =
      make_program({{lock_acq(0), lock_acq(1), lock_rel(1), lock_rel(0)}});
  EXPECT_TRUE(validate_program(program).ok());
}

TEST(Validate, LockOpWithDataAddressFlagged) {
  ProgramTrace program =
      make_program({{Event{AddressMap::shared_addr(0), 1, Op::kLockAcq}}});
  const ValidationReport r = validate_program(program);
  ASSERT_FALSE(r.ok());
}

TEST(Validate, ZeroGapEventsCountedNotFlagged) {
  ProgramTrace program = make_program({{Event{0x100, 0, Op::kIFetch}}});
  const ValidationReport r = validate_program(program);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.zero_gap_events, 1u);
}

TEST(Validate, ReportRendersSummary) {
  ProgramTrace program = make_program({{lock_rel(0), lock_rel(1), lock_rel(2)}});
  const ValidationReport r = validate_program(program);
  const std::string s = r.to_string(2);
  EXPECT_NE(s.find("INVALID"), std::string::npos);
  EXPECT_NE(s.find("and 1 more"), std::string::npos);
}

TEST(Validate, SourcesUsableAfterValidation) {
  ProgramTrace program = make_program({{ifetch(0x100)}});
  (void)validate_program(program);
  Event e;
  EXPECT_TRUE(program.per_proc[0]->next(e));
}

// Every built-in workload profile must emit valid traces.
class ValidateWorkloads : public ::testing::TestWithParam<int> {};

TEST_P(ValidateWorkloads, GeneratedTracesAreWellFormed) {
  const auto profiles = workload::paper_profiles();
  auto profile = profiles[static_cast<std::size_t>(GetParam())].scaled(64);
  profile.locking.barriers_per_proc = 3;  // exercise barrier emission too
  ProgramTrace program = workload::make_program_trace(profile);
  const ValidationReport r = validate_program(program);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, ValidateWorkloads,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace syncpat::trace
