// Tests for the differential fuzzing harness itself: deterministic case
// generation, repro-file round-tripping, shrinker convergence, and the
// end-to-end run -> shrink -> repro -> replay pipeline (driven through an
// injected synthetic oracle so the expensive real battery only runs where a
// test actually needs it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "test_util.hpp"

namespace syncpat::fuzz {
namespace {

// Deterministic synthetic failure with a known minimal shape: any case with
// at least 2 processors and at least 400 references "fails".
OracleVerdict synthetic_oracle(const FuzzCase& c) {
  OracleVerdict v;
  if (c.num_procs >= 2 && c.refs_per_proc >= 400) {
    v.failures.push_back("injected: procs >= 2 and refs >= 400");
  }
  return v;
}

TEST(FuzzCaseGen, SameSeedAndIndexIsByteIdentical) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    const FuzzCase a = FuzzCase::generate(0xabcdef, i);
    const FuzzCase b = FuzzCase::generate(0xabcdef, i);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.to_text(), b.to_text());
  }
}

TEST(FuzzCaseGen, CasesAreIndependentOfEachOther) {
  // Case N must not depend on whether cases 0..N-1 were generated first.
  const FuzzCase direct = FuzzCase::generate(77, 20);
  for (std::uint64_t i = 0; i < 20; ++i) (void)FuzzCase::generate(77, i);
  EXPECT_EQ(FuzzCase::generate(77, 20), direct);
}

TEST(FuzzCaseGen, DifferentSeedsDiverge) {
  int distinct = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (!(FuzzCase::generate(1, i) == FuzzCase::generate(2, i))) ++distinct;
  }
  EXPECT_GT(distinct, 12);  // near-certain; catches a dead master_seed wire
}

TEST(FuzzCaseGen, GeneratedGeometryIsAlwaysLegal) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzCase c = FuzzCase::generate(0x9e37, i);
    EXPECT_GE(c.num_procs, 1u);
    EXPECT_EQ(c.line_bytes & (c.line_bytes - 1), 0u) << c.describe();
    EXPECT_LE(c.bus_bytes, c.line_bytes) << c.describe();
    EXPECT_LE(c.nested_pairs * 2, c.lock_pairs) << c.describe();
    EXPECT_GE(c.num_locks, 1u);
  }
}

TEST(FuzzCaseText, RoundTripsExactly) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const FuzzCase c = FuzzCase::generate(0x517e, i);
    EXPECT_EQ(FuzzCase::from_text(c.to_text()), c) << c.describe();
  }
}

TEST(FuzzCaseText, ParsesListBasedQueueLockSchemes) {
  // Repro files written after the MCS/CLH override draw landed carry
  // "scheme mcs" / "scheme clh"; older files keep parsing because the draw
  // only changed the value set, never the key format.
  const std::string base = FuzzCase::generate(1, 0).to_text();
  for (const char* name : {"mcs", "clh"}) {
    std::string text = base;
    const auto pos = text.find("scheme ");
    const auto eol = text.find('\n', pos);
    text.replace(pos, eol - pos, std::string("scheme ") + name);
    const FuzzCase c = FuzzCase::from_text(text);
    EXPECT_EQ(sync::scheme_kind_name(c.scheme), std::string(name));
    EXPECT_EQ(FuzzCase::from_text(c.to_text()), c);
  }
}

TEST(FuzzCaseGen, CorpusDrawsListBasedQueueLocks) {
  // The appended override draw must actually surface both new schemes —
  // otherwise the model-validation corpus never scores them.
  bool saw_mcs = false, saw_clh = false;
  for (std::uint64_t i = 0; i < 200 && !(saw_mcs && saw_clh); ++i) {
    const FuzzCase c = FuzzCase::generate(24245, i);
    saw_mcs |= c.scheme == sync::SchemeKind::kMcs;
    saw_clh |= c.scheme == sync::SchemeKind::kClh;
  }
  EXPECT_TRUE(saw_mcs);
  EXPECT_TRUE(saw_clh);
}

TEST(FuzzCaseText, RejectsMalformedRepros) {
  const std::string good = FuzzCase::generate(1, 0).to_text();
  EXPECT_THROW((void)FuzzCase::from_text(""), std::invalid_argument);
  EXPECT_THROW((void)FuzzCase::from_text("not-a-repro 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FuzzCase::from_text("syncpat-fuzz-case 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FuzzCase::from_text(good + "mystery_knob 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FuzzCase::from_text(good + "num_procs 4\n"),
               std::invalid_argument);  // duplicate key
  // Missing field: drop the last line.
  const std::string truncated = good.substr(0, good.rfind("barriers"));
  EXPECT_THROW((void)FuzzCase::from_text(truncated), std::invalid_argument);
  // Cache geometries no cache can be built with: 64 B x 64 ways x 2^20 sets
  // is 4 GiB, past the 32-bit size, and a set's recency ranks hold at most
  // 256 ways.
  const auto with = [](std::string text, const std::string& key,
                       const std::string& value) {
    const std::size_t at = text.find("\n" + key + " ") + 1;
    return text.replace(at, text.find('\n', at) - at, key + " " + value);
  };
  EXPECT_THROW((void)FuzzCase::from_text(
                   with(with(with(good, "line_bytes", "64"), "associativity",
                             "64"),
                        "sets_log2", "20")),
               std::invalid_argument);
  EXPECT_THROW((void)FuzzCase::from_text(with(good, "associativity", "512")),
               std::invalid_argument);
  EXPECT_EQ(FuzzCase::from_text(with(good, "associativity", "256"))
                .associativity,
            256u);
}

TEST(FuzzShrink, ReducesInjectedFailureToMinimalShape) {
  // Find a seeded case that trips the synthetic oracle.
  FuzzCase failing;
  bool found = false;
  for (std::uint64_t i = 0; i < 50 && !found; ++i) {
    failing = FuzzCase::generate(0xfa11, i);
    found = !synthetic_oracle(failing).ok();
  }
  ASSERT_TRUE(found) << "no seeded case tripped the synthetic oracle";

  const ShrinkResult r = shrink(failing, synthetic_oracle);
  // The oracle's true boundary is procs >= 2, refs >= 400.  Greedy halving
  // cannot overshoot: procs land exactly on 2, refs in [400, 2*400).
  EXPECT_EQ(r.minimal.num_procs, 2u);
  EXPECT_GE(r.minimal.refs_per_proc, 400u);
  EXPECT_LT(r.minimal.refs_per_proc, 800u);
  // Unrelated knobs collapse to their simplest values.
  EXPECT_EQ(r.minimal.nested_pairs, 0u);
  EXPECT_EQ(r.minimal.barriers, 0u);
  EXPECT_EQ(r.minimal.num_locks, 1u);
  EXPECT_EQ(r.minimal.scheme, sync::SchemeKind::kQueuing);
  // The guarantee that matters: the minimal case still fails.
  EXPECT_FALSE(synthetic_oracle(r.minimal).ok());
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GE(r.oracle_runs, r.accepted);
}

TEST(FuzzShrink, RespectsOracleRunCap) {
  FuzzCase failing = FuzzCase::generate(0xfa11, 0);
  failing.num_procs = 8;
  failing.refs_per_proc = 2000;
  const ShrinkResult r = shrink(failing, synthetic_oracle, /*max_oracle_runs=*/3);
  EXPECT_LE(r.oracle_runs, 3u);
  EXPECT_FALSE(synthetic_oracle(r.minimal).ok());
}

TEST(FuzzHarness, ReportIsByteIdenticalAcrossRuns) {
  HarnessOptions opt;
  opt.seed = 0x1de7;
  opt.cases = 30;
  opt.repro_dir = testutil::test_temp_dir();
  opt.injected_oracle = synthetic_oracle;
  std::ostringstream a, b;
  const HarnessReport ra = run_fuzz(opt, a);
  const HarnessReport rb = run_fuzz(opt, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(ra.failures.size(), rb.failures.size());
}

TEST(FuzzHarness, WritesReproThatReplaysToSameVerdict) {
  HarnessOptions opt;
  opt.seed = 0xfa11;
  opt.cases = 10;
  opt.repro_dir = testutil::test_temp_dir();
  opt.injected_oracle = synthetic_oracle;

  std::ostringstream report_out;
  const HarnessReport report = run_fuzz(opt, report_out);
  ASSERT_FALSE(report.ok()) << report_out.str();
  const FailureRecord& failure = report.failures.front();
  ASSERT_FALSE(failure.repro_path.empty());

  // The repro file holds the *minimal* case and replays to the same verdict.
  std::ifstream in(failure.repro_path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(FuzzCase::from_text(text.str()), failure.minimal);

  std::ostringstream replay_out;
  EXPECT_EQ(replay_repro(failure.repro_path, opt, replay_out), 1);
  EXPECT_NE(replay_out.str().find("FAIL"), std::string::npos);

  // A passing case replays to 0.
  const FuzzCase clean = []{
    FuzzCase c = FuzzCase::generate(0xfa11, 0);
    c.num_procs = 1;
    return c;
  }();
  const std::string clean_path = opt.repro_dir + "/fuzz_clean.case";
  std::ofstream(clean_path) << clean.to_text();
  std::ostringstream pass_out;
  EXPECT_EQ(replay_repro(clean_path, opt, pass_out), 0);
  std::remove(clean_path.c_str());
}

TEST(FuzzHarness, ReplayThrowsOnMissingFile) {
  HarnessOptions opt;
  opt.injected_oracle = synthetic_oracle;
  std::ostringstream out;
  EXPECT_THROW((void)replay_repro("/nonexistent/fuzz.case", opt, out),
               std::invalid_argument);
}

// The real oracle battery, on a handful of seeded cases.  (The 200-case batch
// runs as the fuzz-smoke ctest; this keeps a taste of it inside the unit
// suite so `ctest -R Fuzz` exercises the real pipeline too.)
TEST(FuzzRealOracles, SeededCasesRunClean) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    const FuzzCase c = FuzzCase::generate(0x5eed, i);
    const OracleVerdict v = run_oracles(c);
    EXPECT_TRUE(v.ok()) << c.describe() << ": " << v.failed_oracles();
  }
}

TEST(FuzzRealOracles, WriteThroughEndOfTraceCycleIsConserved) {
  // Regression for a latent accounting bug the fuzzer caught: a sequential
  // write-through store absorbed by memory finalizes *before* processors tick
  // (Simulator::step order), so a trace ending on such a store stamped
  // completion_cycle without counting the final waited cycle — breaking
  // work + stalls == completion_cycle by exactly one.
  FuzzCase c;
  c.num_procs = 3;
  c.sets_log2 = 4;
  c.associativity = 1;
  c.line_bytes = 8;
  c.write_policy = cache::WritePolicy::kWriteThrough;
  c.consistency = bus::ConsistencyModel::kSequential;
  c.scheme = sync::SchemeKind::kQueuing;
  c.workload_seed = 10984287284030377529ULL;
  c.refs_per_proc = 491;
  c.write_fraction = 0.41;
  c.lock_pairs = 5;
  const OracleVerdict v = run_oracles(c);
  EXPECT_TRUE(v.ok()) << v.failed_oracles();
}

}  // namespace
}  // namespace syncpat::fuzz
