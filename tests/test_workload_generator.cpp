#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"
#include "trace/analyzer.hpp"
#include "trace/address_map.hpp"
#include "workload/profiles.hpp"

namespace syncpat::workload {
namespace {

BenchmarkProfile tiny_profile() {
  BenchmarkProfile p;
  p.name = "tiny";
  p.num_procs = 4;
  p.refs_per_proc = 20'000;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 2.5;
  p.locking.pairs_per_proc = 120;
  p.locking.nested_per_proc = 40;
  p.locking.cs_work_cycles = 80;
  p.locking.num_locks = 3;
  p.locking.dominant_weight = 0.6;
  p.seed = 0x7171;
  return p;
}

TEST(Generator, DeterministicPerSeedAndProc) {
  ProfileTraceSource a(tiny_profile(), 1);
  ProfileTraceSource b(tiny_profile(), 1);
  trace::Event ea, eb;
  for (int i = 0; i < 5000; ++i) {
    const bool ha = a.next(ea);
    const bool hb = b.next(eb);
    ASSERT_EQ(ha, hb);
    if (!ha) break;
    ASSERT_EQ(ea, eb) << "diverged at event " << i;
  }
}

TEST(Generator, DifferentProcsDiffer) {
  ProfileTraceSource a(tiny_profile(), 0);
  ProfileTraceSource b(tiny_profile(), 1);
  trace::Event ea, eb;
  int diffs = 0;
  for (int i = 0; i < 100; ++i) {
    if (!a.next(ea) || !b.next(eb)) break;
    diffs += (ea == eb) ? 0 : 1;
  }
  EXPECT_GT(diffs, 0);
}

/// Profiles that reach every branch of the generator's profile-only set-up:
/// Topopt's skewed processor, Qsort's cold stream, cold slices clamped at
/// P = 130 (130 default 4 MiB slices exceed the 384 MiB cold budget) with
/// barriers, a mean gap of 1 (no draw) and one of 400 (no gap table).
std::vector<BenchmarkProfile> setup_profiles() {
  BenchmarkProfile clamped = tiny_profile();
  clamped.name = "clamped-cold";
  clamped.num_procs = 130;
  clamped.refs_per_proc = 3'000;
  clamped.locking.pairs_per_proc = 12;
  clamped.locking.nested_per_proc = 4;
  clamped.locking.barriers_per_proc = 2;
  clamped.locality.cold_fraction = 0.2;
  BenchmarkProfile no_draw = tiny_profile();
  no_draw.name = "gap-1";
  no_draw.work_cycles_per_ref = 1.0;
  BenchmarkProfile no_table = tiny_profile();
  no_table.name = "gap-400";
  no_table.work_cycles_per_ref = 400.0;
  return {topopt_profile().scaled(256), qsort_profile().scaled(256), clamped,
          no_draw, no_table};
}

/// Index of the first event at which two streams differ, or -1.
std::ptrdiff_t first_difference(const std::vector<trace::Event>& a,
                                const std::vector<trace::Event>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return ia == a.end() && ib == b.end() ? -1 : ia - a.begin();
}

TEST(Generator, ResetReplaysIdentically) {
  std::vector<BenchmarkProfile> profiles = setup_profiles();
  profiles.push_back(tiny_profile());
  for (const BenchmarkProfile& profile : profiles) {
    ProfileTraceSource s(profile, 2);
    const std::vector<trace::Event> first = trace::collect(s);
    s.reset();
    EXPECT_EQ(first_difference(trace::collect(s), first), -1) << profile.name;
  }
}

// make_program_trace derives the profile-only set-up once and copies it into
// every processor's source; each must still yield exactly the stream of a
// source built on its own, before and after a reset.
TEST(Generator, ProgramSourcesMatchStandaloneSources) {
  for (const BenchmarkProfile& profile : setup_profiles()) {
    SCOPED_TRACE(profile.name);
    trace::ProgramTrace program = make_program_trace(profile);
    ASSERT_EQ(program.num_procs(), profile.num_procs);
    for (std::uint32_t proc = 0; proc < profile.num_procs; ++proc) {
      ProfileTraceSource standalone(profile, proc);
      const std::vector<trace::Event> want = trace::collect(standalone);
      trace::TraceSource& source = *program.per_proc[proc];
      ASSERT_EQ(first_difference(trace::collect(source), want), -1)
          << "processor " << proc;
      source.reset();
      ASSERT_EQ(first_difference(trace::collect(source), want), -1)
          << "processor " << proc << " after reset";
    }
  }
}

TEST(Generator, GapsAreAlwaysPositive) {
  ProfileTraceSource s(tiny_profile(), 0);
  trace::Event e;
  while (s.next(e)) ASSERT_GE(e.gap, 1u);
}

TEST(Generator, ReferenceCountNearTarget) {
  ProfileTraceSource s(tiny_profile(), 0);
  trace::Event e;
  std::uint64_t refs = 0;
  while (s.next(e)) {
    if (trace::is_memory_ref(e.op)) ++refs;
  }
  EXPECT_NEAR(static_cast<double>(refs), 20'000.0, 600.0);
}

TEST(Generator, LockPairsBalanced) {
  // The analyzer asserts on unbalanced acquire/release, so a clean run is
  // the property.
  trace::ProgramTrace program = make_program_trace(tiny_profile());
  const trace::IdealProgramStats stats = trace::analyze_program(program);
  for (const auto& p : stats.per_proc) {
    EXPECT_NEAR(static_cast<double>(p.lock_pairs), 120.0, 25.0);
    EXPECT_NEAR(static_cast<double>(p.nested_pairs), 40.0, 20.0);
  }
}

TEST(Generator, AddressesInValidRegions) {
  ProfileTraceSource s(tiny_profile(), 1);
  trace::Event e;
  while (s.next(e)) {
    const trace::Region region = trace::AddressMap::classify(e.addr);
    switch (e.op) {
      case trace::Op::kIFetch:
        ASSERT_EQ(region, trace::Region::kCode);
        break;
      case trace::Op::kLockAcq:
      case trace::Op::kLockRel:
        ASSERT_EQ(region, trace::Region::kLock);
        break;
      default:
        ASSERT_NE(region, trace::Region::kLock);
        break;
    }
  }
}

TEST(Generator, PrivateRefsBelongToOwnSegment) {
  const BenchmarkProfile profile = tiny_profile();
  for (std::uint32_t proc = 0; proc < profile.num_procs; ++proc) {
    ProfileTraceSource s(profile, proc);
    trace::Event e;
    while (s.next(e)) {
      if (trace::is_data_ref(e.op) &&
          trace::AddressMap::classify(e.addr) == trace::Region::kPrivate) {
        ASSERT_EQ(trace::AddressMap::private_owner(e.addr), proc);
      }
    }
  }
}

TEST(Generator, ScaledProfileShrinksCounts) {
  const BenchmarkProfile base = grav_profile();
  const BenchmarkProfile scaled = base.scaled(8);
  EXPECT_EQ(scaled.refs_per_proc, base.refs_per_proc / 8);
  EXPECT_EQ(scaled.locking.pairs_per_proc, base.locking.pairs_per_proc / 8);
  EXPECT_EQ(scaled.num_procs, base.num_procs);  // processors never scale
  EXPECT_EQ(base.scaled(1).refs_per_proc, base.refs_per_proc);
}

TEST(Generator, BurstFrontLoadsCriticalSections) {
  BenchmarkProfile p = tiny_profile();
  p.locking.burst_fraction = 0.5;
  p.locking.burst_window = 0.05;
  ProfileTraceSource s(p, 0);
  trace::Event e;
  std::uint64_t refs = 0, early_acqs = 0, total_acqs = 0;
  const std::uint64_t window = p.refs_per_proc / 20;
  while (s.next(e)) {
    if (trace::is_memory_ref(e.op)) ++refs;
    if (e.op == trace::Op::kLockAcq) {
      ++total_acqs;
      if (refs < window) ++early_acqs;
    }
  }
  // At least ~40% of acquisitions land in the first 5% of the trace.
  EXPECT_GT(static_cast<double>(early_acqs),
            0.35 * static_cast<double>(total_acqs));
}

TEST(Generator, NoLocksProfileEmitsNone) {
  BenchmarkProfile p = tiny_profile();
  p.locking.pairs_per_proc = 0;
  p.locking.nested_per_proc = 0;
  ProfileTraceSource s(p, 0);
  trace::Event e;
  while (s.next(e)) ASSERT_FALSE(trace::is_lock_op(e.op));
}

TEST(Generator, CpiSkewScalesOneProcessor) {
  BenchmarkProfile p = tiny_profile();
  p.locking.pairs_per_proc = 0;
  p.locking.nested_per_proc = 0;
  p.cpi_skew = 0.5;
  p.skew_proc = 0;
  trace::ProgramTrace program = make_program_trace(p);
  const trace::IdealProgramStats stats = trace::analyze_program(program);
  const double skewed = static_cast<double>(stats.per_proc[0].work_cycles);
  const double normal = static_cast<double>(stats.per_proc[1].work_cycles);
  EXPECT_GT(skewed, normal * 1.3);
  EXPECT_LT(skewed, normal * 1.7);
}

// ---------------------------------------------------------------------------
// Generated streams: digests pinned across commits.
// ---------------------------------------------------------------------------

// Every simulated result starts from these streams, so a change to the
// synthesizer that must keep them (a faster draw, another staging layout)
// is checked here first, cheaply and per stream.  Each golden line is
// "<stream> <seed> <events> <FNV-1a 64>", the hash taken over every
// processor's events in processor order, each event as its address and gap
// (4 bytes each, little-endian) and its op byte.  Regenerate with
// SYNCPAT_UPDATE_GOLDEN=1 and --gtest_filter='GeneratorGolden.*', in a
// commit that leaves src/workload/ and src/util/rng.hpp alone.
std::string stream_golden_path() {
  return std::string(SYNCPAT_GOLDEN_DIR) + "/generator_streams.txt";
}

/// The pinned streams: the six paper profiles at scale 64, Grav with 100
/// and 400 work cycles per reference (the gap sampler's log1p path) at the
/// coarse-grain scale 32, and the large-P study at P = 1024.
std::vector<BenchmarkProfile> pinned_stream_profiles() {
  std::vector<BenchmarkProfile> profiles;
  for (const BenchmarkProfile& p : paper_profiles()) {
    profiles.push_back(p.scaled(64));
  }
  for (const double wcpr : {100.0, 400.0}) {
    BenchmarkProfile coarse = grav_profile();
    coarse.work_cycles_per_ref = wcpr;
    coarse.name = "Grav-coarse" + std::to_string(static_cast<int>(wcpr));
    profiles.push_back(coarse.scaled(32));
  }
  BenchmarkProfile study = testutil::scale_study(1024, 150);
  study.name = "ScaleStudy-p1024";
  profiles.push_back(study);
  return profiles;
}

TEST(GeneratorGolden, StreamDigestsPinnedAcrossCommits) {
  std::vector<std::pair<std::string, std::string>> actual;  // key, value
  for (const std::uint64_t seed : {1, 2}) {
    for (BenchmarkProfile profile : pinned_stream_profiles()) {
      profile.seed = seed;
      trace::ProgramTrace program = make_program_trace(profile);
      std::uint64_t hash = 0xcbf29ce484222325ull;
      const auto mix = [&hash](std::uint32_t word, int bytes) {
        for (int i = 0; i < bytes; ++i) {
          hash ^= (word >> (8 * i)) & 0xffu;
          hash *= 0x100000001b3ull;
        }
      };
      std::uint64_t events = 0;
      for (auto& source : program.per_proc) {
        trace::Event e;
        while (source->next(e)) {
          mix(e.addr, 4);
          mix(e.gap, 4);
          mix(static_cast<std::uint32_t>(e.op), 1);
          ++events;
        }
      }
      char value[48];
      std::snprintf(value, sizeof value, "%llu %016llx",
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(hash));
      actual.emplace_back(profile.name + " " + std::to_string(seed), value);
    }
  }

  if (std::getenv("SYNCPAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(stream_golden_path(), std::ios::trunc);
    out << "# Generated streams: stream, seed, events, FNV-1a 64 of every "
           "processor's events.\n";
    for (const auto& [key, value] : actual) out << key << " " << value << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << stream_golden_path();
    GTEST_SKIP() << "golden digests regenerated at " << stream_golden_path()
                 << "; review and commit the diff";
  }
  std::ifstream in(stream_golden_path());
  ASSERT_TRUE(in.good()) << "missing golden digests " << stream_golden_path()
                         << " — regenerate with SYNCPAT_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ', line.find(' ') + 1);
    ASSERT_NE(space, std::string::npos) << "malformed golden line: " << line;
    expected[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(expected.size(), actual.size())
      << "the golden file lists another set of streams";
  for (const auto& [key, value] : actual) {
    const auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << "stream " << key << " is missing from "
                    << stream_golden_path();
    } else {
      EXPECT_EQ(it->second, value)
          << "stream " << key << ": generated events differ from "
          << stream_golden_path();
    }
  }
}

}  // namespace
}  // namespace syncpat::workload
