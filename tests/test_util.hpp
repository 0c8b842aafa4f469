// Shared helpers for the syncpat test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "trace/address_map.hpp"
#include "trace/analyzer.hpp"
#include "trace/source.hpp"
#include "workload/profile.hpp"

namespace syncpat::testutil {

using trace::Event;
using trace::Op;

/// Shorthand event constructors.
inline Event load(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kLoad};
}
inline Event store(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kStore};
}
inline Event ifetch(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kIFetch};
}
inline Event lock_acq(std::uint32_t lock_id, std::uint32_t gap = 1) {
  return Event{trace::AddressMap::lock_addr(lock_id), gap, Op::kLockAcq};
}
inline Event lock_rel(std::uint32_t lock_id, std::uint32_t gap = 1) {
  return Event{trace::AddressMap::lock_addr(lock_id), gap, Op::kLockRel};
}

/// Builds a ProgramTrace from per-processor event lists.
inline trace::ProgramTrace make_program(
    std::vector<std::vector<Event>> per_proc, std::string name = "test") {
  trace::ProgramTrace program;
  program.name = std::move(name);
  for (auto& events : per_proc) {
    program.per_proc.push_back(
        std::make_unique<trace::VectorTraceSource>(std::move(events)));
  }
  return program;
}

/// Runs a program on the given config and returns the results.
inline core::SimulationResult simulate(core::MachineConfig config,
                                       trace::ProgramTrace& program) {
  config.num_procs = static_cast<std::uint32_t>(program.num_procs());
  core::Simulator sim(config, program);
  return sim.run();
}

/// Default machine with a chosen lock scheme / consistency model.
inline core::MachineConfig machine(
    sync::SchemeKind scheme = sync::SchemeKind::kQueuing,
    bus::ConsistencyModel model = bus::ConsistencyModel::kSequential) {
  core::MachineConfig config;
  config.lock_scheme = scheme;
  config.consistency = model;
  return config;
}

/// Addresses in distinct regions for coherence tests: shared lines 64 bytes
/// apart (never in the same 16-byte line).
inline std::uint32_t shared_line(std::uint32_t i) {
  return trace::AddressMap::shared_addr(i * 64);
}

/// Expects equal ideal statistics: name, processor count and every field of
/// every processor.
inline void expect_same_ideal(const trace::IdealProgramStats& got,
                              const trace::IdealProgramStats& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.num_procs, want.num_procs);
  ASSERT_EQ(got.per_proc.size(), want.per_proc.size());
  for (std::size_t p = 0; p < got.per_proc.size(); ++p) {
    SCOPED_TRACE("processor " + std::to_string(p));
    const trace::IdealProcStats& a = got.per_proc[p];
    const trace::IdealProcStats& b = want.per_proc[p];
    EXPECT_EQ(a.work_cycles, b.work_cycles);
    EXPECT_EQ(a.refs_all, b.refs_all);
    EXPECT_EQ(a.refs_data, b.refs_data);
    EXPECT_EQ(a.refs_shared, b.refs_shared);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.shared_stores, b.shared_stores);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.lock_pairs, b.lock_pairs);
    EXPECT_EQ(a.nested_pairs, b.nested_pairs);
    EXPECT_EQ(a.held_cycles, b.held_cycles);
    EXPECT_EQ(a.pair_hold_cycles, b.pair_hold_cycles);
  }
}

/// bench_scaling's contended weak-scaling workload (two shared locks, 90 %
/// on the dominant one, one closing barrier), at `refs` references.
inline workload::BenchmarkProfile scale_study(std::uint32_t procs,
                                              std::uint64_t refs) {
  workload::BenchmarkProfile p;
  p.name = "ScaleStudy";
  p.num_procs = procs;
  p.refs_per_proc = refs;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 3.0;
  p.locking.pairs_per_proc = 2;
  p.locking.cs_work_cycles = 30.0;
  p.locking.num_locks = 2;
  p.locking.dominant_weight = 0.9;
  p.locking.partitioned = false;
  p.locking.cs_region_bias = 0.8;
  p.locking.barriers_per_proc = 1;
  p.seed = 0x5ca1e;
  return p;
}

/// FNV-1a 64 hash of `bytes`: the digest the golden files pin.
inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// A directory owned by the running test, "<TempDir>/<suite>.<test>",
/// created on first use.  ctest runs tests in parallel, so a fixed file name
/// directly under ::testing::TempDir() is shared by every test that writes
/// it; all test files go through here instead (the no-shared-tempdir ctest
/// rejects direct TempDir() calls in tests/*.cpp).
inline std::string test_temp_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized suites and tests
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace syncpat::testutil
