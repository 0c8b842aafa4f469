// Large-P hardening and scaling-axis tests (PR 9).
//
// Three concerns share this file because they guard the same change:
//   * the pluggable bus service disciplines and the DSM memory cost model
//     must be byte-identical across both execution engines (the fuzz render
//     string pins every field, RunningStat moments included), and the
//     stamp-aware disciplines' results at P = 256 and round-robin's at
//     P = 1024 are pinned across commits by golden digests;
//   * every fixed-size or P-indexed structure that historically broke above
//     P = 64 (private-address segments, Anderson slot rings, the generator's
//     cold-region slicing, the event queue's source bitmap) is pinned at
//     large P;
//   * report rendering at 3-digit processor counts is pinned by a golden
//     snapshot at P = 128 (regenerate with SYNCPAT_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bus/service_discipline.hpp"
#include "core/event_queue.hpp"
#include "core/invariant_checker.hpp"
#include "core/machine_config.hpp"
#include "core/results.hpp"
#include "core/simulator.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/render.hpp"
#include "obs/metrics.hpp"
#include "obs/stall_attribution.hpp"
#include "report/machine_profile.hpp"
#include "report/table.hpp"
#include "sync/anderson_lock.hpp"
#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"
#include "trace/address_map.hpp"
#include "trace/event.hpp"
#include "trace/source.hpp"
#include "util/format.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

#include "test_util.hpp"

namespace syncpat {
namespace {

workload::BenchmarkProfile profile_by_name(const std::string& name) {
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown profile " << name;
  return {};
}

std::string run_rendered(const workload::BenchmarkProfile& scaled,
                         core::MachineConfig cfg, core::EngineKind engine) {
  cfg.num_procs = scaled.num_procs;
  cfg.engine = engine;
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  core::Simulator sim(cfg, program);
  return fuzz::render_result(sim.run());
}

// ---------------------------------------------------------------------------
// Service disciplines x lock schemes x engines.
// ---------------------------------------------------------------------------

// Every scheme under every discipline, DES vs per-cycle tick.  The rendered
// string includes the discipline stats line, so a single grant awarded to a
// different port — or a grant-wait accounted differently between the
// engines — fails the comparison.
TEST(ScalingDifferential, SchemeByDisciplineMatrixByteIdenticalAcrossEngines) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Pverify").scaled(256);
  constexpr bus::DisciplineKind kDisciplines[] = {
      bus::DisciplineKind::kRoundRobin, bus::DisciplineKind::kFixedPriority,
      bus::DisciplineKind::kFcfs};
  for (const sync::SchemeKind scheme : sync::all_scheme_kinds()) {
    for (const bus::DisciplineKind discipline : kDisciplines) {
      core::MachineConfig cfg;
      cfg.lock_scheme = scheme;
      cfg.bus_discipline = discipline;
      const std::string label =
          std::string("scheme=") + sync::scheme_kind_name(scheme) +
          " discipline=" + bus::discipline_name(discipline);
      const std::string des =
          run_rendered(scaled, cfg, core::EngineKind::kDes);
      const std::string tick =
          run_rendered(scaled, cfg, core::EngineKind::kTick);
      EXPECT_EQ(des, tick) << "engines diverged: " << label;
      EXPECT_NE(des.find("discipline=" +
                         std::string(bus::discipline_name(discipline))),
                std::string::npos)
          << "result must carry the discipline stats: " << label;
    }
  }
}

// The disciplines must actually differ observably — if fixed-priority or
// FCFS rendered identically to round-robin on a contended workload, the
// matrix above would be vacuously green.
TEST(ScalingDifferential, DisciplinesProduceDistinctSchedules) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Pverify").scaled(256);
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  std::set<std::string> rendered;
  for (const bus::DisciplineKind discipline :
       {bus::DisciplineKind::kRoundRobin, bus::DisciplineKind::kFixedPriority,
        bus::DisciplineKind::kFcfs}) {
    cfg.bus_discipline = discipline;
    rendered.insert(run_rendered(scaled, cfg, core::EngineKind::kDes));
  }
  EXPECT_EQ(rendered.size(), 3u)
      << "at least two service disciplines produced identical runs";
}

// Pure priority arbitration used to starve a plain test&set releaser: the
// spinners' forced ReadX retries always outranked a lower-priority holder's
// release write, and this fuzz-discovered case (seed 24245, case 3)
// livelocked past any cycle budget under fixed-priority.  The discipline's
// aging escape now bounds the inversion — the release write jumps the chain
// after kStarvationEscapeCycles — so the case must complete under all three
// disciplines with metrics conserved, while fixed-priority still pays a
// visibly worse grant wait than the fair disciplines (the skew the
// discipline exists to model).
TEST(ScalingDifferential, FixedPriorityCompletesPlainTasWithBoundedWaits) {
  const char* kCase =
      "syncpat-fuzz-case 1\n"
      "index 3\nmaster_seed 24245\nnum_procs 4\nline_bytes 32\n"
      "associativity 2\nsets_log2 6\nbus_bytes 16\nbuffer_depth 2\n"
      "mem_cycles 4\nmem_in_depth 3\nmem_out_depth 4\nconsistency weak\n"
      "write_policy write-back\nscheme tas\n"
      "workload_seed 7473890154644941879\nrefs_per_proc 2316\n"
      "data_ref_fraction 0x1.08p-1\nwork_cycles_per_ref 0x1.7fp+1\n"
      "private_fraction 0x1.32p-1\nwrite_fraction 0x1.4cp-2\n"
      "shared_rerefs 0x1.60ccccccccccdp-1\nshared_affinity 0x1.0ep-2\n"
      "cold_fraction 0x0p+0\nlock_pairs 52\nnested_pairs 11\n"
      "cs_work_cycles 0x1.57fcp+7\nnum_locks 5\ndominant_weight 0x1.e8p-1\n"
      "cs_region_bias 0x1.b8cccccccccccp-1\nshort_fraction 0x0p+0\n"
      "partitioned 0\nbarriers 0\nbus_discipline fixed-priority\n"
      "mem_model bus\ndsm_nodes 4\ndsm_remote_cycles 20\n";
  const fuzz::FuzzCase c = fuzz::FuzzCase::from_text(kCase);
  trace::ProgramTrace program = workload::make_program_trace(c.profile());

  // A returning livelock would stop at the progress watchdog; the escape
  // keeps the run well inside 2 M cycles.
  core::Simulator fp_sim(c.machine_config(), program);
  const core::SimulationResult fp_r = fp_sim.run();
  EXPECT_GT(fp_r.locks.acquisitions, 0u);
  EXPECT_LT(fp_r.run_time, 2'000'000u)
      << "aging escape must drain the starved release write";
  // The starvation is real (someone waited into the escape window), and the
  // escape bounds it: only the single oldest request is promoted per round,
  // so a request behind a chain of even-older starvers can wait a few
  // multiples of the bound — but never unboundedly (observed worst here is
  // ~2x the bound).
  EXPECT_GE(fp_r.discipline.max_grant_wait,
            bus::FixedPriorityDiscipline::kStarvationEscapeCycles);
  EXPECT_LT(fp_r.discipline.max_grant_wait,
            4 * bus::FixedPriorityDiscipline::kStarvationEscapeCycles);

  for (const bus::DisciplineKind fair :
       {bus::DisciplineKind::kRoundRobin, bus::DisciplineKind::kFcfs}) {
    core::MachineConfig cfg = c.machine_config();
    cfg.bus_discipline = fair;
    core::Simulator sim(cfg, program);
    const core::SimulationResult r = sim.run();
    EXPECT_LT(r.run_time, 2'000'000u) << bus::discipline_name(fair);
    EXPECT_GT(r.locks.acquisitions, 0u)
        << bus::discipline_name(fair) << " should complete the workload";
    // Same program, same machine: the workload's lock behaviour is conserved
    // across disciplines even though the schedules differ.
    EXPECT_EQ(r.locks.acquisitions, fp_r.locks.acquisitions);
    // Fixed priority pays for the starvation it models: its worst grant wait
    // dwarfs the fair disciplines'.
    EXPECT_GT(fp_r.discipline.max_grant_wait,
              4 * r.discipline.max_grant_wait)
        << bus::discipline_name(fair);
  }
}

// ---------------------------------------------------------------------------
// DSM memory model.
// ---------------------------------------------------------------------------

TEST(ScalingDifferential, DsmModelByteIdenticalAcrossEngines) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Pverify").scaled(256);
  for (const std::uint32_t nodes : {2u, 4u}) {
    core::MachineConfig cfg;
    cfg.lock_scheme = sync::SchemeKind::kQueuing;
    cfg.model = core::MemModelKind::kDsm;
    cfg.dsm.nodes = nodes;
    cfg.dsm.remote_access_cycles = 17;
    const std::string des = run_rendered(scaled, cfg, core::EngineKind::kDes);
    const std::string tick = run_rendered(scaled, cfg, core::EngineKind::kTick);
    EXPECT_EQ(des, tick) << "engines diverged under dsm with " << nodes
                         << " nodes";
  }
}

// A single-node DSM machine has no remote accesses at all, so it must be
// byte-identical to the uniform bus model — the cost overlay is exactly the
// remote penalty and nothing else.
TEST(ScalingDifferential, SingleNodeDsmDegeneratesToBusModel) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Pverify").scaled(256);
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  const std::string bus_model = run_rendered(scaled, cfg, core::EngineKind::kDes);
  cfg.model = core::MemModelKind::kDsm;
  cfg.dsm.nodes = 1;
  cfg.dsm.remote_access_cycles = 500;  // must never be charged
  const std::string dsm_model = run_rendered(scaled, cfg, core::EngineKind::kDes);
  EXPECT_EQ(bus_model, dsm_model);
}

// Multi-node DSM must charge remote-access stall cycles, attribute them to
// the dedicated category, and keep the attribution ledger exact (every
// processor cycle in exactly one category).
TEST(ScalingDifferential, DsmChargesAndConservesRemoteAccessStalls) {
  workload::BenchmarkProfile scaled = profile_by_name("Pverify").scaled(256);
  core::MachineConfig cfg;
  cfg.num_procs = scaled.num_procs;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.model = core::MemModelKind::kDsm;
  cfg.dsm.nodes = 2;
  cfg.dsm.remote_access_cycles = 25;
  cfg.metrics.enabled = true;
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  std::uint64_t remote = 0;
  for (std::uint32_t p = 0; p < m->num_procs(); ++p) {
    remote += m->ledger(p).of(obs::StallCat::kRemoteAccess);
    EXPECT_EQ(m->ledger(p).total(), r.per_proc[p].completion_cycle)
        << "attribution ledger must stay exact under dsm, proc " << p;
  }
  EXPECT_GT(remote, 0u) << "a 2-node machine must see remote accesses";
}

// ---------------------------------------------------------------------------
// Name parsing behind --bus-discipline / --model.
// ---------------------------------------------------------------------------

TEST(ScalingDifferential, MalformedDisciplineAndModelValuesAreRejected) {
  for (const char* junk : {"priority", "", "FCFS"}) {
    EXPECT_THROW((void)bus::discipline_from_name(junk), std::invalid_argument)
        << '"' << junk << '"';
  }
  for (const char* junk : {"numa", "", "DSM"}) {
    EXPECT_THROW((void)core::mem_model_from_name(junk), std::invalid_argument)
        << '"' << junk << '"';
  }
  EXPECT_EQ(bus::discipline_from_name("fcfs"), bus::DisciplineKind::kFcfs);
  EXPECT_EQ(core::mem_model_from_name("dsm"), core::MemModelKind::kDsm);
}

// ---------------------------------------------------------------------------
// Large-P pinning: the structures that broke (or silently aliased) above 64.
// ---------------------------------------------------------------------------

// Private addresses must round-trip owner identity for every processor up to
// the 4096 cap, and processors below 64 must keep their exact historical
// layout (16 MiB contiguous segments) so all committed goldens stand.
TEST(LargeP, PrivateAddressInterleaveRoundTrips) {
  using trace::AddressMap;
  for (const std::uint32_t proc :
       {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1023u, 1024u, 4095u}) {
    const std::uint32_t sub_cap = AddressMap::kPrivateSubSegment;
    for (const std::uint32_t offset : {0u, 64u, sub_cap - 64u}) {
      const std::uint32_t addr = AddressMap::private_addr(proc, offset);
      EXPECT_EQ(AddressMap::classify(addr), trace::Region::kPrivate)
          << "proc " << proc << " offset " << offset;
      EXPECT_EQ(AddressMap::private_owner(addr), proc)
          << "proc " << proc << " offset " << offset;
    }
  }
  // Historical identity below 64.
  for (const std::uint32_t proc : {0u, 7u, 63u}) {
    EXPECT_EQ(AddressMap::private_addr(proc, 12345u),
              AddressMap::kPrivateBase + proc * AddressMap::kPrivateSegment +
                  12345u);
  }
  // Distinctness across the macro/sub seam: proc 64's slice must not collide
  // with proc 0's historical addresses at the same offset.
  EXPECT_NE(AddressMap::private_addr(64, 0), AddressMap::private_addr(0, 0));
  EXPECT_EQ(AddressMap::private_addr(64, 0),
            AddressMap::kPrivateBase + AddressMap::kPrivateSubSegment);
}

// Minimal SchemeServices: the Anderson address-layout tests only consult
// num_procs().
class StubServices final : public sync::SchemeServices {
 public:
  explicit StubServices(std::uint32_t procs) : procs_(procs) {}
  [[nodiscard]] std::uint64_t now() const override { return 0; }
  [[nodiscard]] std::uint32_t num_procs() const override { return procs_; }
  void issue_lock_txn(std::uint32_t, std::uint32_t, bus::TxnKind,
                      bus::StallCause, bool, std::uint8_t) override {}
  void issue_handoff(std::uint32_t, std::uint32_t) override {}
  [[nodiscard]] cache::LineState line_state(std::uint32_t,
                                            std::uint32_t) const override {
    return cache::LineState::kInvalid;
  }
  void proc_wait(std::uint32_t, bool, std::uint32_t) override {}
  void proc_acquired(std::uint32_t) override {}
  void proc_release_done(std::uint32_t) override {}
  void schedule_timer(std::uint32_t, std::uint32_t, std::uint64_t) override {}

 private:
  std::uint32_t procs_;
};

// Anderson's slot ring historically aliased above 64 waiters (ticket % 64 on
// a 64-line array): two spinners on one line, one wakeup lost.  The ring now
// widens with the machine; every slot of every waiter must map to a distinct
// cache line, and the P <= 64 layout must stay bit-identical to the
// historical addresses.
TEST(LargeP, AndersonSlotRingsAreDistinctAtP1024) {
  StubServices services(1024);
  sync::LockStatsCollector stats;
  sync::AndersonLock lock(services, stats);
  EXPECT_EQ(lock.slot_ring_size(), 1024u);

  const std::uint32_t lock_line = trace::AddressMap::lock_addr(0);
  std::set<std::uint32_t> lines;
  for (std::uint32_t slot = 0; slot < 1024; ++slot) {
    const std::uint32_t line = lock.slot_line(lock_line, slot);
    EXPECT_TRUE(lines.insert(line).second)
        << "slot " << slot << " aliases another slot's cache line";
    EXPECT_EQ(line % 64u, 0u) << "slots must stay cache-line aligned";
  }
  // A second lock's ring must not overlap the first's.
  const std::uint32_t other = lock.slot_line(trace::AddressMap::lock_addr(1), 0);
  EXPECT_EQ(lines.count(other), 0u);
}

TEST(LargeP, AndersonSlotRingKeepsHistoricalLayoutThrough64) {
  StubServices services(64);
  sync::LockStatsCollector stats;
  sync::AndersonLock lock(services, stats);
  EXPECT_EQ(lock.slot_ring_size(), 64u);
  const std::uint32_t lock_line = trace::AddressMap::lock_addr(3);
  for (std::uint32_t slot = 0; slot < 64; ++slot) {
    EXPECT_EQ(lock.slot_line(lock_line, slot),
              trace::AddressMap::kLockBase + (1u << 24) + 3u * (64u * 64u) +
                  slot * 64u);
  }
}

// The generator's cold region historically offset each processor by the full
// per-proc cold budget, overflowing the shared segment around P = 448 (and
// crashing in shared_addr).  Slices now clamp to the region; at P = 1024
// every cold reference must still land in shared data.
TEST(LargeP, GeneratorColdSlicesStayInSharedRegionAtP1024) {
  workload::BenchmarkProfile p = profile_by_name("Grav");
  p.num_procs = 1024;
  p.refs_per_proc = 40;
  p.locality.cold_fraction = 0.4;
  p.locking.pairs_per_proc = 0;
  p.locking.barriers_per_proc = 0;
  for (const std::uint32_t proc : {0u, 63u, 512u, 1023u}) {
    workload::ProfileTraceSource source(p, proc);
    trace::Event e;
    std::uint32_t data_refs = 0;
    while (source.next(e)) {
      if (trace::is_data_ref(e.op)) {
        ++data_refs;
        const trace::Region r = trace::AddressMap::classify(e.addr);
        EXPECT_TRUE(r == trace::Region::kPrivate || r == trace::Region::kShared)
            << "proc " << proc << " emitted a data ref outside data regions";
      }
    }
    EXPECT_GT(data_refs, 0u);
  }
}

TEST(LargeP, EventQueueHandles1024Sources) {
  core::EventQueue q(1024);
  // Schedule in reverse so pops must re-sort, crossing word boundaries of
  // the source bitmap (1024 sources = 16 occupancy words).
  for (std::uint32_t s = 0; s < 1024; ++s) {
    q.schedule(s, 10'000u - s);
  }
  EXPECT_EQ(q.size(), 1024u);
  EXPECT_EQ(q.min_key(), 10'000u - 1023u);
  EXPECT_EQ(q.min_source(), 1023u);
  std::uint64_t last = 0;
  std::uint32_t popped = 0;
  std::array<std::uint64_t, 16> words{};  // 1024 sources = 16 bitmap words
  while (!q.empty()) {
    const std::uint64_t k = q.min_key();
    EXPECT_GE(k, last);
    last = k;
    q.set_floor(k);
    words.fill(0);
    q.take_due(k, words.data());
    std::uint32_t taken = 0;
    for (const std::uint64_t w : words) {
      taken += static_cast<std::uint32_t>(std::popcount(w));
    }
    EXPECT_EQ(taken, 1u) << "keys are unique, so each drain pops one source";
    popped += taken;
  }
  EXPECT_EQ(popped, 1024u);
}

// ---------------------------------------------------------------------------
// Snoop filter and ready-port arbitration: host bookkeeping that makes an
// event's cost independent of P and must leave every result unchanged.
// ---------------------------------------------------------------------------

// Outside a buffered-write-back fallback, snoop_others() visits only caches
// that hold the line: it probes each one, or, for a read with two or more
// other holders, credits each its supply from the directory.  So every visit
// finds the line and books exactly one supply or received invalidation, and
// visits per snooping transaction are its holders, not P - 1.
TEST(SnoopFilter, EveryProbeFindsTheLineAtP256) {
  constexpr std::uint32_t kProcs = 256;
  trace::ProgramTrace program =
      workload::make_program_trace(testutil::scale_study(kProcs, 150));
  core::MachineConfig cfg;
  cfg.num_procs = kProcs;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const core::SnoopStats& snoops = sim.snoop_stats();
  std::uint64_t found = 0;
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    const cache::CacheStats& cs = sim.cache_of(p).stats();
    found += cs.supplies + cs.invalidations_received;
  }
  ASSERT_EQ(snoops.writeback_fallbacks, 0u)
      << "the profile no longer avoids the fallback; pick one that does";
  EXPECT_EQ(snoops.probes + snoops.directory_credits, found);
  EXPECT_GT(snoops.probes, 0u);
  EXPECT_GT(snoops.directory_credits, 0u);
  const std::uint64_t snooping = r.traffic.reads + r.traffic.readx +
                                 r.traffic.upgrades + r.traffic.write_throughs;
  EXPECT_GT(snooping, 0u);
  // Broadcast snooping would have probed (P - 1) caches per transaction.
  EXPECT_LT(found, snooping * (kProcs - 1) / 10);
}

// Each cache builds line storage only for the blocks of sets it fills, so
// the machine's total at P = 1024 is a deterministic count far below the
// eager P x 4,096 lines.  A return to eager allocation fails here.
TEST(CacheStorage, BuildsOnlyTheBlocksItFillsAtP1024) {
  constexpr std::uint32_t kProcs = 1024;
  core::MachineConfig cfg;
  cfg.num_procs = kProcs;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  EXPECT_EQ(cache::Cache(cfg.cache).built_lines(), 0u);
  trace::ProgramTrace program =
      workload::make_program_trace(testutil::scale_study(kProcs, 150));
  core::Simulator sim(cfg, program);
  (void)sim.run();
  std::uint64_t built = 0;
  for (std::uint32_t p = 0; p < kProcs; ++p) built += sim.cache_of(p).built_lines();
  const std::uint64_t eager = std::uint64_t{kProcs} *
                              cfg.cache.num_sets() * cfg.cache.associativity;
  EXPECT_EQ(built, 894'624u);  // 27.3 blocks of 16 sets per processor
  EXPECT_LT(built, eager / 2);
}

/// Every cache's ten CacheStats counters, one line per cache in id order.
std::string render_cache_stats(const core::Simulator& sim) {
  std::string out;
  for (std::uint32_t p = 0; p < sim.num_procs(); ++p) {
    const cache::CacheStats& s = sim.cache_of(p).stats();
    for (const std::uint64_t n :
         {s.ifetch_hits, s.ifetch_misses, s.read_hits, s.read_misses,
          s.write_hits, s.write_misses, s.upgrades, s.writebacks,
          s.invalidations_received, s.supplies}) {
      out += std::to_string(n);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

/// Runs `profile` on DES with the invariant checker attached (it
/// cross-checks the holder directory) and on per-cycle ticking, under every
/// discipline and both consistency models; the renders, every cache's
/// statistics and the snoop counts must match and the checker must stay
/// clean.  Returns the DES runs' write-back fallbacks.
std::uint64_t expect_des_matches_tick(const workload::BenchmarkProfile& profile,
                                      core::MachineConfig cfg) {
  std::uint64_t fallbacks = 0;
  for (const bus::DisciplineKind discipline :
       {bus::DisciplineKind::kRoundRobin, bus::DisciplineKind::kFixedPriority,
        bus::DisciplineKind::kFcfs}) {
    for (const bus::ConsistencyModel model :
         {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
      cfg.num_procs = profile.num_procs;
      cfg.bus_discipline = discipline;
      cfg.consistency = model;
      const std::string label = std::string(bus::discipline_name(discipline)) +
                                "/" + bus::consistency_name(model);
      cfg.engine = core::EngineKind::kTick;
      trace::ProgramTrace tick_program = workload::make_program_trace(profile);
      core::Simulator tick_sim(cfg, tick_program);
      const std::string tick = fuzz::render_result(tick_sim.run());
      core::MachineConfig checked = cfg;
      checked.engine = core::EngineKind::kDes;
      checked.invariants.enabled = true;
      trace::ProgramTrace program = workload::make_program_trace(profile);
      core::Simulator sim(checked, program);
      EXPECT_EQ(fuzz::render_result(sim.run()), tick)
          << "engines diverged: " << label;
      // Both engines arbitrate on the same cycles, over the same ports.
      const core::ArbitrationStats& des_arb = sim.arbitration_stats();
      const core::ArbitrationStats& tick_arb = tick_sim.arbitration_stats();
      EXPECT_EQ(des_arb.rounds, tick_arb.rounds) << label;
      EXPECT_EQ(des_arb.offers, tick_arb.offers) << label;
      EXPECT_EQ(des_arb.refusals, tick_arb.refusals) << label;
      EXPECT_GT(des_arb.rounds, 0u) << label;
      // Both engines make the same snoops, and every supply a directory
      // answer owes is booked by the end of either run.
      EXPECT_EQ(render_cache_stats(sim), render_cache_stats(tick_sim)) << label;
      const core::SnoopStats& des_snoops = sim.snoop_stats();
      const core::SnoopStats& tick_snoops = tick_sim.snoop_stats();
      EXPECT_EQ(des_snoops.probes, tick_snoops.probes) << label;
      EXPECT_EQ(des_snoops.directory_credits, tick_snoops.directory_credits)
          << label;
      EXPECT_EQ(des_snoops.writeback_fallbacks, tick_snoops.writeback_fallbacks)
          << label;
      const core::InvariantChecker& checker = *sim.invariant_checker();
      EXPECT_TRUE(checker.ok())
          << label << ": " << checker.violation_count()
          << " violations, first: "
          << (checker.violations().empty() ? "" : checker.violations()[0]);
      fallbacks += sim.snoop_stats().writeback_fallbacks;
    }
  }
  return fallbacks;
}

// P = 130 spreads the holder masks over three words and the ready set over
// three (ports 0-130, memory at 130), each with a partial last word.
TEST(SnoopFilter, DesMatchesTickAtP130UnderEveryDiscipline) {
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.cache.size_bytes = 256;  // evicts constantly: holders come and go
  expect_des_matches_tick(testutil::scale_study(130, 30), cfg);
}

// A snoop that finds a write-back of its line still buffered visits every
// processor, as the bus does.  A 256-byte cache makes Grav evict shared
// dirty lines constantly, and reads bypassing buffered write-backs under
// weak ordering leave them queued long enough to be snooped.
TEST(SnoopFilter, WritebackFallbackMatchesTick) {
  core::MachineConfig cfg;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.cache.size_bytes = 256;
  EXPECT_GT(expect_des_matches_tick(profile_by_name("Grav").scaled(64), cfg),
            0u)
      << "no run exercised the write-back fallback";
}

// ---------------------------------------------------------------------------
// Large-P results pinned across commits: golden digests.
// ---------------------------------------------------------------------------

using CellDigests = std::vector<std::pair<std::string, std::string>>;

/// The FNV-1a 64 hash of a rendered result, as the golden files spell it.
std::string render_digest(const std::string& rendered) {
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(testutil::fnv1a64(rendered)));
  return digest;
}

/// Checks every (cell label, digest) in `actual` against the golden file
/// `name`, whose lines with a label starting with `section` must list
/// exactly those cells (every line, for the default empty section).  With
/// SYNCPAT_UPDATE_GOLDEN set it rewrites that section in place under
/// `header` instead, keeping the file's other lines, and skips.
void expect_golden_digests(const std::string& name, const std::string& header,
                           const CellDigests& actual,
                           const std::string& section = "") {
  const std::string path = std::string(SYNCPAT_GOLDEN_DIR) + "/" + name;
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  if (std::getenv("SYNCPAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << "# " << header << "\n";
    bool written = false;
    const auto write_section = [&] {
      for (const auto& [label, digest] : actual) {
        out << label << " " << digest << "\n";
      }
      written = true;
    };
    for (const std::string& line : lines) {
      if (!line.starts_with(section)) {
        out << line << "\n";
      } else if (!written) {
        write_section();
      }
    }
    if (!written) write_section();
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "golden digests regenerated at " << path
                 << "; review and commit the diff";
  }
  ASSERT_FALSE(lines.empty()) << "missing golden digests " << path
                              << " — regenerate with SYNCPAT_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> expected;
  for (const std::string& line : lines) {
    if (!line.starts_with(section)) continue;
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << "malformed golden line: " << line;
    expected[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(expected.size(), actual.size())
      << "the golden file lists another set of cells";
  for (const auto& [label, digest] : actual) {
    const auto it = expected.find(label);
    if (it == expected.end()) {
      ADD_FAILURE() << "cell " << label << " is missing from " << path;
    } else {
      EXPECT_EQ(it->second, digest)
          << "cell " << label << ": simulated result differs from " << path;
    }
  }
}

// The golden cells' caches, pinned beside their results: one file, a section
// per golden test (labels prefixed with the processor count), each line the
// FNV-1a 64 hash of render_cache_stats, so a change to how the caches keep
// LRU order or book supplies cannot move one counter unseen.  Regenerate the
// two sections together, like the result digests:
// --gtest_filter='StampDisciplineGolden.*:RoundRobinGolden.*'.
constexpr const char* kCacheStatsGolden = "cache_stats.txt";
constexpr const char* kCacheStatsHeader =
    "Golden cells of StampDisciplineGolden (p256/) and RoundRobinGolden "
    "(p1024/): cell, FNV-1a 64 of every cache's ten CacheStats counters in id "
    "order.";

// Both engines call the same arbitrate(), so the DES/tick differentials
// cannot see a change in who wins the bus, and the fuzzer draws P <= 128.
// These cells pin the FCFS and fixed-priority grant orders at P = 256: each
// golden line is a cell label and the FNV-1a 64 hash of its
// fuzz::render_result string.  Regenerate with SYNCPAT_UPDATE_GOLDEN=1 and
// --gtest_filter='StampDisciplineGolden.*', in a commit that leaves src/bus/
// and the simulator's arbiter alone.
TEST(StampDisciplineGolden, RenderDigestsPinnedAcrossCommits) {
  const workload::BenchmarkProfile profile = testutil::scale_study(256, 150);
  CellDigests actual;
  CellDigests caches;
  for (const bus::DisciplineKind discipline :
       {bus::DisciplineKind::kFcfs, bus::DisciplineKind::kFixedPriority}) {
    for (const sync::SchemeKind scheme :
         {sync::SchemeKind::kTtas, sync::SchemeKind::kQueuing}) {
      for (const bus::ConsistencyModel model :
           {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
        core::MachineConfig cfg;
        cfg.num_procs = profile.num_procs;
        cfg.bus_discipline = discipline;
        cfg.lock_scheme = scheme;
        cfg.consistency = model;
        const std::string label =
            std::string(bus::discipline_name(discipline)) + "/" +
            sync::scheme_kind_name(scheme) + "/" + bus::consistency_name(model);
        trace::ProgramTrace program = workload::make_program_trace(profile);
        core::Simulator sim(cfg, program);
        actual.emplace_back(label,
                            render_digest(fuzz::render_result(sim.run())));
        caches.emplace_back("p256/" + label,
                            render_digest(render_cache_stats(sim)));
      }
    }
  }
  expect_golden_digests(
      "stamp_disciplines_p256.txt",
      "ScaleStudy P=256, 150 refs: cell, FNV-1a 64 of render_result.", actual);
  expect_golden_digests(kCacheStatsGolden, kCacheStatsHeader, caches, "p256/");
}

// No other tier-1 test pins a result above P = 256, and the fuzzer draws
// P <= 128.  These two round-robin cells pin the P = 1024 ScaleStudy under
// ttas and queuing, with the invariant checker attached: they are the
// checked runs whose lines gather dozens of Shared holders, the premise of
// answering a read snoop from the holder directory, which must answer most
// holder visits here (the counts are exact).  Regenerate with
// SYNCPAT_UPDATE_GOLDEN=1 and --gtest_filter='RoundRobinGolden.*', only in a
// commit that changes no simulated result on purpose.
TEST(RoundRobinGolden, ScaleStudyP1024DigestsPinnedAcrossCommits) {
  constexpr std::uint32_t kProcs = 1024;
  const workload::BenchmarkProfile profile = testutil::scale_study(kProcs, 150);
  CellDigests actual;
  CellDigests caches;
  for (const sync::SchemeKind scheme :
       {sync::SchemeKind::kTtas, sync::SchemeKind::kQueuing}) {
    const std::string label = std::string("round-robin/") +
                              sync::scheme_kind_name(scheme) + "/sequential";
    core::MachineConfig cfg;
    cfg.num_procs = kProcs;
    cfg.lock_scheme = scheme;
    cfg.invariants.enabled = true;
    trace::ProgramTrace program = workload::make_program_trace(profile);
    core::Simulator sim(cfg, program);
    actual.emplace_back(label, render_digest(fuzz::render_result(sim.run())));
    caches.emplace_back("p1024/" + label,
                        render_digest(render_cache_stats(sim)));
    const core::InvariantChecker& checker = *sim.invariant_checker();
    EXPECT_GT(checker.checks(), 0u) << label;
    EXPECT_TRUE(checker.ok())
        << label << ": " << checker.violation_count()
        << " violations, first: "
        << (checker.violations().empty() ? "" : checker.violations()[0]);
    // Every holder visit books one supply or received invalidation.
    std::uint64_t visits = 0;
    for (std::uint32_t p = 0; p < kProcs; ++p) {
      const cache::CacheStats& cs = sim.cache_of(p).stats();
      visits += cs.supplies + cs.invalidations_received;
    }
    EXPECT_GE(sim.snoop_stats().directory_credits * 10, visits * 9)
        << label << ": the directory answered "
        << sim.snoop_stats().directory_credits << " of " << visits
        << " holder visits";
  }
  expect_golden_digests(
      "round_robin_p1024.txt",
      "ScaleStudy P=1024, 150 refs, round-robin, checked: cell, FNV-1a 64 of "
      "render_result.",
      actual);
  expect_golden_digests(kCacheStatsGolden, kCacheStatsHeader, caches,
                        "p1024/");
}

// ---------------------------------------------------------------------------
// Report rendering at 3-digit P: golden snapshot.
// ---------------------------------------------------------------------------

std::string report_golden_path() {
  return std::string(SYNCPAT_GOLDEN_DIR) + "/report_p128.txt";
}

class ReportAtP128 : public ::testing::TestWithParam<core::EngineKind> {};

INSTANTIATE_TEST_SUITE_P(Engines, ReportAtP128,
                         ::testing::Values(core::EngineKind::kDes,
                                           core::EngineKind::kTick),
                         [](const auto& info) {
                           return std::string(core::engine_name(info.param));
                         });

// One golden file, both engines: the summary table and the machine-profile
// sections rendered at P = 128, where processor counts, waiter counts, and
// comma-grouped cycle totals all need 3+ digit columns.  Any layout drift
// (column widths, comma grouping, truncated counts) or simulation drift
// fails the byte comparison.
TEST_P(ReportAtP128, RenderingSnapshot) {
  workload::BenchmarkProfile p = profile_by_name("Pverify").scaled(4096);
  p.num_procs = 128;
  p.locking.pairs_per_proc = 3;  // scaling dropped the pairs to zero; the
                                 // snapshot must exercise the lock columns
  core::MachineConfig cfg;
  cfg.num_procs = 128;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.engine = GetParam();
  cfg.metrics.enabled = true;

  trace::ProgramTrace program = workload::make_program_trace(p);
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();

  std::ostringstream out;
  report::Table t("syncpat: " + r.program + " on " + r.scheme + " @ P=128");
  t.columns({"Metric", "Value"});
  t.add_row({"processors", std::to_string(r.num_procs)});
  t.add_row({"run-time (cycles)", util::with_commas(r.run_time)});
  t.add_row({"lock acquisitions", util::with_commas(r.locks.acquisitions)});
  t.add_row({"waiters at transfer",
             util::fixed(r.locks.waiters_at_transfer.mean(), 2)});
  t.add_row({"bus utilization %", util::percent(r.bus_utilization, 1)});
  t.print(out);
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  const obs::MetricsMeta meta{r.program, r.scheme, r.consistency, r.num_procs,
                              r.run_time};
  report::machine_profile_cycles(*m, meta).print(out);
  report::machine_profile_locks(*m).print(out);
  report::machine_profile_bus(*m, meta).print(out);
  const std::string actual = out.str();

  if (std::getenv("SYNCPAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(report_golden_path(), std::ios::trunc);
    ASSERT_TRUE(f.good()) << "cannot write " << report_golden_path();
    f << actual;
    GTEST_SKIP() << "golden snapshot regenerated at " << report_golden_path()
                 << "; review and commit the diff";
  }
  std::ifstream in(report_golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << report_golden_path()
      << " — regenerate with SYNCPAT_UPDATE_GOLDEN=1 (see EXPERIMENTS.md)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "P=128 report rendering drifted from the committed snapshot; if "
         "intentional, regenerate with SYNCPAT_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace syncpat
