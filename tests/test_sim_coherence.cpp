// Illinois-protocol behaviour through the full machine.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "test_util.hpp"

namespace syncpat::core {
namespace {

using namespace testutil;
using cache::LineState;

// Helper: build and step a simulator until all processors finish.
struct Harness {
  explicit Harness(std::vector<std::vector<trace::Event>> traces)
      : program(make_program(std::move(traces))) {
    config = machine();
    config.num_procs = static_cast<std::uint32_t>(program.num_procs());
    sim = std::make_unique<Simulator>(config, program);
  }
  void run() {
    while (!sim->all_done()) sim->step();
  }
  trace::ProgramTrace program;
  MachineConfig config;
  std::unique_ptr<Simulator> sim;
};

TEST(SimCoherence, SoleReaderInstallsExclusive) {
  Harness h({{load(shared_line(0), 1)}});
  h.run();
  EXPECT_EQ(h.sim->cache_of(0).state(shared_line(0)), LineState::kExclusive);
}

TEST(SimCoherence, SecondReaderMakesBothShared) {
  Harness h({
      {load(shared_line(0), 1)},
      {load(shared_line(0), 30)},
  });
  h.run();
  EXPECT_EQ(h.sim->cache_of(0).state(shared_line(0)), LineState::kShared);
  EXPECT_EQ(h.sim->cache_of(1).state(shared_line(0)), LineState::kShared);
}

TEST(SimCoherence, WriterInvalidatesReaders) {
  Harness h({
      {load(shared_line(0), 1)},
      {store(shared_line(0), 30)},
  });
  h.run();
  EXPECT_EQ(h.sim->cache_of(0).state(shared_line(0)), LineState::kInvalid);
  EXPECT_EQ(h.sim->cache_of(1).state(shared_line(0)), LineState::kModified);
}

TEST(SimCoherence, DirtySupplierDowngradesToShared) {
  Harness h({
      {store(shared_line(0), 1)},
      {load(shared_line(0), 30)},
  });
  h.run();
  EXPECT_EQ(h.sim->cache_of(0).state(shared_line(0)), LineState::kShared);
  EXPECT_EQ(h.sim->cache_of(1).state(shared_line(0)), LineState::kShared);
  // The requester was supplied cache-to-cache.
  EXPECT_GE(h.sim->cache_of(0).stats().supplies, 1u);
}

TEST(SimCoherence, WriteMissInvalidatesDirtyOwner) {
  Harness h({
      {store(shared_line(0), 1)},
      {store(shared_line(0), 30)},
  });
  h.run();
  EXPECT_EQ(h.sim->cache_of(0).state(shared_line(0)), LineState::kInvalid);
  EXPECT_EQ(h.sim->cache_of(1).state(shared_line(0)), LineState::kModified);
}

TEST(SimCoherence, PingPongGeneratesInvalidations) {
  std::vector<trace::Event> w0, w1;
  for (int i = 0; i < 20; ++i) {
    w0.push_back(store(shared_line(0), 10));
    w1.push_back(store(shared_line(0), 10));
  }
  Harness h({w0, w1});
  h.run();
  EXPECT_GE(h.sim->cache_of(0).stats().invalidations_received, 5u);
  EXPECT_GE(h.sim->cache_of(1).stats().invalidations_received, 5u);
}

TEST(SimCoherence, ReadSharingCausesNoTrafficAfterFill) {
  // Both read the same line repeatedly: after the two fills the bus is idle.
  std::vector<trace::Event> reads;
  for (int i = 0; i < 50; ++i) reads.push_back(load(shared_line(0), 2));
  Harness h({reads, reads});
  h.run();
  // Two fills (one from memory, one cache-to-cache): at most ~9 busy cycles.
  EXPECT_LE(h.sim->bus().busy_cycles(), 12u);
}

TEST(SimCoherence, FalseSharingPingPongsOneLine) {
  // Two processors write different words of the same 16-byte line.
  std::vector<trace::Event> w0, w1;
  for (int i = 0; i < 10; ++i) {
    w0.push_back(store(shared_line(0) + 0, 8));
    w1.push_back(store(shared_line(0) + 8, 8));
  }
  Harness h({w0, w1});
  h.run();
  EXPECT_GE(h.sim->cache_of(0).stats().invalidations_received +
                h.sim->cache_of(1).stats().invalidations_received,
            8u);
}

TEST(SimCoherence, WriteHitRatioReflectsSharing) {
  std::vector<trace::Event> solo;
  for (int i = 0; i < 50; ++i) solo.push_back(store(shared_line(0), 2));
  Harness h({solo});
  h.run();
  // One write miss then 49 hits.
  const SimulationResult r = h.sim->collect_results();
  EXPECT_NEAR(r.write_hit_ratio, 49.0 / 50.0, 1e-9);
}

TEST(SimCoherence, ThreeWaySharingSettlesShared) {
  Harness h({
      {load(shared_line(0), 1)},
      {load(shared_line(0), 25)},
      {load(shared_line(0), 50)},
  });
  h.run();
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.sim->cache_of(p).state(shared_line(0)), LineState::kShared)
        << "proc " << p;
  }
}

// Every snoop visit books exactly one supply or received invalidation, and a
// read answered from the holder directory credits each other holder its
// supply: the identity holds whenever the counts can be read, not only after
// run().  Processor 0 reads the line first (Exclusive), processor 1's read
// probes it, and the reads of processors 2 and 3, with two and three other
// holders, are answered from the directory.
TEST(SimCoherence, SuppliesAreExactAfterEveryStep) {
  Harness h({
      {load(shared_line(0), 1)},
      {load(shared_line(0), 25)},
      {load(shared_line(0), 50)},
      {load(shared_line(0), 75)},
  });
  const Simulator& sim = *h.sim;
  while (!sim.all_done()) {
    h.sim->step();
    std::uint64_t visits = 0;
    for (std::uint32_t p = 0; p < 4; ++p) {
      const cache::CacheStats& cs = sim.cache_of(p).stats();
      visits += cs.supplies + cs.invalidations_received;
    }
    ASSERT_EQ(visits, sim.snoop_stats().probes +
                          sim.snoop_stats().directory_credits)
        << "cycle " << sim.now();
  }
  EXPECT_EQ(sim.snoop_stats().probes, 1u);
  EXPECT_EQ(sim.snoop_stats().directory_credits, 5u);
  EXPECT_EQ(sim.snoop_stats().writeback_fallbacks, 0u);
  const std::uint64_t supplies[] = {3, 2, 1, 0};
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(sim.cache_of(p).stats().supplies, supplies[p]) << "proc " << p;
    EXPECT_EQ(sim.cache_of(p).state(shared_line(0)), LineState::kShared)
        << "proc " << p;
  }
}

}  // namespace
}  // namespace syncpat::core
