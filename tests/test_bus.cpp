#include "bus/bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bus/service_discipline.hpp"
#include "cache/cache.hpp"
#include "core/machine_config.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace syncpat::bus {
namespace {

TEST(Bus, StartsFree) {
  Bus bus(BusConfig{.ports = 4, .request_cycles = 1, .data_cycles = 2});
  EXPECT_TRUE(bus.free());
  EXPECT_EQ(bus.current(), nullptr);
}

TEST(Bus, OccupancyLifecycle) {
  Bus bus(BusConfig{.ports = 2, .request_cycles = 1, .data_cycles = 2});
  Transaction txn;
  bus.occupy(&txn, 3);
  EXPECT_FALSE(bus.free());
  EXPECT_EQ(bus.tick(), nullptr);  // 2 left
  EXPECT_EQ(bus.tick(), nullptr);  // 1 left
  EXPECT_EQ(bus.tick(), &txn);     // done
  EXPECT_TRUE(bus.free());
}

TEST(Bus, SingleCycleTransaction) {
  Bus bus(BusConfig{.ports = 2});
  Transaction txn;
  bus.occupy(&txn, 1);
  EXPECT_EQ(bus.tick(), &txn);
  EXPECT_TRUE(bus.free());
}

TEST(Bus, UtilizationCountsBusyCycles) {
  Bus bus(BusConfig{.ports = 2});
  Transaction txn;
  bus.tick();  // idle
  bus.occupy(&txn, 2);
  bus.tick();
  bus.tick();
  bus.tick();  // idle
  EXPECT_EQ(bus.busy_cycles(), 2u);
  EXPECT_EQ(bus.total_cycles(), 4u);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.5);
}

TEST(ServiceDiscipline, RoundRobinRotatesAfterGrant) {
  RoundRobinDiscipline rr(3);
  EXPECT_EQ(rr.peek(0), 0u);
  rr.record_grant(0, 0, false);
  EXPECT_EQ(rr.peek(0), 1u);
  EXPECT_EQ(rr.peek(1), 2u);
  EXPECT_EQ(rr.peek(2), 0u);
  rr.record_grant(2, 0, false);
  EXPECT_EQ(rr.peek(0), 0u);
}

TEST(ServiceDiscipline, RoundRobinScanOrderMatchesPeek) {
  RoundRobinDiscipline rr(4);
  rr.record_grant(1, 0, false);
  std::uint32_t order[4];
  rr.scan_order(nullptr, 0, order);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 1u);
}

TEST(ServiceDiscipline, FixedPriorityPutsMemoryFirstThenIdOrder) {
  FixedPriorityDiscipline fp(5);
  ASSERT_NE(fp.stamp_order(), nullptr);
  const ArbRequest req[5] = {
      {.present = true, .stamp = 10},
      {.present = true, .stamp = 8},
      {.present = true, .stamp = 12},
      {.present = false, .stamp = 0},
      {.present = true, .stamp = 9},  // memory port
  };
  std::uint32_t order[5];
  fp.scan_order(req, 20, order);  // nobody near the escape bound
  EXPECT_EQ(order[0], 4u);  // memory response port
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 2u);
  EXPECT_EQ(order[4], 3u);
  // Grants never change the static order.
  fp.record_grant(2, 7, false);
  fp.scan_order(req, 20, order);
  EXPECT_EQ(order[0], 4u);
  EXPECT_EQ(order[1], 0u);
}

TEST(ServiceDiscipline, FixedPriorityAgingPromotesOldestStarvedRequest) {
  FixedPriorityDiscipline fp(5);
  constexpr std::uint64_t kBound =
      FixedPriorityDiscipline::kStarvationEscapeCycles;
  ArbRequest req[5] = {
      {.present = true, .stamp = 100},
      {.present = false, .stamp = 0},
      {.present = true, .stamp = 10},  // oldest processor request
      {.present = true, .stamp = 50},
      {.present = true, .stamp = 5},  // memory port: never ages (already first)
  };
  std::uint32_t order[5];
  // One cycle short of the bound: pure static chain.
  fp.scan_order(req, 10 + kBound - 1, order);
  EXPECT_EQ(order[0], 4u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 2u);
  EXPECT_EQ(order[4], 3u);
  // At the bound: port 2 jumps the chain, the rest keep id order.
  fp.scan_order(req, 10 + kBound, order);
  EXPECT_EQ(order[0], 4u);  // memory still drains first
  EXPECT_EQ(order[1], 2u);  // promoted past ports 0 and 1
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 1u);
  EXPECT_EQ(order[4], 3u);
  // Stamp ties break toward the lower port id.
  req[0].stamp = 10;
  fp.scan_order(req, 10 + kBound, order);
  EXPECT_EQ(order[1], 0u);
}

TEST(ServiceDiscipline, FcfsOrdersByStampThenPort) {
  FcfsDiscipline fcfs(4);
  ASSERT_NE(fcfs.stamp_order(), nullptr);
  const ArbRequest req[4] = {
      {.present = true, .stamp = 30},
      {.present = false, .stamp = 0},
      {.present = true, .stamp = 10},
      {.present = true, .stamp = 30},  // tie with port 0: lower port first
  };
  std::uint32_t order[4];
  fcfs.scan_order(req, 40, order);
  EXPECT_EQ(order[0], 2u);  // oldest
  EXPECT_EQ(order[1], 0u);  // stamp tie broken by port id
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 1u);  // requestless ports trail
}

/// The three port permutations as a full scan computes them (the arbiter's
/// historical form): an oracle for scan_order() independent of offer().
std::vector<std::uint32_t> reference_scan_order(DisciplineKind kind,
                                                std::uint32_t ports,
                                                std::uint32_t rotation,
                                                const ArbRequest* req,
                                                std::uint64_t now) {
  std::vector<std::uint32_t> out;
  switch (kind) {
    case DisciplineKind::kRoundRobin:
      for (std::uint32_t i = 0; i < ports; ++i) {
        out.push_back((rotation + i) % ports);
      }
      break;
    case DisciplineKind::kFixedPriority: {
      out.push_back(ports - 1);
      std::uint32_t oldest = ports;
      for (std::uint32_t p = 0; p + 1 < ports; ++p) {
        if (req[p].present &&
            (oldest == ports || req[p].stamp < req[oldest].stamp)) {
          oldest = p;
        }
      }
      if (oldest != ports &&
          now - req[oldest].stamp >=
              FixedPriorityDiscipline::kStarvationEscapeCycles) {
        out.push_back(oldest);
      } else {
        oldest = ports;
      }
      for (std::uint32_t p = 0; p + 1 < ports; ++p) {
        if (p != oldest) out.push_back(p);
      }
      break;
    }
    case DisciplineKind::kFcfs:
      for (std::uint32_t p = 0; p < ports; ++p) out.push_back(p);
      std::sort(out.begin(), out.end(), [req](std::uint32_t a, std::uint32_t b) {
        if (req[a].present != req[b].present) return req[a].present;
        if (req[a].present && req[a].stamp != req[b].stamp) {
          return req[a].stamp < req[b].stamp;
        }
        return a < b;
      });
      break;
  }
  return out;
}

/// Records every port offer() hands out; grants none.  The discipline's
/// order first holds the ready ports as the arbiter keeps them: a present
/// request under its stamp, any other under `now` (issued this cycle).
std::vector<std::uint32_t> offered_ports(ServiceDiscipline& d,
                                         const std::uint64_t* ready,
                                         const std::uint64_t* grantable,
                                         const ArbRequest* req,
                                         std::uint64_t now) {
  if (StampOrder* order = d.stamp_order()) {
    order->clear();
    util::visit_set_bits(ready, 0, d.ports(), [&](std::uint32_t p) {
      order->set(p, req[p].present ? req[p].stamp : now);
      return false;
    });
  }
  std::vector<std::uint32_t> visited;
  d.offer(grantable, now,
          [](void* ctx, std::uint32_t port) {
            static_cast<std::vector<std::uint32_t>*>(ctx)->push_back(port);
            return false;
          },
          &visited);
  return visited;
}

// The arbiter ranks only ready ports (those with a request; the stamp-aware
// disciplines through the order it keeps of them), and offers only the
// grantable ones among them (while memory's input buffer is full: upgrades,
// hand-offs and the memory port).  For every discipline, scan_order() must
// equal the full-scan reference permutation; the walk over the ready set
// must visit each eligible ready port exactly in that permutation's relative
// order, and nothing outside the ready set; and the walk over a grantable
// subset must be that walk restricted to the subset.  Random ready sets over
// one to three mask words (the last one partial at 65 and 130 ports), stamps
// drawn from 8 values (so ties are common), random rotation pointers, and
// `now` on both sides of the fixed-priority aging bound.
TEST(ServiceDiscipline, ReadyPortOfferMatchesScanOrder) {
  util::Rng rng(0xa4b);
  for (const std::uint32_t ports : {3u, 64u, 65u, 130u}) {
    for (const DisciplineKind kind :
         {DisciplineKind::kRoundRobin, DisciplineKind::kFixedPriority,
          DisciplineKind::kFcfs}) {
      const auto discipline = make_discipline(kind, ports);
      std::uint32_t promoted_rounds = 0;
      for (int trial = 0; trial < 300; ++trial) {
        const auto last_grant = static_cast<std::uint32_t>(rng.below(ports));
        discipline->record_grant(last_grant, 0, false);
        const std::uint64_t density = 1 + rng.below(4);  // of 4
        std::vector<std::uint64_t> ready(util::bit_words(ports), 0);
        std::vector<std::uint64_t> grantable(ready.size(), 0);
        std::vector<ArbRequest> all(ports), at_ready(ports);
        for (std::uint32_t p = 0; p < ports; ++p) {
          if (rng.below(4) < density) {
            util::set_bit(ready.data(), p);
            if (rng.below(3) == 0) util::set_bit(grantable.data(), p);
            all[p] = ArbRequest{rng.below(4) != 0, 1000 + rng.below(8) * 150};
            at_ready[p] = all[p];
          } else {
            // A port without a request is never eligible; the offer's copy
            // holds a decoy that would win every ranking if it were read.
            all[p] = ArbRequest{false, 0};
            at_ready[p] = ArbRequest{true, 0};
          }
        }
        const std::uint64_t now = 2050 + rng.below(1100);

        std::vector<std::uint32_t> order(ports);
        discipline->scan_order(all.data(), now, order.data());
        ASSERT_EQ(order, reference_scan_order(kind, ports,
                                              (last_grant + 1) % ports,
                                              all.data(), now))
            << discipline_name(kind) << " ports=" << ports << " trial=" << trial;
        const std::vector<std::uint32_t> visited = offered_ports(
            *discipline, ready.data(), ready.data(), at_ready.data(), now);
        const std::vector<std::uint32_t> subset_visited =
            offered_ports(*discipline, ready.data(), grantable.data(),
                          at_ready.data(), now);

        const auto eligible = [&](std::uint32_t p) {
          return util::test_bit(ready.data(), p) && all[p].present;
        };
        std::vector<std::uint32_t> expected, got, expected_subset;
        for (const std::uint32_t p : order) {
          if (eligible(p)) expected.push_back(p);
        }
        for (const std::uint32_t p : visited) {
          ASSERT_TRUE(util::test_bit(ready.data(), p))
              << discipline_name(kind) << " offered idle port " << p;
          if (eligible(p)) got.push_back(p);
          if (util::test_bit(grantable.data(), p)) expected_subset.push_back(p);
        }
        ASSERT_EQ(std::set<std::uint32_t>(visited.begin(), visited.end()).size(),
                  visited.size())
            << discipline_name(kind) << " offered a port twice";
        ASSERT_EQ(got, expected)
            << discipline_name(kind) << " ports=" << ports << " trial=" << trial;
        ASSERT_EQ(subset_visited, expected_subset)
            << discipline_name(kind) << " ports=" << ports << " trial=" << trial
            << ": the grantable walk is not the ready walk restricted";
        if (kind == DisciplineKind::kFixedPriority && ports > 3 &&
            expected.size() > 1 && expected[0] != ports - 1 &&
            expected[0] != *std::min_element(expected.begin(), expected.end())) {
          ++promoted_rounds;
        }
      }
      if (kind == DisciplineKind::kFixedPriority && ports > 3) {
        EXPECT_GT(promoted_rounds, 0u) << "the aging escape never fired";
      }
    }
  }
}

// The order under random head changes: a full walk visits exactly the held
// ports in (stamp, port id) order, and a walk stops at the visit that
// returns true.  Stamps come from 8 values, so ties are common.
TEST(StampOrder, WalkVisitsHeldPortsInStampThenPortOrder) {
  util::Rng rng(0x57a);
  for (const std::uint32_t ports : {1u, 2u, 9u, 130u}) {
    StampOrder order(ports);
    using Entry = std::pair<std::uint64_t, std::uint32_t>;  // stamp, port
    std::set<Entry> reference;
    std::vector<std::uint64_t> held(ports, ~std::uint64_t{0});
    for (int step = 0; step < 2000; ++step) {
      const auto p = static_cast<std::uint32_t>(rng.below(ports));
      if (held[p] != ~std::uint64_t{0}) reference.erase({held[p], p});
      if (rng.below(3) == 0) {
        order.erase(p);
        held[p] = ~std::uint64_t{0};
      } else {
        held[p] = rng.below(8);
        order.set(p, held[p]);
        reference.insert({held[p], p});
      }
      if (step % 500 == 499) {
        order.clear();
        reference.clear();
        held.assign(ports, ~std::uint64_t{0});
      }
      ASSERT_EQ(order.size(), reference.size());
      std::vector<Entry> walked;
      EXPECT_FALSE(order.walk([&](std::uint32_t port, std::uint64_t stamp) {
        walked.emplace_back(stamp, port);
        return false;
      }));
      ASSERT_EQ(walked, std::vector<Entry>(reference.begin(), reference.end()))
          << "ports=" << ports << " step=" << step;
      if (!walked.empty()) {
        const std::size_t stop = rng.below(walked.size());
        std::size_t visits = 0;
        EXPECT_TRUE(order.walk([&](std::uint32_t, std::uint64_t) {
          return visits++ == stop;
        }));
        EXPECT_EQ(visits, stop + 1);
      }
    }
  }
}

// One grant ends the round: the walk stops at the first port that accepts.
TEST(ServiceDiscipline, OfferStopsAtTheFirstGrant) {
  RoundRobinDiscipline rr(130);
  rr.record_grant(99, 0, false);  // the rotation starts at port 100
  std::vector<std::uint64_t> ready(util::bit_words(130), 0);
  for (const std::uint32_t p : {5u, 64u, 120u, 129u}) {
    util::set_bit(ready.data(), p);
  }
  struct Walk {
    std::vector<std::uint32_t> visited;
    std::uint32_t accept;
  } walk{{}, 64};
  EXPECT_TRUE(rr.offer(ready.data(), 0,
                       [](void* ctx, std::uint32_t port) {
                         auto& w = *static_cast<Walk*>(ctx);
                         w.visited.push_back(port);
                         return port == w.accept;
                       },
                       &walk));
  EXPECT_EQ(walk.visited, (std::vector<std::uint32_t>{120, 129, 5, 64}));
}

TEST(ServiceDiscipline, StatsTrackGrantsAndWaits) {
  RoundRobinDiscipline rr(3);
  rr.record_grant(0, 4, false);
  rr.record_grant(2, 10, true);
  rr.record_grant(1, 1, false);
  EXPECT_EQ(rr.stats().grants, 2u);
  EXPECT_EQ(rr.stats().memory_grants, 1u);
  EXPECT_EQ(rr.stats().max_grant_wait, 10u);
  EXPECT_EQ(rr.stats().grant_wait.count(), 3u);
  EXPECT_DOUBLE_EQ(rr.stats().grant_wait.mean(), 5.0);
}

TEST(ServiceDiscipline, NamesRoundTripStrictly) {
  for (const DisciplineKind k :
       {DisciplineKind::kRoundRobin, DisciplineKind::kFixedPriority,
        DisciplineKind::kFcfs}) {
    EXPECT_EQ(discipline_from_name(discipline_name(k)), k);
  }
  for (const char* junk : {"roundrobin", "", "FCFS"}) {
    EXPECT_THROW(static_cast<void>(discipline_from_name(junk)),
                 std::invalid_argument);
  }
}

// The CLI and the fuzz repro format read the other machine axes' spellings
// through the same kind of strict table.
TEST(MachineAxisNames, RoundTripStrictly) {
  for (const ConsistencyModel m :
       {ConsistencyModel::kSequential, ConsistencyModel::kWeak}) {
    EXPECT_EQ(consistency_from_name(consistency_name(m)), m);
  }
  for (const cache::WritePolicy p :
       {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
    EXPECT_EQ(cache::write_policy_from_name(cache::write_policy_name(p)), p);
  }
  for (const core::EngineKind e :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    EXPECT_EQ(core::engine_from_name(core::engine_name(e)), e);
  }
  for (const char* junk : {"", "Weak", "writeback", "fast", "des "}) {
    EXPECT_THROW(static_cast<void>(consistency_from_name(junk)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(cache::write_policy_from_name(junk)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(core::engine_from_name(junk)),
                 std::invalid_argument);
  }
}

TEST(Bus, TxnKindNames) {
  EXPECT_STREQ(txn_kind_name(TxnKind::kRead), "Read");
  EXPECT_STREQ(txn_kind_name(TxnKind::kReadX), "ReadX");
  EXPECT_STREQ(txn_kind_name(TxnKind::kUpgrade), "Upgrade");
  EXPECT_STREQ(txn_kind_name(TxnKind::kWriteBack), "WriteBack");
  EXPECT_STREQ(txn_kind_name(TxnKind::kHandoff), "Handoff");
}

TEST(Transaction, ExclusiveRequestKinds) {
  Transaction t;
  t.kind = TxnKind::kReadX;
  EXPECT_TRUE(t.is_exclusive_request());
  t.kind = TxnKind::kUpgrade;
  EXPECT_TRUE(t.is_exclusive_request());
  t.kind = TxnKind::kRead;
  EXPECT_FALSE(t.is_exclusive_request());
}

}  // namespace
}  // namespace syncpat::bus
