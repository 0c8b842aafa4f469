// Test-and-test-and-set (paper §2.4, Segall & Rudolph [17]).
//
// Waiters spin by reading the lock line from their own cache (Shared, no bus
// traffic).  The releaser's store invalidates every spinner's copy; each
// spinner then re-reads the line over the bus, sees the lock free, and races
// a test-and-set (an ownership transaction on the lock line).  One wins; the
// losers' attempts still invalidate each other and force further re-reads —
// the "flurry" of bus traffic the paper measures as a 21-25 cycle transfer
// cost and doubled bus utilization in Grav.
//
// All of that traffic emerges from the coherence protocol here: the scheme
// contains no timing constants at all.
#pragma once

#include <cstdint>

#include "sync/tas_lock.hpp"

namespace syncpat::sync {

class TtasLock final : public BasicScheme<TasState> {
 public:
  TtasLock(SchemeServices& services, LockStatsCollector& stats)
      : BasicScheme(services, stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;

 private:
  void evaluate(std::uint32_t proc, std::uint32_t lock_line);
};

}  // namespace syncpat::sync
