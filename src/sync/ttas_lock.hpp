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
#include <unordered_map>
#include <unordered_set>

#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"

namespace syncpat::sync {

class TtasLock final : public LockScheme {
 public:
  TtasLock(SchemeServices& services, LockStatsCollector& stats)
      : services_(services), stats_(stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;

  [[nodiscard]] const char* name() const override { return "ttas"; }
  [[nodiscard]] bool held_by_other(std::uint32_t proc,
                                   std::uint32_t lock_line) const override;

 private:
  struct LockState {
    std::int32_t owner = -1;
    std::unordered_set<std::uint32_t> trying;  // procs between begin and win
  };

  void test(std::uint32_t proc, std::uint32_t lock_line);
  void evaluate(std::uint32_t proc, std::uint32_t lock_line);
  [[nodiscard]] bus::StallCause acquire_cause(std::uint32_t proc,
                                              const LockState& lock) const;

  SchemeServices& services_;
  LockStatsCollector& stats_;
  std::unordered_map<std::uint32_t, LockState> locks_;
};

}  // namespace syncpat::sync
