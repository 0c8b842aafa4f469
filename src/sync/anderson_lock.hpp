// Anderson's array-based queue lock ([3], "The Performance of Spin-Lock
// Alternatives for Shared-Memory Multiprocessors").
//
// Acquire atomically fetch&increments a counter to claim an array slot and
// spins on that slot's *own* cache line; release writes the next slot.
// Unlike T&T&S (every waiter re-reads and races) or the ticket lock (every
// waiter re-reads), a release here invalidates exactly one waiter's line:
// one re-read, no burst — queue-lock behaviour from plain coherence,
// trading an array of cache lines per lock for the pointer queue of
// Graunke-Thakkar.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"

namespace syncpat::sync {

class AndersonLock final : public LockScheme {
 public:
  AndersonLock(SchemeServices& services, LockStatsCollector& stats)
      : services_(services), stats_(stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;

  [[nodiscard]] const char* name() const override { return "anderson"; }
  [[nodiscard]] bool held_by_other(std::uint32_t proc,
                                   std::uint32_t lock_line) const override;

  /// The cache line of array slot `slot` of the lock at `lock_line`.
  [[nodiscard]] std::uint32_t slot_line(std::uint32_t lock_line,
                                        std::uint32_t slot) const;
  /// Lines in the per-lock slot ring: max(64, bit_ceil(num_procs)), so every
  /// outstanding waiter spins on its own line at any machine size.
  [[nodiscard]] std::uint32_t slot_ring_size() const;

 private:
  struct LockState {
    std::int32_t owner = -1;
    bool handoff_pending = false;  // a dequeued waiter's grant is in flight
    std::uint64_t next_ticket = 0;
    std::deque<std::uint32_t> queue;                       // waiting procs
    std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  };

  void spin_on_slot(std::uint32_t proc, std::uint32_t lock_line);

  SchemeServices& services_;
  LockStatsCollector& stats_;
  std::unordered_map<std::uint32_t, LockState> locks_;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_to_lock_;
  std::unordered_set<std::uint32_t> granted_;  // procs whose slot was flipped
};

}  // namespace syncpat::sync
