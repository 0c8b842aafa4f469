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
#include <unordered_map>

#include "sync/scheme.hpp"

namespace syncpat::sync {

struct AndersonState : HandoffState {
  std::uint64_t next_ticket = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
};

class AndersonLock final : public HandoffScheme<AndersonState> {
 public:
  AndersonLock(SchemeServices& services, LockStatsCollector& stats)
      : HandoffScheme(services, stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;

  /// The cache line of array slot `slot` of the lock at `lock_line`.
  [[nodiscard]] std::uint32_t slot_line(std::uint32_t lock_line,
                                        std::uint32_t slot) const;
  /// Lines in the per-lock slot ring: max(64, bit_ceil(num_procs)), so every
  /// outstanding waiter spins on its own line at any machine size.
  [[nodiscard]] std::uint32_t slot_ring_size() const;
};

}  // namespace syncpat::sync
