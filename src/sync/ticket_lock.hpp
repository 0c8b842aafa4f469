// Ticket lock (Graunke & Thakkar [12] discuss it among the queue-based
// alternatives; included for the lock-scheme shootout ablation).
//
// Acquire atomically fetch-and-increments a ticket counter (one ownership
// transaction on the lock line) and then spins reading a *now-serving*
// counter that lives on a different cache line.  Release increments
// now-serving: one invalidation, then every spinner re-reads — a burst of
// reads like T&T&S, but with no test-and-set race on top, so roughly half
// the hand-off traffic.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sync/scheme.hpp"

namespace syncpat::sync {

struct TicketState {
  std::int32_t owner = -1;
  std::uint64_t next_ticket = 0;
  std::uint64_t now_serving = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> ticket_of;  // waiting procs
};

class TicketLock final : public BasicScheme<TicketState> {
 public:
  TicketLock(SchemeServices& services, LockStatsCollector& stats,
             std::uint32_t line_bytes)
      : BasicScheme(services, stats), line_bytes_(line_bytes) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;

  /// The now-serving counter lives on the cache line after the ticket line.
  [[nodiscard]] std::uint32_t serving_line(std::uint32_t lock_line) const {
    return lock_line + line_bytes_;
  }
  [[nodiscard]] std::uint32_t lock_of_serving(std::uint32_t serving) const {
    return serving - line_bytes_;
  }

 private:
  void spin_or_acquire(std::uint32_t proc, std::uint32_t lock_line);

  std::uint32_t line_bytes_;
};

}  // namespace syncpat::sync
