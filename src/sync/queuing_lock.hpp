// Queuing lock (Graunke & Thakkar [12]), in the two variants of paper §2.4.
//
// *Approximate* (the paper's simulated scheme): acquire is a single memory
// access; if the lock is held the processor waits passively (its spinning is
// on a private cached location and costs no bus traffic).  Release is a
// single memory access, plus — if a processor is waiting — a cache-to-cache
// transfer that hands the lock off.  The waiter resumes as soon as the
// hand-off transfer wins bus arbitration, giving the ~1-2 cycle transfer
// times the paper reports.
//
// *Exact*: adds the two bus transactions the paper deliberately omitted and
// promised to validate: a second memory access while enqueueing, and —
// because the Illinois protocol performs no cache-to-cache transfer on this
// path — an additional memory access after the release, followed by the
// waiter's own re-read of its (per-processor) spin location.  The
// exact-queuing section of `bench_ablations` performs the paper's stated
// future-work comparison between the two.
#pragma once

#include <cstdint>
#include <deque>

#include "sync/scheme.hpp"

namespace syncpat::sync {

struct QueuingState {
  std::int32_t owner = -1;
  std::deque<std::uint32_t> waiters;
  // Exact variant: waiter whose wake-up sequence is in progress.
  std::int32_t pending_next = -1;
};

class QueuingLock final : public BasicScheme<QueuingState> {
 public:
  QueuingLock(SchemeServices& services, LockStatsCollector& stats, bool exact)
      : BasicScheme(services, stats), exact_(exact) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;
  void on_handoff_granted(std::uint32_t line_addr) override;

  /// Per-processor spin-flag cache line used by the exact variant
  /// (Graunke-Thakkar spin on an element of a per-processor array).
  [[nodiscard]] static std::uint32_t spin_line(std::uint32_t proc);

 private:
  /// Takes the free lock, or queues behind its holder and waits passively.
  void take_or_wait(QueuingState& lock, std::uint32_t proc,
                    std::uint32_t lock_line);

  bool exact_;
};

}  // namespace syncpat::sync
