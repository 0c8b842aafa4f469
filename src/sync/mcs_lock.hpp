// MCS list-based queue lock (Mellor-Crummey & Scott; Golab's modular
// decomposition in "Deconstructing Queue-Based Mutual Exclusion").
//
// Acquire atomically swaps the lock's tail pointer to the acquirer's queue
// node (one forced ownership transaction on the lock line).  A contended
// acquirer then links itself behind its predecessor — a write to the
// *predecessor's* node line — and spins on its *own* node line, so a release
// wakes exactly one waiter with one targeted invalidation.  Release with no
// successor compare&swaps the tail back to null (free when the lock line is
// still exclusive in the releaser's cache); release with a successor writes
// the successor's node line and never touches the lock word at all — the
// property that distinguishes MCS from every counter/flag scheme here.
//
// Queue nodes are one cache line per processor in a dedicated slice of the
// lock region.  A processor waits on at most one lock at a time, so a single
// node per processor suffices; under *nested* holds the outer lock's
// enqueuers may write the same node line the holder spins on for the inner
// lock, costing a spurious re-read but never a wrong wake (grants are
// decided by the scheme's queue, not by the line contents).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"

namespace syncpat::sync {

class McsLock final : public LockScheme {
 public:
  McsLock(SchemeServices& services, LockStatsCollector& stats)
      : services_(services), stats_(stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;

  [[nodiscard]] const char* name() const override { return "mcs"; }
  [[nodiscard]] bool held_by_other(std::uint32_t proc,
                                   std::uint32_t lock_line) const override;

  /// The queue-node cache line of processor `proc`.
  [[nodiscard]] static std::uint32_t node_line(std::uint32_t proc);

 private:
  struct LockState {
    std::int32_t owner = -1;
    std::int32_t tail = -1;        // last swapper; -1 == free (null tail)
    bool handoff_pending = false;  // a dequeued waiter's grant is in flight
    std::deque<std::uint32_t> queue;  // waiting procs in swap order
  };

  void spin_on_own_node(std::uint32_t proc, std::uint32_t lock_line);
  void grant_or_spin(std::uint32_t proc, std::uint32_t lock_line);
  void handoff(std::uint32_t proc, std::uint32_t lock_line, LockState& lock);

  SchemeServices& services_;
  LockStatsCollector& stats_;
  std::unordered_map<std::uint32_t, LockState> locks_;
  std::unordered_map<std::uint32_t, std::uint32_t> spin_lock_of_;
  std::unordered_set<std::uint32_t> granted_;  // procs whose node was flipped
};

}  // namespace syncpat::sync
