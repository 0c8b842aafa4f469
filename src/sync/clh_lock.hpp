// CLH implicit-queue lock (Craig; Landin & Hagersten — via Golab's
// decomposition in "Deconstructing Queue-Based Mutual Exclusion").
//
// Acquire atomically swaps the lock's tail pointer to the acquirer's node
// (one forced ownership transaction on the lock line) and then spins on the
// *predecessor's* node line — the queue is implicit in the chain of
// predecessor pointers, so no MCS-style link-back write is needed: a
// contended acquire is swap + spin, one transaction cheaper than MCS.
// Release always writes the releaser's *own* node line ("unlocked"), which
// is exactly the line its successor spins on: one targeted invalidation
// wakes one waiter.  The flip side is that a waiter spins on a line homed
// with its predecessor — under the DSM cost model CLH re-reads pay the
// remote-home penalty MCS's local-node spinning avoids.
//
// Queue nodes are one cache line per processor in a dedicated slice of the
// lock region (above the MCS node slice).  A processor waits on at most one
// lock at a time, so a single node per processor suffices; under nested
// holds a release of the outer lock may spuriously invalidate a spinner of
// the inner lock sharing the node line, costing a re-read but never a wrong
// wake (grants are decided by the scheme's queue, not by line contents).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"

namespace syncpat::sync {

class ClhLock final : public LockScheme {
 public:
  ClhLock(SchemeServices& services, LockStatsCollector& stats)
      : services_(services), stats_(stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;

  [[nodiscard]] const char* name() const override { return "clh"; }
  [[nodiscard]] bool held_by_other(std::uint32_t proc,
                                   std::uint32_t lock_line) const override;

  /// The queue-node cache line of processor `proc`.
  [[nodiscard]] static std::uint32_t node_line(std::uint32_t proc);

 private:
  struct LockState {
    std::int32_t owner = -1;
    std::int32_t tail = -1;        // last swapper; -1 == never contended
    bool tail_unlocked = false;    // tail's node already released (idle lock)
    bool handoff_pending = false;  // a dequeued waiter's grant is in flight
    std::deque<std::uint32_t> queue;  // waiting procs in swap order
  };

  void spin_on_pred_node(std::uint32_t proc, std::uint32_t pred,
                         std::uint32_t lock_line);
  void grant_or_spin(std::uint32_t proc, std::uint32_t line_addr,
                     std::uint32_t lock_line);

  SchemeServices& services_;
  LockStatsCollector& stats_;
  std::unordered_map<std::uint32_t, LockState> locks_;
  std::unordered_map<std::uint32_t, std::uint32_t> spin_lock_of_;
  std::unordered_set<std::uint32_t> granted_;  // procs whose pred unlocked
};

}  // namespace syncpat::sync
