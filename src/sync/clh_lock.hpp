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

#include "sync/scheme.hpp"

namespace syncpat::sync {

struct ClhState : HandoffState {
  std::int32_t tail = -1;      // last swapper; -1 == never contended
  bool tail_unlocked = false;  // tail's node already released (idle lock)
};

class ClhLock final : public HandoffScheme<ClhState> {
 public:
  ClhLock(SchemeServices& services, LockStatsCollector& stats)
      : HandoffScheme(services, stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;

  /// The queue-node cache line of processor `proc`.
  [[nodiscard]] static std::uint32_t node_line(std::uint32_t proc);
};

}  // namespace syncpat::sync
