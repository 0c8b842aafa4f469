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

#include "sync/scheme.hpp"

namespace syncpat::sync {

struct McsState : HandoffState {
  std::int32_t tail = -1;  // last swapper; -1 == free (null tail)
};

class McsLock final : public HandoffScheme<McsState> {
 public:
  McsLock(SchemeServices& services, LockStatsCollector& stats)
      : HandoffScheme(services, stats) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;

  /// The queue-node cache line of processor `proc`.
  [[nodiscard]] static std::uint32_t node_line(std::uint32_t proc);

 private:
  void release_to_successor(std::uint32_t proc, std::uint32_t lock_line,
                            McsState& lock);
};

}  // namespace syncpat::sync
