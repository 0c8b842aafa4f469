#include "sync/queuing_lock.hpp"

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

std::uint32_t QueuingLock::spin_line(std::uint32_t proc) {
  // A dedicated 64-byte-spaced slot per processor, far above any real lock id
  // (lock ids are dense from zero; this region starts at id 2^20).
  return trace::AddressMap::kLockBase + (1u << 26) + proc * 64;
}

void QueuingLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  // One memory access: the atomic exchange that enters the queue.  It waits
  // on the lock when another processor holds it.
  const auto it = locks_.find(lock_line);
  const bool held = it != locks_.end() && it->second.owner >= 0 &&
                    it->second.owner != static_cast<std::int32_t>(proc);
  atomic(proc, lock_line, held, kStepAcquire);
}

void QueuingLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  begin_release_of(proc, lock_line);
  atomic(proc, lock_line, /*contended=*/false, kStepRelease);
}

void QueuingLock::take_or_wait(QueuingState& lock, std::uint32_t proc,
                               std::uint32_t lock_line) {
  if (lock.owner < 0 && lock.pending_next < 0) {
    grant(lock, proc, lock_line, lock.waiters.size());
  } else {
    lock.waiters.push_back(proc);
    services_.proc_wait(proc, /*spinning=*/false, 0);
  }
}

void QueuingLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                                  std::uint8_t step) {
  switch (step) {
    case kStepAcquire: {
      QueuingState& lock = locks_[line_addr];
      if (exact_ && (lock.owner >= 0 || lock.pending_next >= 0)) {
        // Second access of the enqueue phase: publish the spin location.
        atomic(proc, line_addr, /*contended=*/true, kStepEnqueue);
      } else {
        take_or_wait(lock, proc, line_addr);
      }
      break;
    }
    case kStepEnqueue:
      // The two-phase enqueue races the release: if the lock was freed with
      // an empty queue while we published our spin location, take it now
      // (the real Graunke-Thakkar exchange enqueues atomically, so this
      // window exists only in the two-access model).
      take_or_wait(locks_[line_addr], proc, line_addr);
      break;
    case kStepRelease: {
      QueuingState& lock = locks_[line_addr];
      if (lock.waiters.empty()) {
        free(lock, line_addr, false, 0);
        services_.proc_release_done(proc);
        break;
      }
      const std::uint32_t next = lock.waiters.front();
      lock.waiters.pop_front();
      free(lock, line_addr, true, lock.waiters.size());
      if (exact_) {
        // No cache-to-cache transfer under Illinois on this path: the
        // releaser performs one more memory access (the store to the
        // waiter's spin flag).
        lock.pending_next = static_cast<std::int32_t>(next);
        atomic(proc, line_addr, /*contended=*/false, kStepRelease2);
      } else {
        // The waiter owns the lock from here; it resumes when the hand-off
        // transfer wins the bus (on_handoff_granted).
        lock.owner = static_cast<std::int32_t>(next);
        services_.issue_handoff(proc, line_addr);
        services_.proc_release_done(proc);
      }
      break;
    }
    case kStepRelease2: {
      // Exact variant: releaser is done; the waiter now re-reads its
      // invalidated spin flag (its own memory access) before running.
      const QueuingState& lock = locks_[line_addr];
      SYNCPAT_ASSERT(lock.pending_next >= 0);
      const auto next = static_cast<std::uint32_t>(lock.pending_next);
      services_.proc_release_done(proc);
      services_.issue_lock_txn(next, spin_line(next), bus::TxnKind::kRead,
                               bus::StallCause::kLockWait, /*stalls=*/true,
                               kStepSpinRead);
      break;
    }
    case kStepSpinRead: {
      // The waiter observed its spin flag flip: it owns the lock.  Find the
      // lock this processor was promoted on.
      for (auto& [line, lock] : locks_) {
        if (lock.pending_next == static_cast<std::int32_t>(proc)) {
          lock.pending_next = -1;
          grant(lock, proc, line, lock.waiters.size());
          return;
        }
      }
      SYNCPAT_ASSERT_MSG(false, "spin-read completion without a pending wake-up");
      break;
    }
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected queuing-lock step");
  }
}

void QueuingLock::on_spin_invalidated(std::uint32_t /*proc*/,
                                      std::uint32_t /*line*/) {
  // Queuing-lock waiters never register coherence-driven spins.
  SYNCPAT_ASSERT(false);
}

void QueuingLock::on_handoff_granted(std::uint32_t line_addr) {
  QueuingState& lock = locks_.at(line_addr);
  SYNCPAT_ASSERT(lock.owner >= 0);
  grant(lock, static_cast<std::uint32_t>(lock.owner), line_addr,
        lock.waiters.size());
}

}  // namespace syncpat::sync
