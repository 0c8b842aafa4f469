#include "sync/clh_lock.hpp"

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

std::uint32_t ClhLock::node_line(std::uint32_t proc) {
  // One 64-byte node line per processor, in the half-slice above the MCS
  // nodes (kLockBase + 3*2^24) and below the Graunke-Thakkar spin flags
  // (kLockBase + 2^26); 4096 processors use 256 KiB of it.
  constexpr std::uint32_t kNodeBase =
      trace::AddressMap::kLockBase + (3u << 24) + (1u << 23);
  return kNodeBase + proc * 64u;
}

void ClhLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  ClhState& lock = locks_[lock_line];
  // swap(tail, my-node): an atomic ownership transaction on the lock line.
  atomic(proc, lock_line,
         lock.owner >= 0 || !lock.queue.empty() || lock.handoff_pending,
         kStepAcquire);
}

void ClhLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                              std::uint8_t step) {
  switch (step) {
    case kStepAcquire: {
      ClhState& lock = locks_[line_addr];
      const std::int32_t pred = lock.tail;
      lock.tail = static_cast<std::int32_t>(proc);
      if (pred < 0) {
        // Swap returned the initial (unlocked) sentinel: the lock was free.
        grant(lock, proc, line_addr, lock.queue.size());
        break;
      }
      if (lock.tail_unlocked) {
        // The predecessor's node was already released (idle lock): the first
        // read of it observes "unlocked" — a cache hit when re-acquiring
        // one's own previous node, one read transaction otherwise.
        lock.tail_unlocked = false;
        granted_.insert(proc);
      } else {
        lock.queue.push_back(proc);
      }
      // Spin on the predecessor's node.
      waiting_on_[proc] = line_addr;
      take_or_spin(proc, node_line(static_cast<std::uint32_t>(pred)));
      break;
    }
    case kStepSpinRead:
      take_or_spin(proc, line_addr);
      break;
    case kStepRelease:
      // The unlock write to the releaser's own node performed; its snoop
      // already invalidated the successor's spin line (if any).
      services_.proc_release_done(proc);
      break;
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected CLH-lock step");
  }
}

void ClhLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  ClhState& lock = begin_release_of(proc, lock_line);
  const std::uint32_t line = node_line(proc);
  const bool silent = exclusive(proc, line);
  if (lock.queue.empty()) {
    SYNCPAT_ASSERT_MSG(lock.tail == static_cast<std::int32_t>(proc),
                       "CLH tail lost without a queued successor");
    lock.tail_unlocked = true;
    free(lock, lock_line, false, 0);
  } else {
    hand_off(lock, lock_line);
  }
  if (silent) {
    // Exclusive copy of the node: the unlock store is a cache hit.  A
    // successor either has its first read still in flight (the grant set
    // resolves it on completion) or has not read yet — a spinner would hold
    // a shared copy, contradicting M/E.
    services_.proc_release_done(proc);
    return;
  }
  write(proc, line, /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
