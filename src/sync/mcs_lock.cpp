#include "sync/mcs_lock.hpp"

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

std::uint32_t McsLock::node_line(std::uint32_t proc) {
  // One 64-byte node line per processor in the gap between the barrier slice
  // (kLockBase + 2^25) and the Graunke-Thakkar spin flags (kLockBase + 2^26);
  // 4096 processors use 256 KiB of the 8 MiB sub-slice.
  constexpr std::uint32_t kNodeBase =
      trace::AddressMap::kLockBase + (3u << 24);
  return kNodeBase + proc * 64u;
}

void McsLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  McsState& lock = locks_[lock_line];
  // swap(tail, my-node): an atomic ownership transaction on the lock line.
  atomic(proc, lock_line, lock.owner >= 0 || lock.tail >= 0, kStepAcquire);
}

void McsLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                              std::uint8_t step) {
  switch (step) {
    case kStepAcquire: {
      McsState& lock = locks_[line_addr];
      const std::int32_t pred = lock.tail;
      lock.tail = static_cast<std::int32_t>(proc);
      if (pred < 0) {
        // Swap returned null: the lock was free.
        grant(lock, proc, line_addr, lock.queue.size());
      } else {
        // Link behind the predecessor: pred->next = self, a write to the
        // predecessor's node line, then spin on our own node.
        lock.queue.push_back(proc);
        waiting_on_[proc] = line_addr;
        atomic(proc, node_line(static_cast<std::uint32_t>(pred)),
               /*contended=*/true, kStepEnqueue);
      }
      break;
    }
    case kStepEnqueue:
      // The pred->next write performed.  The release may already have chosen
      // us (the releaser spins on its next field until the link appears;
      // here the grant set carries that resolution).  Otherwise spin on our
      // own node, as after every read of it.
    case kStepSpinRead:
      take_or_spin(proc, node_line(proc));
      break;
    case kStepRelease: {
      // The tail compare&swap performed.  If a swapper slipped in front of
      // it on the bus, the CAS failed: fall back to the hand-off write.
      McsState& lock = locks_.at(line_addr);
      if (lock.queue.empty()) {
        lock.tail = -1;
        free(lock, line_addr, false, 0);
        services_.proc_release_done(proc);
      } else {
        release_to_successor(proc, line_addr, lock);
      }
      break;
    }
    case kStepRelease2:
      // The write to the successor's node line performed; the releaser is
      // done.  (Its snoop already invalidated the successor's spin line.)
      services_.proc_release_done(proc);
      break;
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected MCS-lock step");
  }
}

void McsLock::release_to_successor(std::uint32_t proc, std::uint32_t lock_line,
                                   McsState& lock) {
  const std::uint32_t next = hand_off(lock, lock_line);
  // next->locked = false: one targeted write to the successor's node line;
  // the lock word itself is never touched on a contended release.
  atomic(proc, node_line(next), /*contended=*/false, kStepRelease2);
}

void McsLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  McsState& lock = begin_release_of(proc, lock_line);
  if (!lock.queue.empty()) {
    release_to_successor(proc, lock_line, lock);
    return;
  }
  SYNCPAT_ASSERT_MSG(lock.tail == static_cast<std::int32_t>(proc),
                     "MCS tail lost without a queued successor");
  if (exclusive(proc, lock_line)) {
    // Exclusive copy: nobody swapped since our acquire, so the tail
    // compare&swap succeeds silently in-cache.
    lock.tail = -1;
    free(lock, lock_line, false, 0);
    services_.proc_release_done(proc);
    return;
  }
  write(proc, lock_line, /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
