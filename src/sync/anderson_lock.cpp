#include "sync/anderson_lock.hpp"

#include <algorithm>
#include <bit>

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

std::uint32_t AndersonLock::slot_ring_size() const {
  // One slot per processor, like Anderson's array: tickets are taken modulo
  // num_procs, so the ring must hold num_procs distinct lines or two
  // outstanding waiters would spin on one line and a release's single
  // invalidation could wake the wrong one.  Historically hardwired to 64
  // (silent slot aliasing above P = 64); kept at 64 for small machines so
  // every historical address is bit-identical.
  return std::max(64u, std::bit_ceil(services_.num_procs()));
}

std::uint32_t AndersonLock::slot_line(std::uint32_t lock_line,
                                      std::uint32_t slot) const {
  const std::uint32_t lock_id =
      (lock_line - trace::AddressMap::kLockBase) / 64;
  const std::uint32_t slots = slot_ring_size();
  const std::uint32_t stride = slots * 64u;
  if (slots == 64u) {
    // P <= 64: the historical layout — a 64-slot, 64-byte-spaced array per
    // lock in its own slice of the lock region (above the lock words, below
    // the barrier slice).
    const std::uint32_t addr = trace::AddressMap::kLockBase + (1u << 24) +
                               lock_id * stride + (slot % slots) * 64u;
    SYNCPAT_ASSERT_MSG(addr < trace::AddressMap::kLockBase + (1u << 25),
                       "Anderson slot arrays overflow their region: too many "
                       "locks for the 16 MiB slot slice");
    return addr;
  }
  // P > 64 (configurations that previously crashed): wider rings live in the
  // large slice above the Graunke-Thakkar spin flags, 128 MiB at the top of
  // the lock region.
  constexpr std::uint32_t kWideBase = trace::AddressMap::kLockBase + (1u << 27);
  const std::uint64_t addr = static_cast<std::uint64_t>(kWideBase) +
                             static_cast<std::uint64_t>(lock_id) * stride +
                             (slot % slots) * 64u;
  SYNCPAT_ASSERT_MSG(addr + 64u <= (1ull << 32),
                     "Anderson slot arrays overflow their region: too many "
                     "locks x processors for the 128 MiB wide-ring slice");
  return static_cast<std::uint32_t>(addr);
}

void AndersonLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  AndersonState& lock = locks_[lock_line];
  // Fetch&increment of the slot counter.
  atomic(proc, lock_line, lock.owner >= 0 || !lock.queue.empty(),
         kStepAcquire);
}

void AndersonLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                                   std::uint8_t step) {
  switch (step) {
    case kStepAcquire: {
      AndersonState& lock = locks_[line_addr];
      lock.slot_of[proc] =
          static_cast<std::uint32_t>(lock.next_ticket++ %
                                     services_.num_procs());
      if (lock.owner < 0 && lock.queue.empty() && !lock.handoff_pending) {
        grant(lock, proc, line_addr, lock.queue.size());
      } else {
        lock.queue.push_back(proc);
        waiting_on_[proc] = line_addr;
        spin(proc, slot_line(line_addr, lock.slot_of.at(proc)));
      }
      break;
    }
    case kStepSpinRead:
      take_or_spin(proc, line_addr);  // line_addr is the waiter's slot line
      break;
    case kStepRelease:
      // The write to the next waiter's slot performed; the releaser is done.
      // (Its grant-time snoop already invalidated the waiter's spin line.)
      services_.proc_release_done(proc);
      break;
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected Anderson-lock step");
  }
}

void AndersonLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  AndersonState& lock = begin_release_of(proc, lock_line);
  if (lock.queue.empty()) {
    free(lock, lock_line, false, 0);
    services_.proc_release_done(proc);
    return;
  }
  const std::uint32_t next = hand_off(lock, lock_line);
  // Write "go" into the next waiter's slot line: one targeted invalidation.
  atomic(proc, slot_line(lock_line, lock.slot_of.at(next)),
         /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
