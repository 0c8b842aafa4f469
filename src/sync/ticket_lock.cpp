#include "sync/ticket_lock.hpp"

#include "util/assert.hpp"

namespace syncpat::sync {

void TicketLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  TicketState& lock = locks_[lock_line];
  // Fetch-and-increment of the ticket counter: an atomic ownership
  // transaction on the ticket line.
  atomic(proc, lock_line, lock.owner >= 0 || !lock.ticket_of.empty(),
         kStepAcquire);
}

void TicketLock::spin_or_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  TicketState& lock = locks_[lock_line];
  const auto it = lock.ticket_of.find(proc);
  SYNCPAT_ASSERT(it != lock.ticket_of.end());
  if (it->second == lock.now_serving && lock.owner < 0) {
    lock.ticket_of.erase(it);
    grant(lock, proc, lock_line, lock.ticket_of.size());
    return;
  }
  spin(proc, serving_line(lock_line));
}

void TicketLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                                 std::uint8_t step) {
  switch (step) {
    case kStepAcquire: {
      TicketState& lock = locks_[line_addr];
      lock.ticket_of[proc] = lock.next_ticket++;
      spin_or_acquire(proc, line_addr);
      break;
    }
    case kStepSpinRead:
      spin_or_acquire(proc, lock_of_serving(line_addr));
      break;
    case kStepRelease: {
      const std::uint32_t lock_line = lock_of_serving(line_addr);
      TicketState& lock = locks_[lock_line];
      ++lock.now_serving;
      const bool transfer = !lock.ticket_of.empty();
      free(lock, lock_line, transfer, transfer ? lock.ticket_of.size() - 1 : 0);
      // Spinners re-read after the invalidation; the matching ticket
      // acquires.  (The release transaction's snoop triggered
      // on_spin_invalidated for each registered spinner.)
      services_.proc_release_done(proc);
      break;
    }
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected ticket-lock step");
  }
}

void TicketLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  TicketState& lock = begin_release_of(proc, lock_line);
  const std::uint32_t serving = serving_line(lock_line);
  if (exclusive(proc, serving) && lock.ticket_of.empty()) {
    // Exclusive copy and nobody waiting: silent store.
    ++lock.now_serving;
    free(lock, lock_line, false, 0);
    services_.proc_release_done(proc);
    return;
  }
  write(proc, serving, /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
