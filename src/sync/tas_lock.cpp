#include "sync/tas_lock.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace syncpat::sync {

void TasLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  locks_[lock_line].trying.insert(proc);
  if (backoff_) delay_[proc] = kInitialBackoff;
  attempt(proc, lock_line);
}

void TasLock::attempt(std::uint32_t proc, std::uint32_t lock_line) {
  atomic(proc, lock_line, locks_[lock_line].contended(proc), kStepTas);
}

void TasLock::on_timer(std::uint32_t proc, std::uint32_t line_addr) {
  attempt(proc, line_addr);
}

void TasLock::on_spin_invalidated(std::uint32_t /*proc*/,
                                  std::uint32_t /*line*/) {
  SYNCPAT_ASSERT(false);  // T&S waiters re-issue or back off, never spin
}

void TasLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                              std::uint8_t step) {
  TasState& lock = locks_[line_addr];
  switch (step) {
    case kStepTas:
      if (lock.owner < 0) {
        lock.trying.erase(proc);
        grant(lock, proc, line_addr, lock.trying.size());
      } else if (backoff_) {
        // Failed: back off quietly, then retry with doubled delay.
        std::uint64_t& delay = delay_[proc];
        services_.proc_wait(proc, /*spinning=*/false, 0);
        services_.schedule_timer(proc, line_addr, delay);
        delay = std::min(delay * 2, kMaxBackoff);
      } else {
        attempt(proc, line_addr);  // spin by re-issuing the atomic op
      }
      break;
    case kStepRelease:
      free(lock, line_addr, !lock.trying.empty(), lock.waiters_left());
      services_.proc_release_done(proc);
      break;
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected T&S step");
  }
}

void TasLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  TasState& lock = begin_release_of(proc, lock_line);
  if (exclusive(proc, lock_line)) {
    free(lock, lock_line, !lock.trying.empty(), lock.waiters_left());
    services_.proc_release_done(proc);
    return;
  }
  write(proc, lock_line, /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
