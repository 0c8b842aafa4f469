#include "sync/ttas_lock.hpp"

#include "util/assert.hpp"

namespace syncpat::sync {

void TtasLock::begin_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  TasState& lock = locks_[lock_line];
  lock.trying.insert(proc);
  if (cached(proc, lock_line)) {
    evaluate(proc, lock_line);  // cached read: free
  } else {
    read(proc, lock_line, lock.contended(proc));
  }
}

void TtasLock::evaluate(std::uint32_t proc, std::uint32_t lock_line) {
  TasState& lock = locks_[lock_line];
  if (lock.owner < 0) {
    // Observed free: race a test-and-set.  If our copy is Shared an
    // invalidation suffices; otherwise fetch the line for ownership.  The
    // engine serializes in-flight transactions per line, so completions —
    // and therefore the atomic winner — are bus-ordered.
    write(proc, lock_line, lock.contended(proc), kStepTas);
  } else {
    // Held: spin on the cached copy; no bus traffic until invalidated.
    services_.proc_wait(proc, /*spinning=*/true, lock_line);
  }
}

void TtasLock::on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                               std::uint8_t step) {
  TasState& lock = locks_[line_addr];
  switch (step) {
    case kStepSpinRead:
      evaluate(proc, line_addr);
      break;
    case kStepTas:
      if (lock.owner < 0) {
        lock.trying.erase(proc);
        grant(lock, proc, line_addr, lock.trying.size());
      } else {
        // Lost the race; our test-and-set wrote "locked" over "locked", and
        // we now hold the only valid copy — spin on it.
        services_.proc_wait(proc, /*spinning=*/true, line_addr);
      }
      break;
    case kStepRelease:
      free(lock, line_addr, !lock.trying.empty(), lock.waiters_left());
      services_.proc_release_done(proc);
      break;
    default:
      SYNCPAT_ASSERT_MSG(false, "unexpected T&T&S step");
  }
}

void TtasLock::begin_release(std::uint32_t proc, std::uint32_t lock_line) {
  TasState& lock = begin_release_of(proc, lock_line);
  if (exclusive(proc, lock_line)) {
    // Exclusive copy: the store hits silently; nobody else holds the line.
    free(lock, lock_line, !lock.trying.empty(), lock.waiters_left());
    services_.proc_release_done(proc);
    return;
  }
  // Shared (spinners hold copies) or evicted: the store needs the bus.  Its
  // grant-time snoop invalidates every spinner — the start of the flurry.
  write(proc, lock_line, /*contended=*/false, kStepRelease);
}

}  // namespace syncpat::sync
