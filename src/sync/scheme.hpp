// Lock scheme interface (paper §2.4).
//
// A lock scheme is an event-driven state machine layered over the coherence
// machinery.  It never owns timing: every latency it incurs comes from the
// transactions it issues through SchemeServices, so lock-transfer costs and
// invalidation bursts *emerge* from bus arbitration and the Illinois
// protocol rather than being constants.
//
// Control flow:
//   * the processor reaches a LockAcq/LockRel trace event (after the weak-
//     ordering fence, if any) and calls begin_acquire()/begin_release();
//   * the scheme issues lock transactions; on each completion the simulator
//     calls on_txn_complete() with the scheme-private `step` tag;
//   * spin-based schemes register the line a processor spins on; when a
//     snoop invalidates that line, on_spin_invalidated() fires and the
//     scheme issues the re-read;
//   * the scheme ends an operation by calling proc_acquired() or
//     proc_release_done(), which resumes the processor's trace.
//
// The abstract lock *value* (free / held-by-p) lives in the scheme; the
// coherence protocol orders the accesses that observe it, and the global
// one-transaction-per-line-in-flight rule of the bus makes test-and-set
// completions atomic.
#pragma once

#include <cstdint>

#include "bus/transaction.hpp"
#include "cache/cache.hpp"

namespace syncpat::sync {

/// Scheme-private step tags carried on lock transactions.
enum LockStep : std::uint8_t {
  kStepAcquire = 1,   // initial acquire access / exchange
  kStepEnqueue = 2,   // exact queuing lock: second access when enqueueing
  kStepRelease = 3,   // release access
  kStepRelease2 = 4,  // exact queuing lock: post-release access
  kStepSpinRead = 5,  // spin re-read after invalidation
  kStepTas = 6,       // test-and-set attempt
  kStepBarrier = 7,   // barrier arrival (handled by the simulator, not a
                      // lock scheme: the fetch&increment of the counter)
};

/// Services the simulator provides to lock schemes.
class SchemeServices {
 public:
  virtual ~SchemeServices() = default;

  [[nodiscard]] virtual std::uint64_t now() const = 0;
  [[nodiscard]] virtual std::uint32_t num_procs() const = 0;

  /// Issues a transaction on `proc`'s behalf.  `forced` transactions are
  /// atomic operations: they go to the bus even if the line is cached.
  /// `stalls` means the processor waits for completion (on_txn_complete()
  /// fires then); non-stalling issues complete silently.
  virtual void issue_lock_txn(std::uint32_t proc, std::uint32_t line_addr,
                              bus::TxnKind kind, bool forced,
                              bus::StallCause cause, bool stalls,
                              std::uint8_t step) = 0;

  /// Issues a queuing-lock hand-off transfer from `from_proc`.  When the
  /// transfer wins bus arbitration, on_handoff_granted(line_addr) fires.
  virtual void issue_handoff(std::uint32_t from_proc, std::uint32_t line_addr) = 0;

  /// Current coherence state of `line_addr` in `proc`'s cache.
  [[nodiscard]] virtual cache::LineState line_state(std::uint32_t proc,
                                                    std::uint32_t line_addr) const = 0;

  /// Puts `proc` into the lock-wait state.  `spinning` selects in-cache
  /// spinning (invalidation of `spin_line` triggers on_spin_invalidated)
  /// versus passive waiting (queuing lock).  Either way the waiter has no
  /// self-generated future event — only an invalidation, a timer or a
  /// hand-off wakes it — so the DES core settles its wait cycles lazily.
  virtual void proc_wait(std::uint32_t proc, bool spinning,
                         std::uint32_t spin_line) = 0;
  virtual void stop_spin(std::uint32_t proc) = 0;

  /// Resumes `proc`'s trace: the acquire (or release) is complete.
  virtual void proc_acquired(std::uint32_t proc) = 0;
  virtual void proc_release_done(std::uint32_t proc) = 0;

  /// Calls the scheme's on_timer(proc, line_addr) after `delay` cycles
  /// (exponential-backoff schemes).  The processor should be parked with
  /// proc_wait() meanwhile.
  virtual void schedule_timer(std::uint32_t proc, std::uint32_t line_addr,
                              std::uint64_t delay) = 0;
};

class LockScheme {
 public:
  virtual ~LockScheme() = default;

  virtual void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) = 0;
  virtual void begin_release(std::uint32_t proc, std::uint32_t lock_line) = 0;
  virtual void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                               std::uint8_t step) = 0;
  virtual void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) = 0;
  virtual void on_handoff_granted(std::uint32_t /*line_addr*/) {}
  virtual void on_timer(std::uint32_t /*proc*/, std::uint32_t /*line_addr*/) {}

  [[nodiscard]] virtual const char* name() const = 0;

  /// True while `lock_line` is held by a processor other than `proc`
  /// (classifies the stall cause of acquire accesses).
  [[nodiscard]] virtual bool held_by_other(std::uint32_t proc,
                                           std::uint32_t lock_line) const = 0;
};

}  // namespace syncpat::sync
