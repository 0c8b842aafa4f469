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
//
// Every scheme is built on BasicScheme: one record per lock, the handful of
// bus accesses lock code makes (atomic read-modify-write, releasing store,
// spin read, spin-or-park), and each change of owner paired with its
// LockStatsCollector call.  The queue locks that hand the lock to one
// dequeued waiter (Anderson, MCS, CLH) share HandoffScheme on top of it —
// the shared parts Golab's "Deconstructing Queue-Based Mutual Exclusion"
// builds queue locks from.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "bus/transaction.hpp"
#include "cache/cache.hpp"
#include "sync/lock_stats.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

/// Scheme-private step tags carried on lock transactions.
enum LockStep : std::uint8_t {
  kStepAcquire = 1,   // initial acquire access / exchange
  kStepEnqueue = 2,   // second access when enqueueing (exact queuing lock's
                      // spin-location publish, MCS's link behind its
                      // predecessor)
  kStepRelease = 3,   // release access
  kStepRelease2 = 4,  // post-release access (exact queuing lock's spin-flag
                      // store, MCS's write to its successor's node)
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

  /// Issues a transaction on `proc`'s behalf.  It goes to the bus whether
  /// or not the line is cached: callers that can hit in the cache check
  /// line_state() first.  `stalls` means the processor waits for
  /// completion (on_txn_complete() fires then); non-stalling issues
  /// complete silently.
  virtual void issue_lock_txn(std::uint32_t proc, std::uint32_t line_addr,
                              bus::TxnKind kind, bus::StallCause cause,
                              bool stalls, std::uint8_t step) = 0;

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
};

/// The core of every scheme.  `State` is the per-lock record, keyed by the
/// lock's line address; it has an `owner` field (-1 when free).
template <typename State>
class BasicScheme : public LockScheme {
 public:
  /// A spinner's cached copy died: the spin loop misses and re-reads it.
  void on_spin_invalidated(std::uint32_t proc,
                           std::uint32_t line_addr) override {
    read(proc, line_addr);
  }

 protected:
  BasicScheme(SchemeServices& services, LockStatsCollector& stats)
      : services_(services), stats_(stats) {}

  /// An access stalled behind other processors' use of the lock is lock
  /// wait; an uncontended one is an ordinary memory access (cache-miss
  /// stall), matching the paper's ~0% lock stalls for Pverify despite its
  /// long lock holds.
  [[nodiscard]] static bus::StallCause cause(bool contended) {
    return contended ? bus::StallCause::kLockWait : bus::StallCause::kCacheMiss;
  }

  /// Atomic read-modify-write (test-and-set, swap, fetch&increment) or a
  /// store that always fetches the line: a forced ownership transaction.
  void atomic(std::uint32_t proc, std::uint32_t line, bool contended,
              std::uint8_t step) {
    services_.issue_lock_txn(proc, line, bus::TxnKind::kReadX,
                             cause(contended), /*stalls=*/true, step);
  }

  /// A store that needs the bus: an invalidation when `proc`'s copy is
  /// Shared (its grant-time snoop invalidates every spinner), an ownership
  /// fetch otherwise.  Callers handle the silent M/E case themselves.
  void write(std::uint32_t proc, std::uint32_t line, bool contended,
             std::uint8_t step) {
    const bus::TxnKind kind =
        services_.line_state(proc, line) == cache::LineState::kShared
            ? bus::TxnKind::kUpgrade
            : bus::TxnKind::kReadX;
    services_.issue_lock_txn(proc, line, kind, cause(contended),
                             /*stalls=*/true, step);
  }

  /// The spin loop's read of `line` over the bus.
  void read(std::uint32_t proc, std::uint32_t line, bool contended = true) {
    services_.issue_lock_txn(proc, line, bus::TxnKind::kRead, cause(contended),
                             /*stalls=*/true, kStepSpinRead);
  }

  /// Spins on `line`: parks on a valid cached copy (no bus traffic until an
  /// invalidation), otherwise reads it.
  void spin(std::uint32_t proc, std::uint32_t line) {
    if (cached(proc, line)) {
      services_.proc_wait(proc, /*spinning=*/true, line);
    } else {
      read(proc, line);
    }
  }

  /// `proc` holds a valid (Shared, Exclusive or Modified) copy of `line`.
  [[nodiscard]] bool cached(std::uint32_t proc, std::uint32_t line) const {
    const cache::LineState state = services_.line_state(proc, line);
    return state == cache::LineState::kShared ||
           state == cache::LineState::kExclusive ||
           state == cache::LineState::kModified;
  }
  /// `proc`'s copy of `line` is Modified or Exclusive: a store hits silently.
  [[nodiscard]] bool exclusive(std::uint32_t proc, std::uint32_t line) const {
    const cache::LineState state = services_.line_state(proc, line);
    return state == cache::LineState::kModified ||
           state == cache::LineState::kExclusive;
  }

  /// `proc` takes the lock with `waiters` other processors still waiting.
  void grant(State& lock, std::uint32_t proc, std::uint32_t lock_line,
             std::uint64_t waiters) {
    lock.owner = static_cast<std::int32_t>(proc);
    stats_.acquired(lock_line, proc, services_.now(), waiters);
    services_.proc_acquired(proc);
  }

  /// The lock is released; `transferred` when a waiter will take it, with
  /// `waiters_left` still waiting after that one.
  void free(State& lock, std::uint32_t lock_line, bool transferred,
            std::uint64_t waiters_left) {
    lock.owner = -1;
    stats_.released(lock_line, services_.now(), transferred, waiters_left);
  }

  /// The owner's release begins: the hold time ends here.
  State& begin_release_of(std::uint32_t proc, std::uint32_t lock_line) {
    State& lock = locks_[lock_line];
    SYNCPAT_ASSERT_MSG(lock.owner == static_cast<std::int32_t>(proc),
                       "release by a processor that does not hold the lock");
    stats_.release_issued(lock_line, services_.now());
    return lock;
  }

  SchemeServices& services_;
  std::unordered_map<std::uint32_t, State> locks_;

 private:
  LockStatsCollector& stats_;
};

/// The record of a lock whose release hands it to one dequeued waiter.
struct HandoffState {
  std::int32_t owner = -1;
  bool handoff_pending = false;     // a dequeued waiter's grant is in flight
  std::deque<std::uint32_t> queue;  // waiting procs in acquire order
};

/// Dequeue-and-grant, shared by the queue locks: the releaser dequeues the
/// next waiter, marks its grant in flight and counts the transfer; the
/// waiter takes the lock when its next read completes (take_or_spin).
template <typename State>
class HandoffScheme : public BasicScheme<State> {
 protected:
  using BasicScheme<State>::BasicScheme;

  /// Frees the lock for the queue's front waiter, whose grant is now in
  /// flight; returns that waiter.
  std::uint32_t hand_off(State& lock, std::uint32_t lock_line) {
    const std::uint32_t next = lock.queue.front();
    lock.queue.pop_front();
    lock.handoff_pending = true;
    granted_.insert(next);
    this->free(lock, lock_line, /*transferred=*/true, lock.queue.size());
    return next;
  }

  /// A read by waiting `proc` completed: it takes the lock it waits on if a
  /// release granted it, and otherwise spins on `spin_line`.
  void take_or_spin(std::uint32_t proc, std::uint32_t spin_line) {
    const std::uint32_t lock_line = waiting_on_.at(proc);
    if (granted_.erase(proc) == 0) {
      this->spin(proc, spin_line);
      return;
    }
    State& lock = this->locks_.at(lock_line);
    lock.handoff_pending = false;
    this->grant(lock, proc, lock_line, lock.queue.size());
  }

  std::unordered_set<std::uint32_t> granted_;  // procs whose grant is in flight
  // Queued proc -> the lock line it waits on.
  std::unordered_map<std::uint32_t, std::uint32_t> waiting_on_;
};

}  // namespace syncpat::sync
