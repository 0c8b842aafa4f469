// Processor model (paper §2.1-§2.2).
//
// A processor replays its trace: each event costs `gap` work cycles of
// execution (the MPTrace per-instruction cycle counts) and then issues its
// reference.  Cache hits cost nothing extra; misses create bus transactions
// and stall the processor according to the consistency model:
//
//   * sequential consistency: every miss — read, write, or upgrade — stalls
//     until the access performs;
//   * weak ordering: only read (load/ifetch) misses stall; writes, upgrades
//     and write-backs are buffered (the cache-bus buffer applies the read-
//     bypass placement), and a full buffer is the only thing that makes a
//     write stall.  At every lock/unlock the processor first drains its
//     buffer and outstanding accesses (the fence of weak ordering rules 2-3).
//
// Lock events are handed to the LockScheme, which drives this processor via
// stall_on_txn()/enter_lock_wait()/lock_acquired()/lock_release_done().
//
// Stall cycles are attributed per cycle to "cache miss" or "lock wait"
// exactly as the paper's Tables 3/5 split them: waiting for a lock held by
// another processor is lock wait; a lock operation's own uncontended memory
// access is an ordinary cache-miss stall.  The same charge also books the
// cycle in the 10-category stall ledger (obs/stall_attribution.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "bus/interface.hpp"
#include "bus/transaction.hpp"
#include "cache/cache.hpp"
#include "obs/stall_attribution.hpp"
#include "trace/source.hpp"
#include "util/flat_table.hpp"

namespace syncpat::core {

class Simulator;

enum class ProcState : std::uint8_t {
  kRunning,          // executing work cycles / issuing references
  kStallStructural,  // cache set or buffer momentarily unavailable; retrying
  kWaitMem,          // stalled on a transaction
  kWaitLock,         // passively waiting for a lock (queuing)
  kSpin,             // spinning on a cached lock line (T&T&S / ticket)
  kWaitFence,        // weak ordering: draining at a sync point
  kDone,
};

struct ProcStats {
  std::uint64_t work_cycles = 0;
  std::uint64_t stall_cache = 0;
  std::uint64_t stall_lock = 0;
  std::uint64_t stall_fence = 0;
  std::uint64_t completion_cycle = 0;
  std::uint64_t syncs = 0;
  std::uint64_t syncs_with_pending = 0;  // fence found unfinished accesses
  /// Where the work + stall cycles went, by machine-level cause; charged
  /// with the columns above, so it sums to completion_cycle.
  obs::ProcAttribution ledger;

  [[nodiscard]] std::uint64_t total_stalls() const {
    return stall_cache + stall_lock + stall_fence;
  }
  [[nodiscard]] double utilization() const {
    const std::uint64_t total = completion_cycle;
    return total > 0 ? static_cast<double>(work_cycles) /
                           static_cast<double>(total)
                     : 1.0;
  }
};

class Processor {
 public:
  Processor(std::uint32_t id, trace::TraceSource& source, cache::Cache& cache,
            bus::BusInterface& iface, Simulator& sim);

  void tick();

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool done() const { return state_ == ProcState::kDone; }
  [[nodiscard]] ProcState state() const { return state_; }
  [[nodiscard]] const ProcStats& stats() const { return stats_; }
  /// The cycle through which this processor's trace has progressed: on
  /// taking an event, now plus the event's gap of work cycles; at trace end,
  /// now.  Retries and spins do not move it.  The simulator's stop rule
  /// reads it.
  [[nodiscard]] std::uint64_t progress_cycle() const { return progress_cycle_; }

  /// A remote snoop invalidated `line` in this processor's cache: its next
  /// miss on the line is booked as an invalidation refill.
  void note_line_lost(std::uint32_t line) {
    lost_lines_.find_or_insert(line).lost = true;
  }

  // --- simulator/scheme entry points -------------------------------------

  /// Queues a transaction for this processor's cache-bus buffer.
  void push_pending(bus::Transaction* txn) { pending_.push_back(txn); }

  /// The transaction this processor stalls on completed.
  void on_txn_complete(bus::Transaction* txn);

  /// Lock scheme: stall until `txn` completes (on_txn_complete will forward
  /// to the scheme).
  void stall_on_txn(bus::Transaction* txn);
  /// Lock scheme: wait for the lock (spinning or passively).  `barrier`
  /// re-attributes the wait to the barrier category (the simulator's barrier
  /// path parks arrivals through the same passive-wait machinery).
  void enter_lock_wait(bool spinning, bool barrier = false);
  /// Lock scheme: the acquire (or release) finished; resume the trace.
  void lock_acquired();
  void lock_release_done();

  [[nodiscard]] bool fence_pending() const;

  // --- discrete-event core -------------------------------------------------

  /// "No self-generated future event": returned by next_due_delta() for
  /// processors that only react to external stimuli (waiters on a
  /// transaction, spinners, passive lock/barrier waiters, finished traces).
  static constexpr std::uint64_t kNever = ~0ULL;

  /// Cycles until this processor's next tick() can do anything beyond the
  /// per-cycle bookkeeping that settle() reproduces in bulk, from its own
  /// state alone (the DES core layers machine events — completions,
  /// invalidations, timers — on top and re-schedules at each one):
  ///   * pending transactions to drain: 1 (every tick drains);
  ///   * kRunning: the issuing tick, gap_left_ away (1 at gap 0);
  ///   * kStallStructural / kWaitFence: 1 — these re-examine machine state
  ///     every tick and are never settled lazily;
  ///   * kWaitMem / kWaitLock / kSpin / kDone: kNever — pure stall counting
  ///     (or nothing) until an external event arrives.
  /// Inline: the DES core calls this for every processor it re-schedules.
  [[nodiscard]] std::uint64_t next_due_delta() const {
    if (!pending_.empty()) return 1;
    switch (state_) {
      case ProcState::kRunning:
        return gap_left_ > 0 ? gap_left_ : 1;
      case ProcState::kStallStructural:
      case ProcState::kWaitFence:
        return 1;
      case ProcState::kWaitMem:
      case ProcState::kWaitLock:
      case ProcState::kSpin:
      case ProcState::kDone:
        return kNever;
    }
    return 1;
  }

  /// Bulk-accounts `cycles` un-ticked cycles ending at `through_cycle`
  /// exactly as that many tick() calls would, given that nothing external
  /// touched this processor over the span (the DES core settles before every
  /// mutation).  Also stamps ticked_cycle_ = through_cycle so the
  /// end-of-trace wake attribution in advance_after_event() sees the same
  /// pre-tick/post-tick distinction as per-cycle execution.
  void settle(std::uint64_t cycles, std::uint64_t through_cycle);

 private:
  enum class WaitMode : std::uint8_t {
    kRefSatisfied,  // completion satisfies the current event; advance
    kRefRetry,      // completion requires re-executing the current event
    kLockStep,      // forward completion to the lock scheme
  };
  enum class IssueResult : std::uint8_t {
    kAdvance,      // event done; move to the next one
    kStalled,      // state changed; stop issuing
    kSelfManaged,  // lock op: the scheme advanced or stalled us already
  };

  void issue_loop();
  IssueResult try_issue(const trace::Event& e);
  IssueResult issue_mem_ref(const trace::Event& e);
  IssueResult issue_lock_op(const trace::Event& e);
  /// Stalls in kWaitMem until `txn` completes: marks its requester waiting,
  /// records how on_txn_complete() resumes (`mode`) and which paper column
  /// the stall counts in (`cause`).
  void wait_for(bus::Transaction* txn, WaitMode mode, bus::StallCause cause);
  void advance_after_event();
  /// Moves pending transactions into the interface buffer; true when empty.
  bool drain_pending();
  void count_stall_cycle();

  /// Books `n` cycles once: the paper column and the ledger category.
  void charge(std::uint64_t ProcStats::*column, obs::StallCat cat,
              std::uint64_t n = 1) {
    stats_.*column += n;
    stats_.ledger.charge(cat, n);
    resume_cat_ = cat;
  }
  /// The paper column a stall cycle counts in, by the cause of the wait.
  [[nodiscard]] std::uint64_t ProcStats::*cause_column() const {
    return wait_cause_ == bus::StallCause::kLockWait ? &ProcStats::stall_lock
                                                     : &ProcStats::stall_cache;
  }
  /// The paper column of the current wait state's cycles.
  [[nodiscard]] std::uint64_t ProcStats::*wait_column() const;
  /// The ledger category of the current wait state's cycles.  Only called
  /// with state_ a wait state.
  [[nodiscard]] obs::StallCat classify_wait_cycle() const;
  /// Primes resume_cat_ at every wait-state entry, so a wake that arrives
  /// before this processor ever counted a stall cycle (e.g. a timer firing
  /// in the next cycle's pre-tick phases) still resumes with the right
  /// category.
  void note_wait_entered() { resume_cat_ = classify_wait_cycle(); }

  std::uint32_t id_;
  trace::TraceSource& source_;
  cache::Cache& cache_;
  bus::BusInterface& iface_;
  Simulator& sim_;

  ProcState state_ = ProcState::kRunning;
  trace::Event cur_{};
  bool has_cur_ = false;
  std::uint32_t gap_left_ = 0;

  bool resuming_sync_ = false;  // re-issuing a lock event after its fence
  // Transactions waiting for room in the cache-bus buffer, oldest first.
  // Only a few at a time (issue_loop() stalls until they drain), so a
  // vector popped at the front, which allocates nothing until its first
  // push: a std::deque allocates 576 bytes on construction, for each
  // processor of a P = 1024 machine before it has issued anything.
  std::vector<bus::Transaction*> pending_;
  bus::Transaction* wait_txn_ = nullptr;
  WaitMode wait_mode_ = WaitMode::kRefSatisfied;
  bus::StallCause wait_cause_ = bus::StallCause::kCacheMiss;
  std::uint64_t ticked_cycle_ = 0;  // last cycle whose tick() ran

  ProcStats stats_;
  std::uint64_t progress_cycle_ = 0;

  /// Category charged for a resume/retry cycle (the gap-0 stall tick() books
  /// after a wake) and for the end-of-trace pre-tick-wake cycle: the cause of
  /// the wait just left (the last category charged, or the wait entered).
  obs::StallCat resume_cat_ = obs::StallCat::kCompute;
  bool wait_is_barrier_ = false;  // current kWaitLock parks a barrier arrival
  /// Lines snooped away from this cache and not missed on since; the next
  /// miss on one is a coherence refill and consumes the marker.
  struct LostLine {
    std::uint32_t key = 0;  // the line
    bool lost = false;
    [[nodiscard]] bool empty() const { return !lost; }
  };
  util::FlatTable<LostLine> lost_lines_;
};

}  // namespace syncpat::core
