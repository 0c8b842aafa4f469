#include "core/processor.hpp"

#include "core/simulator.hpp"
#include "sync/scheme.hpp"
#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::core {

using bus::StallCause;
using bus::Transaction;
using bus::TxnKind;
using cache::AccessClass;
using trace::Event;
using trace::Op;

Processor::Processor(std::uint32_t id, trace::TraceSource& source,
                     cache::Cache& cache, bus::BusInterface& iface, Simulator& sim)
    : id_(id), source_(source), cache_(cache), iface_(iface), sim_(sim) {
  has_cur_ = source_.next(cur_);
  if (has_cur_) {
    gap_left_ = cur_.gap;
  } else {
    state_ = ProcState::kDone;
    stats_.completion_cycle = 0;
  }
}

bool Processor::drain_pending() {
  while (!pending_.empty()) {
    if (!iface_.enqueue(pending_.front())) return false;
    pending_.pop_front();
  }
  return true;
}

void Processor::count_stall_cycle() {
  charge(wait_column(), classify_wait_cycle());
}

std::uint64_t ProcStats::*Processor::wait_column() const {
  switch (state_) {
    case ProcState::kWaitMem:
      return cause_column();
    case ProcState::kWaitLock:
    case ProcState::kSpin:
      return &ProcStats::stall_lock;
    case ProcState::kWaitFence:
      return &ProcStats::stall_fence;
    default:
      return &ProcStats::stall_cache;  // kStallStructural
  }
}

obs::StallCat Processor::classify_wait_cycle() const {
  switch (state_) {
    case ProcState::kWaitMem: {
      const Transaction* t = wait_txn_;
      if (t == nullptr) return obs::StallCat::kBusTransfer;
      // A barrier arrival's fetch&increment is barrier time, and any access
      // on behalf of a contended lock is lock-wait time, whatever machine
      // phase the transaction is in; otherwise charge by where the
      // transaction actually is this cycle.
      if (t->lock_step == sync::kStepBarrier) {
        return obs::StallCat::kBarrierWait;
      }
      if (wait_cause_ == StallCause::kLockWait) {
        return obs::StallCat::kLockQueuedWait;
      }
      if (t->coherence_refill) return obs::StallCat::kInvalidationRefill;
      switch (t->phase) {
        case bus::TxnPhase::kQueued:
          return obs::StallCat::kBusArbitration;
        case bus::TxnPhase::kOnBusReq:
        case bus::TxnPhase::kOnBusResp:
        case bus::TxnPhase::kDone:
          return obs::StallCat::kBusTransfer;
        case bus::TxnPhase::kInMemory:
        case bus::TxnPhase::kMemOutput:
          // Under the DSM model the whole memory wait of a remote-home
          // access is charged to remote-access (the node hop dominates and
          // the split would be arbitrary); local accesses and the bus model
          // stay plain memory latency.
          return t->dsm_extra_cycles > 0 ? obs::StallCat::kRemoteAccess
                                         : obs::StallCat::kMemoryLatency;
      }
      return obs::StallCat::kBusTransfer;
    }
    case ProcState::kWaitLock:
      return wait_is_barrier_ ? obs::StallCat::kBarrierWait
                              : obs::StallCat::kLockQueuedWait;
    case ProcState::kSpin:
      return obs::StallCat::kLockSpin;
    case ProcState::kWaitFence:
      // Weak ordering's sync-point drain: time spent emptying the write
      // buffer and outstanding accesses.
      return obs::StallCat::kWriteBufferFull;
    case ProcState::kStallStructural:
      return obs::StallCat::kWriteBufferFull;
    default:
      return obs::StallCat::kCompute;  // unreachable: callers gate on state
  }
}

void Processor::tick() {
  ticked_cycle_ = sim_.now();
  if (state_ == ProcState::kDone) {
    drain_pending();  // trailing buffered writes still drain to the bus
    return;
  }
  drain_pending();

  switch (state_) {
    case ProcState::kRunning:
      if (gap_left_ > 0) {
        charge(&ProcStats::work_cycles, obs::StallCat::kCompute);
        --gap_left_;
        if (gap_left_ > 0) return;
        issue_loop();
        return;
      }
      // Resume/retry cycle (a wake-up re-issuing the current reference or a
      // zero-gap event after a miss): no work executes this cycle, so it is
      // accounted as a stall — every live cycle is work or stall.  The
      // ledger charges it to the wait that caused the resume.
      charge(&ProcStats::stall_cache, resume_cat_);
      issue_loop();
      return;
    case ProcState::kStallStructural:
      count_stall_cycle();
      if (drain_pending()) {
        state_ = ProcState::kRunning;
        issue_loop();
        // A failed retry (e.g., cache set still fully pending) returns to
        // kStallStructural inside issue_loop; the stall was already counted.
      }
      return;
    case ProcState::kWaitFence:
      count_stall_cycle();  // the drain's last cycle is still fence time
      if (!fence_pending()) {
        state_ = ProcState::kRunning;
        issue_loop();  // re-issues the pending lock event
      }
      return;
    case ProcState::kWaitMem:
    case ProcState::kWaitLock:
    case ProcState::kSpin:
      count_stall_cycle();
      return;
    case ProcState::kDone:
      return;
  }
}

void Processor::settle(std::uint64_t cycles, std::uint64_t through_cycle) {
  ticked_cycle_ = through_cycle;
  switch (state_) {
    case ProcState::kRunning:
      // Mirrors tick()'s gap countdown; the issuing tick itself always runs
      // live (the DES core schedules it as this processor's due event).
      SYNCPAT_ASSERT(gap_left_ > cycles);
      charge(&ProcStats::work_cycles, obs::StallCat::kCompute, cycles);
      gap_left_ -= static_cast<std::uint32_t>(cycles);
      break;
    case ProcState::kWaitMem:
    case ProcState::kSpin:
    case ProcState::kWaitLock:
      // Mirrors count_stall_cycle(): the wait's classification is frozen
      // between machine events (the simulator settles before every phase
      // change of wait_txn_, and the one un-touched transition — memory
      // service to memory output — maps to the same category).
      charge(wait_column(), classify_wait_cycle(), cycles);
      break;
    case ProcState::kDone:
      SYNCPAT_ASSERT(pending_.empty());
      break;
    case ProcState::kStallStructural:
    case ProcState::kWaitFence:
      SYNCPAT_ASSERT_MSG(false, "settle on a never-lazy processor state");
  }
}

bool Processor::fence_pending() const {
  return !iface_.empty() || !pending_.empty() ||
         sim_.outstanding_fence(id_) > 0;
}

void Processor::issue_loop() {
  while (state_ == ProcState::kRunning) {
    SYNCPAT_ASSERT(gap_left_ == 0);
    if (!drain_pending()) {
      state_ = ProcState::kStallStructural;
      note_wait_entered();
      return;
    }
    if (!has_cur_) {
      state_ = ProcState::kDone;
      stats_.completion_cycle = sim_.now();
      sim_.proc_finished();
      return;
    }
    const Event e = cur_;
    const IssueResult r = try_issue(e);
    if (r == IssueResult::kStalled) return;
    if (r == IssueResult::kAdvance) advance_after_event();
    // kSelfManaged: the lock scheme advanced us (or changed state, ending
    // the loop via the while condition).
    if (state_ == ProcState::kRunning && gap_left_ > 0) return;
  }
}

void Processor::advance_after_event() {
  has_cur_ = source_.next(cur_);
  if (!has_cur_) {
    state_ = ProcState::kDone;
    stats_.completion_cycle = sim_.now();
    sim_.proc_finished();
    if (ticked_cycle_ != sim_.now()) {
      // Pre-tick wake-up (a memory-absorbed write or a retried fill finalizes
      // before processors tick in Simulator::step).  Mid-trace the woken
      // processor counts this cycle as work or stall at its own tick, but the
      // trace just ended, so that tick will see kDone and count nothing —
      // attribute the final waited cycle here to keep the identity
      // work + stalls == completion_cycle exact.
      charge(cause_column(), resume_cat_);
    }
    gap_left_ = 0;
    return;
  }
  gap_left_ = cur_.gap;
}

Processor::IssueResult Processor::try_issue(const Event& e) {
  if (trace::is_sync_op(e.op)) return issue_lock_op(e);
  return issue_mem_ref(e);
}

Processor::IssueResult Processor::issue_lock_op(const Event& e) {
  // A fenced sync re-issues after the drain; count it once.
  if (!resuming_sync_) ++stats_.syncs;
  if (iface_.model() == bus::ConsistencyModel::kWeak && fence_pending()) {
    if (!resuming_sync_) ++stats_.syncs_with_pending;
    resuming_sync_ = true;
    state_ = ProcState::kWaitFence;
    note_wait_entered();
    return IssueResult::kStalled;
  }
  resuming_sync_ = false;
  const std::uint32_t lock_line = cache_.config().line_addr(e.addr);
  switch (e.op) {
    case Op::kLockAcq:
      sim_.begin_lock_acquire(id_, lock_line);
      break;
    case Op::kLockRel:
      sim_.begin_lock_release(id_, lock_line);
      break;
    case Op::kBarrier:
      sim_.barrier_arrive(id_, lock_line);
      break;
    default:
      SYNCPAT_ASSERT(false);
  }
  return IssueResult::kSelfManaged;
}

Processor::IssueResult Processor::issue_mem_ref(const Event& e) {
  const std::uint32_t line = cache_.config().line_addr(e.addr);
  const AccessClass cls = e.op == Op::kIFetch  ? AccessClass::kIFetch
                          : e.op == Op::kLoad ? AccessClass::kRead
                                              : AccessClass::kWrite;

  const bool weak = iface_.model() == bus::ConsistencyModel::kWeak;
  const bool write_through_store =
      cls == AccessClass::kWrite &&
      sim_.config().write_policy == cache::WritePolicy::kWriteThrough;

  // One tag lookup covers both the in-flight-fill check and the hit/miss
  // classification (write-through stores keep their own counting rules and
  // still need the explicit fill-in-flight probe first).
  cache::AccessResult res;
  if (write_through_store) {
    res.pending = cache_.state(e.addr) == cache::LineState::kPending;
  } else {
    res = cache_.access_or_pending(e.addr, cls);
  }

  // A line with a fill already in flight: merge or wait.
  if (res.pending) {
    Transaction* inflight = sim_.find_proc_txn(id_, line);
    SYNCPAT_ASSERT_MSG(inflight != nullptr,
                       "pending line without an in-flight transaction");
    if (cls == AccessClass::kWrite && inflight->kind == TxnKind::kReadX) {
      return IssueResult::kAdvance;  // the store coalesces into the fill
    }
    wait_for(inflight, WaitMode::kRefRetry, StallCause::kCacheMiss);
    return IssueResult::kStalled;
  }

  // Write-through cache: every store is a one-word memory write on the bus;
  // no line is dirtied and a miss allocates nothing (no-write-allocate).
  if (write_through_store) {
    cache_.access_write_through(e.addr);
    if (Transaction* existing = sim_.find_proc_txn(id_, line);
        existing != nullptr && existing->kind == TxnKind::kWriteThrough) {
      // The previous store to this line is still queued; the words coalesce
      // in the buffer entry (a common write-buffer optimization).
      return IssueResult::kAdvance;
    }
    Transaction* txn =
        sim_.make_txn(TxnKind::kWriteThrough, line,
                      static_cast<std::int32_t>(id_),
                      weak ? StallCause::kNone : StallCause::kCacheMiss,
                      /*fills_line=*/false);
    pending_.push_back(txn);
    if (!weak) {
      wait_for(txn, WaitMode::kRefSatisfied, StallCause::kCacheMiss);
      return IssueResult::kStalled;
    }
    return IssueResult::kAdvance;
  }

  if (res.hit && !res.needs_upgrade) return IssueResult::kAdvance;

  if (res.needs_upgrade) {
    // Write hit on Shared: the invalidation must perform first.
    if (Transaction* existing = sim_.find_proc_txn(id_, line);
        existing != nullptr && existing->is_exclusive_request()) {
      return IssueResult::kAdvance;  // piggyback on the queued upgrade (WO)
    }
    Transaction* txn =
        sim_.make_txn(TxnKind::kUpgrade, line, static_cast<std::int32_t>(id_),
                      StallCause::kCacheMiss, /*fills_line=*/false);
    pending_.push_back(txn);
    if (!weak) {
      wait_for(txn, WaitMode::kRefSatisfied, StallCause::kCacheMiss);
      return IssueResult::kStalled;
    }
    return IssueResult::kAdvance;
  }

  // Miss: reserve a way up front so the fill always has a home, issuing the
  // victim's write-back first.
  const cache::Cache::AllocateResult alloc = cache_.allocate(line);
  if (!alloc.ok) {
    // Every way in the set is awaiting a fill; retry next cycle.
    state_ = ProcState::kStallStructural;
    note_wait_entered();
    return IssueResult::kStalled;
  }
  if (alloc.writeback_line.has_value()) {
    Transaction* wb =
        sim_.make_txn(TxnKind::kWriteBack, *alloc.writeback_line,
                      static_cast<std::int32_t>(id_), StallCause::kNone,
                      /*fills_line=*/false);
    pending_.push_back(wb);
  }

  const bool is_write = cls == AccessClass::kWrite;
  const bool stalls = !weak || !is_write;
  Transaction* txn = sim_.make_txn(
      is_write ? TxnKind::kReadX : TxnKind::kRead, line,
      static_cast<std::int32_t>(id_),
      stalls ? StallCause::kCacheMiss : StallCause::kNone, /*fills_line=*/true);
  // A fetch of a line a remote processor invalidated away from us is a
  // coherence refill (the lost-line marker is consumed here).
  if (lost_lines_.erase(line) > 0) txn->coherence_refill = true;
  pending_.push_back(txn);
  if (stalls) {
    wait_for(txn, WaitMode::kRefSatisfied, StallCause::kCacheMiss);
    return IssueResult::kStalled;
  }
  return IssueResult::kAdvance;
}

void Processor::on_txn_complete(Transaction* txn) {
  SYNCPAT_ASSERT(state_ == ProcState::kWaitMem && txn == wait_txn_);
  wait_txn_ = nullptr;
  state_ = ProcState::kRunning;
  switch (wait_mode_) {
    case WaitMode::kRefSatisfied:
      advance_after_event();
      break;
    case WaitMode::kRefRetry:
      // gap_left_ is already 0: the next tick re-runs issue_loop on the
      // same event.
      break;
    case WaitMode::kLockStep:
      sim_.lock_step_complete(id_, txn->line_addr, txn->lock_step);
      break;
  }
}

void Processor::wait_for(Transaction* txn, WaitMode mode, StallCause cause) {
  txn->requester_waiting = true;
  wait_txn_ = txn;
  wait_mode_ = mode;
  wait_cause_ = cause;
  state_ = ProcState::kWaitMem;
  note_wait_entered();
}

void Processor::stall_on_txn(Transaction* txn) {
  SYNCPAT_ASSERT(state_ == ProcState::kRunning || state_ == ProcState::kSpin ||
                 state_ == ProcState::kWaitLock ||
                 state_ == ProcState::kWaitMem);
  wait_for(txn, WaitMode::kLockStep, txn->stall_cause);
}

void Processor::enter_lock_wait(bool spinning, bool barrier) {
  state_ = spinning ? ProcState::kSpin : ProcState::kWaitLock;
  wait_cause_ = StallCause::kLockWait;  // for the end-of-trace wake attribution
  wait_is_barrier_ = barrier;
  note_wait_entered();
}

void Processor::lock_acquired() {
  state_ = ProcState::kRunning;
  wait_txn_ = nullptr;
  advance_after_event();
}

void Processor::lock_release_done() {
  state_ = ProcState::kRunning;
  wait_txn_ = nullptr;
  advance_after_event();
}

}  // namespace syncpat::core
