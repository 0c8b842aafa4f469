#include "core/simulator.hpp"

#include <algorithm>
#include <bit>

#include "core/invariant_checker.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace syncpat::core {

namespace {

/// Lines a snoop can act on: the holder directory's notion of a holder.
[[nodiscard]] bool is_holder_state(cache::LineState s) {
  return s == cache::LineState::kShared || s == cache::LineState::kExclusive ||
         s == cache::LineState::kModified;
}

/// Transactions find_proc_txn can return, kept in their requester's list.
[[nodiscard]] bool listed_by_proc(const bus::Transaction& txn) {
  return txn.requester >= 0 && txn.kind != bus::TxnKind::kWriteBack &&
         txn.kind != bus::TxnKind::kHandoff;
}

[[nodiscard]] bool is_fifo_scheme(sync::SchemeKind kind) {
  // Schemes whose grant order must follow the bus order of the initial
  // atomic acquire access.  kQueuingExact is excluded: its two-access
  // enqueue admits a benign reordering window (§2.4).
  return kind == sync::SchemeKind::kQueuing ||
         kind == sync::SchemeKind::kTicket ||
         kind == sync::SchemeKind::kAnderson ||
         kind == sync::SchemeKind::kMcs ||
         kind == sync::SchemeKind::kClh;
}

}  // namespace

using bus::StallCause;
using bus::Transaction;
using bus::TxnKind;
using bus::TxnPhase;

Simulator::Simulator(const MachineConfig& config, trace::ProgramTrace& program)
    : cfg_(config),
      program_name_(program.name),
      bus_(bus::BusConfig{
          .ports = static_cast<std::uint32_t>(program.num_procs()) + 1,
          .request_cycles = 1,
          .data_cycles = config.line_transfer_cycles()}),
      holders_(static_cast<std::uint32_t>(program.num_procs())),
      memory_(config.memory),
      des_due_(static_cast<std::uint32_t>(program.num_procs())) {
  SYNCPAT_ASSERT(program.num_procs() > 0);
  discipline_ = bus::make_discipline(cfg_.bus_discipline, bus_.config().ports);
  stamp_order_ = discipline_->stamp_order();
  ready_.assign(util::bit_words(bus_.config().ports), 0);
  memory_free_.assign(ready_.size(), 0);
  SYNCPAT_ASSERT(cfg_.dsm.nodes > 0);
  dsm_procs_per_node_ =
      (static_cast<std::uint32_t>(program.num_procs()) + cfg_.dsm.nodes - 1) /
      cfg_.dsm.nodes;
  program.reset_all();
  const auto nprocs = static_cast<std::uint32_t>(program.num_procs());
  spin_line_.assign(nprocs, 0);
  outstanding_fence_.assign(nprocs, 0);
  proc_txns_.assign(nprocs, nullptr);
  snoop_holders_.resize(nprocs);
  cache_hook_ctx_.resize(nprocs);
  for (std::uint32_t p = 0; p < nprocs; ++p) {
    caches_.push_back(std::make_unique<cache::Cache>(cfg_.cache));
    cache_hook_ctx_[p] = CacheHookCtx{this, p};
    caches_[p]->set_transition_hook(&Simulator::cache_transition_hook,
                                    &cache_hook_ctx_[p]);
    ifaces_.push_back(std::make_unique<bus::BusInterface>(
        p, cfg_.cache_bus_buffer_depth, cfg_.consistency));
    ifaces_[p]->set_queue_hook(&Simulator::iface_queue_hook, this);
  }
  scheme_ = sync::make_scheme(cfg_.lock_scheme, *this, lock_stats_,
                              cfg_.cache.line_bytes);
  if (cfg_.invariants.enabled) {
    checker_ = std::make_unique<InvariantChecker>(
        is_fifo_scheme(cfg_.lock_scheme), nprocs);
  }
  if (cfg_.metrics.enabled) {
    metrics_ = std::make_shared<obs::MetricsRegistry>(cfg_.metrics);
  }
  if (cfg_.trace.enabled) {
    recorder_ = std::make_unique<obs::EventRecorder>(cfg_.trace);
    if (recorder_->wants(obs::category::kLocks)) {
      lock_stats_.set_recorder(recorder_.get());
    }
  }
  observe_bus_ = metrics_ != nullptr || tracing(obs::category::kBus);
  des_acct_.assign(nprocs, 0);
  des_words_ = util::bit_words(nprocs);
  des_due_now_.assign(des_words_, 0);
  des_dirty_.assign(des_words_, 0);
  for (std::uint32_t p = 0; p < nprocs; ++p) {
    procs_.push_back(std::make_unique<Processor>(
        p, *program.per_proc[p], *caches_[p], *ifaces_[p], *this));
    if (procs_.back()->done()) proc_finished();  // empty trace
  }
  update_stop_cycle();
}

Simulator::~Simulator() = default;

bool Simulator::all_done() const { return done_procs_ == procs_.size(); }

SimulationResult Simulator::run() {
  const std::int64_t loop_t0 =
      self_prof_ != nullptr ? obs::SelfProfiler::now_ns() : 0;
  if (cfg_.engine == EngineKind::kDes) {
    run_des();
  } else {
    while (!all_done()) step_cycle();
  }
  if (self_prof_ != nullptr) {
    self_prof_->charge(obs::SelfProfiler::Phase::kEventLoop,
                       obs::SelfProfiler::now_ns() - loop_t0);
  }
  settle_supplies();
  if (checker_) checker_->on_run_end(*this);
  if (recorder_) recorder_->flush();
  if (metrics_) finalize_metrics();
  return collect_results();
}

void Simulator::finalize_metrics() {
  std::uint64_t run_time = 0;
  std::vector<obs::ProcAttribution> ledgers;
  ledgers.reserve(procs_.size());
  for (const auto& p : procs_) {
    run_time = std::max(run_time, p->stats().completion_cycle);
    ledgers.push_back(p->stats().ledger);
  }
  const auto& locks = lock_stats_.per_lock();
  metrics_->finalize(run_time, std::move(ledgers),
                     {locks.begin(), locks.end()});
  metrics_->count("bus.busy_cycles", bus_.busy_cycles());
  metrics_->count("bus.total_cycles", bus_.total_cycles());
  metrics_->count("mem.requests_served", memory_.requests_served());
  metrics_->count("mem.busy_cycles", memory_.busy_cycles());
  metrics_->count("barriers.completed", barriers_completed_);
}

void Simulator::pre_proc_phases() {
  // 1. Fills that were waiting for a cache way.  The list is swapped into a
  // member scratch buffer and rebuilt in place (capacities ping-pong between
  // the two vectors), so the steady state allocates nothing; finalize() can
  // safely run mid-loop because nothing it reaches re-enters fill_retry_.
  if (!fill_retry_.empty()) {
    fill_retry_scratch_.clear();
    fill_retry_scratch_.swap(fill_retry_);
    for (Transaction* txn : fill_retry_scratch_) {
      if (fill_own(txn)) {
        finalize(txn);
      } else {
        fill_retry_.push_back(txn);
      }
    }
  }

  // 2. Memory.
  memory_.tick();
  if (Transaction* response = memory_.pending_response();
      response != nullptr && response->issued_cycle == 0) {
    // Stamp fresh output entries so they are not granted this same cycle
    // (the data is driven onto the bus the cycle after it leaves the
    // module, preserving the paper's 6-cycle uncontended miss).
    response->issued_cycle = cycle_;
    memory_head_changed(response);
  }
  memory_.drain_absorbed_into(absorbed_scratch_);
  for (Transaction* absorbed : absorbed_scratch_) {
    if (absorbed->requester_waiting ||
        (absorbed->requester >= 0 && !absorbed->is_lock_op &&
         absorbed->kind == TxnKind::kWriteThrough)) {
      finalize(absorbed);  // wakes the stalled processor, fence-decrements
    } else {
      retire(absorbed);
    }
  }

  // 2b. Backoff timers.  timers_due_ is member scratch (on_timer may push
  // new timers onto timers_, which must not invalidate this cycle's batch).
  if (!timers_.empty()) {
    timers_due_.clear();
    std::erase_if(timers_, [&](const Timer& t) {
      if (t.fire_cycle > cycle_) return false;
      timers_due_.push_back(t);
      return true;
    });
    for (const Timer& t : timers_due_) scheme_->on_timer(t.proc, t.line_addr);
  }
}

void Simulator::step() {
  step_cycle();
  settle_supplies();
}

void Simulator::settle_supplies() {
  holders_.settle_supplies([&](std::uint32_t proc, std::uint64_t n) {
    caches_[proc]->book_supplies(n);
  });
}

void Simulator::step_cycle() {
  ++cycle_;

  // 1-2b. Deferred fills, memory, backoff timers.
  pre_proc_phases();

  // 3. Processors.
  for (auto& proc : procs_) proc->tick();

  // 4-5. Bus.
  arbitrate();
  if (Transaction* done = bus_.tick()) complete_bus(done);

  if (checker_) checker_->on_cycle(*this);
  if (cycle_ >= stop_cycle_) update_stop_cycle();
}

void Simulator::update_stop_cycle() {
  // The stamps are read only here: the run stops at the first re-read that
  // finds no stamp within kNoProgressLimit cycles of now.
  std::uint64_t progress = 0;
  for (const auto& p : procs_) {
    progress = std::max(progress, p->progress_cycle());
  }
  stop_cycle_ = std::min(progress + kNoProgressLimit, kMaxCycles);
  if (stop_cycle_ <= cycle_) {
    SYNCPAT_ASSERT_MSG(stop_cycle_ < kMaxCycles,
                       "simulation reached kMaxCycles (runaway workload)");
    // DES books a waiting processor's cycles lazily; settle them so the dump
    // shows the counters the tick loop's does.
    if (des_active_) des_settle_all(cycle_);
    std::fprintf(stderr, "deadlock diagnostic at cycle %llu:\n",
                 static_cast<unsigned long long>(cycle_));
    for (const auto& p : procs_) {
      std::fprintf(stderr,
                   "  proc %u state=%d work=%llu lockstall=%llu done=%d\n",
                   p->id(), static_cast<int>(p->state()),
                   static_cast<unsigned long long>(p->stats().work_cycles),
                   static_cast<unsigned long long>(p->stats().stall_lock),
                   p->done() ? 1 : 0);
    }
    std::fprintf(stderr, "  active txns=%zu line_inflight=%u timers=%zu\n",
                 active_.size(), line_inflight_.size(), timers_.size());
    for (const auto& [line, b] : barriers_) {
      std::fprintf(stderr, "  barrier 0x%08x waiting=%zu\n", line,
                   b.waiting.size());
    }
    SYNCPAT_ASSERT_MSG(false, "no simulation progress for 500k cycles");
  }
}

// --------------------------------------------------------------------------
// Discrete-event core
//
// The DES engine runs the same five-phase cycle as step(), but only on
// cycles where something can happen (an "event cycle"), bulk-advancing the
// clock across the gaps.  Two mechanisms make this byte-identical to
// per-cycle ticking:
//
//   * The event-cycle set is conservative: des_next_event() includes every
//     cycle at which any phase of step() could act — processor due times
//     from the queue (issuing ticks, pending-buffer drains, fence/structural
//     re-checks every cycle), deferred fills, the memory module's next state
//     change, waiting memory responses, the bus tenure end, arbitration
//     opportunities while requests are queued, and backoff timers.  On every
//     other cycle, step() provably reduces to per-cycle bookkeeping.
//
//   * That bookkeeping is settled lazily, per processor: a processor whose
//     tick only counts a stall cycle (kWaitMem / kWaitLock / kSpin) or does
//     nothing (kDone) is parked out of the queue, and its un-ticked cycles
//     are booked in bulk — in its pre-mutation state, with tick()'s exact
//     accounting — the moment anything touches it (des_touch at the top of
//     every mutating service).  The settle boundary tracks step()'s phase
//     order, so a wake in phases 1-2b still yields the same phase-3 tick
//     this cycle, and a wake in phases 4-5 books this cycle's stall exactly
//     as the already-passed phase-3 tick would have.
//
// The bus and memory module advance in bulk over the gaps (their per-cycle
// work between events is pure busy/total accounting), so utilization
// denominators and busy counters match per-cycle ticking exactly.

void Simulator::des_settle(std::uint32_t proc, std::uint64_t through_cycle) {
  if (des_acct_[proc] >= through_cycle) return;
  procs_[proc]->settle(through_cycle - des_acct_[proc], through_cycle);
  des_acct_[proc] = through_cycle;
}

void Simulator::des_settle_all(std::uint64_t through_cycle) {
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    des_settle(p, through_cycle);
  }
}

void Simulator::des_mark_dirty(std::uint32_t proc) {
  util::set_bit(des_dirty_.data(), proc);
}

void Simulator::des_touch(std::uint32_t proc) {
  if (!des_active_) return;
  switch (des_phase_) {
    case DesPhase::kPreTick:
      // Before the phase-3 loop: book the pre-mutation stretch, then let the
      // processor take its regular tick this cycle (per-cycle stepping would
      // tick it at phase 3 after this mutation).
      des_settle(proc, cycle_ - 1);
      util::set_bit(des_due_now_.data(), proc);
      break;
    case DesPhase::kProcTick:
      if (proc < des_cur_proc_) {
        // Its phase-3 slot already passed: per-cycle stepping ticked it this
        // cycle before the mutating processor, in pre-mutation state.
        des_settle(proc, cycle_);
      } else if (proc > des_cur_proc_) {
        // Its slot is still ahead: the loop will tick it post-mutation.
        des_settle(proc, cycle_ - 1);
        util::set_bit(des_due_now_.data(), proc);
      }
      // proc == des_cur_proc_: live inside its own tick; nothing to settle.
      break;
    case DesPhase::kPostTick:
      // Phases 4-5: its phase-3 tick this cycle would have seen the
      // pre-mutation state.
      des_settle(proc, cycle_);
      break;
  }
  des_mark_dirty(proc);
}

void Simulator::des_reschedule(std::uint32_t proc) {
  const std::uint64_t delta = procs_[proc]->next_due_delta();
  if (delta == Processor::kNever) {
    des_due_.cancel(proc);
  } else {
    des_due_.schedule(proc, cycle_ + delta);
  }
}

std::uint64_t Simulator::des_next_event() const {
  std::uint64_t t = des_due_.empty() ? Processor::kNever : des_due_.min_key();
  if (t <= cycle_ + 1) return cycle_ + 1;
  if (!fill_retry_.empty()) return cycle_ + 1;
  if (const std::uint32_t d = memory_.next_event_delta(); d > 0) {
    if (d == 1) return cycle_ + 1;
    t = std::min(t, cycle_ + d);
  }
  if (Transaction* r = memory_.pending_response();
      r != nullptr && r->issued_cycle == 0) {
    // A response that surfaced at the output-buffer front behind another one
    // is stamped by phase 2 of the next cycle, and that stamp is observable
    // (it feeds the discipline's grant-wait statistics), so the next cycle
    // is an event regardless of bus state.
    return cycle_ + 1;
  }
  if (bus_.free()) {
    // A grant can happen at the next arbitration: a stamped memory response
    // or any queued request makes the very next cycle an event.  (Whether
    // the grant actually succeeds — line in flight, memory buffer full — is
    // re-decided there, exactly as per-cycle stepping would.)
    if (ready_ifaces_ > 0 || memory_.pending_response() != nullptr) {
      return cycle_ + 1;
    }
  } else {
    t = std::min(t, cycle_ + bus_.busy_remaining());
  }
  for (const Timer& timer : timers_) t = std::min(t, timer.fire_cycle);
  return t;
}

void Simulator::step_des() {
  ++cycle_;
  ++des_stats_.stepped_cycles;
  des_due_.set_floor(cycle_);
  des_due_.take_due(cycle_, des_due_now_.data());

  des_phase_ = DesPhase::kPreTick;
  pre_proc_phases();

  // 3. Processors — only those due this cycle; everyone else's tick would be
  // pure bookkeeping, settled lazily at their next touch.  Touch hooks only
  // ever add bits at or above the running processor's id (a lower id's slot
  // has already passed), so taking the lowest set bit each round preserves
  // the tick loop's id order.
  des_phase_ = DesPhase::kProcTick;
  for (std::uint32_t w = 0; w < des_words_; ++w) {
    for (;;) {
      const std::uint64_t bits = des_due_now_[w];
      if (bits == 0) break;
      const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
      des_due_now_[w] = bits & (bits - 1);
      const std::uint32_t p = w * 64 + b;
      des_cur_proc_ = p;
      des_settle(p, cycle_ - 1);
      procs_[p]->tick();
      des_acct_[p] = cycle_;
      des_mark_dirty(p);
    }
  }

  // 4-5. Bus.
  des_phase_ = DesPhase::kPostTick;
  arbitrate();
  if (Transaction* done = bus_.tick()) complete_bus(done);

  // Every processor whose state this cycle touched gets a fresh due entry.
  for (std::uint32_t w = 0; w < des_words_; ++w) {
    std::uint64_t bits = des_dirty_[w];
    des_dirty_[w] = 0;
    while (bits != 0) {
      des_reschedule(w * 64 +
                     static_cast<std::uint32_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }

  // The caches, the holder directory and active_ — all the checker reads —
  // change only on event cycles, so checking here sees every state
  // per-cycle checks see.
  if (checker_) checker_->on_cycle(*this);
  if (cycle_ >= stop_cycle_) update_stop_cycle();
}

void Simulator::run_des() {
  des_active_ = true;
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    des_acct_[p] = cycle_;
    des_reschedule(p);
  }
  while (!all_done()) {
    // Advance to one cycle before the next event or the stop cycle, whichever
    // comes first; step_des executes that cycle itself.
    const std::uint64_t t = std::min(des_next_event(), stop_cycle_);
    if (const std::uint64_t span = t - 1 - cycle_; span > 0) {
      bus_.free() ? bus_.advance_idle(span) : bus_.advance_busy(span);
      memory_.advance(span);
      cycle_ += span;
      ++des_stats_.spans;
      des_stats_.span_cycles += span;
    }
    step_des();
  }
  // Book the final waited cycles of processors parked out of the queue (the
  // tick loop's last step ticks everyone; ours only ticked the due set).
  des_settle_all(cycle_);
  des_active_ = false;
}

// --------------------------------------------------------------------------
// Transactions

Transaction* Simulator::make_txn(TxnKind kind, std::uint32_t line_addr,
                                 std::int32_t requester, StallCause cause,
                                 bool fills_line, bool lock_op) {
  auto owned = std::make_unique<Transaction>();
  Transaction* txn = owned.get();
  txn->id = next_txn_id_++;
  txn->kind = kind;
  txn->line_addr = line_addr;
  txn->requester = requester;
  txn->stall_cause = cause;
  txn->fills_line = fills_line;
  txn->is_lock_op = lock_op;
  txn->issued_cycle = cycle_;
  txn->created_cycle = cycle_;
  txn->dsm_extra_cycles = dsm_extra_cycles(line_addr, requester);
  active_.emplace(txn->id, std::move(owned));
  if (listed_by_proc(*txn)) {
    Transaction*& head = proc_txns_[static_cast<std::uint32_t>(requester)];
    txn->next_of_proc = head;
    head = txn;
  }

  if (requester >= 0 && txn->counts_for_fence()) {
    ++outstanding_fence_[static_cast<std::uint32_t>(requester)];
  }
  return txn;
}

std::uint32_t Simulator::dsm_extra_cycles(std::uint32_t line_addr,
                                          std::int32_t requester) const {
  // Reflections and memory-internal work (requester < 0) are directory-local;
  // only processor requests whose home node differs pay the remote hop.
  if (cfg_.model != MemModelKind::kDsm || requester < 0) return 0;
  const std::uint32_t home = dsm_home_of(line_addr);
  const std::uint32_t node = dsm_node_of(static_cast<std::uint32_t>(requester));
  return home == node ? 0 : cfg_.dsm.remote_access_cycles;
}

Transaction* Simulator::find_proc_txn(std::uint32_t proc,
                                      std::uint32_t line_addr) const {
  Transaction* found = nullptr;
  for (Transaction* txn = proc_txns_[proc]; txn != nullptr;
       txn = txn->next_of_proc) {
    if (txn->line_addr != line_addr || txn->phase == TxnPhase::kDone) continue;
    if (found == nullptr) {
      found = txn;
      continue;
    }
    // Two live matches (a weak-ordering upgrade overtaken by a write miss on
    // its line): the first one active_ lists, as the processor has always
    // been given.
    for (const auto& [id, owned] : active_) {
      if (owned->requester == static_cast<std::int32_t>(proc) &&
          owned->line_addr == line_addr && owned->phase != TxnPhase::kDone &&
          listed_by_proc(*owned)) {
        return owned.get();
      }
    }
  }
  return found;
}

void Simulator::retire(Transaction* txn) {
  if (listed_by_proc(*txn)) {
    Transaction** link = &proc_txns_[static_cast<std::uint32_t>(txn->requester)];
    while (*link != txn) {
      SYNCPAT_ASSERT_MSG(*link != nullptr, "retired transaction not listed");
      link = &(*link)->next_of_proc;
    }
    *link = txn->next_of_proc;
  }
  const auto it = active_.find(txn->id);
  SYNCPAT_ASSERT(it != active_.end());
  active_.erase(it);
}

// --------------------------------------------------------------------------
// Arbitration and snooping

void Simulator::arbitrate() {
  if (!bus_.free()) return;
  if (ready_ifaces_ == 0 && memory_.pending_response() == nullptr) return;
  ++arb_stats_.rounds;
  // With memory's input buffer full, try_grant refuses every read,
  // read-exclusive, write-back and write-through without side effects, so
  // only the other ports are offered.
  discipline_->offer(
      memory_.input_full() ? memory_free_.data() : ready_.data(), cycle_,
      &Simulator::grant_port, this);
}

bool Simulator::grant_port(void* ctx, std::uint32_t port) {
  auto& sim = *static_cast<Simulator*>(ctx);
  const bool granted =
      port == sim.procs_.size() ? sim.grant_response() : sim.try_grant(port);
  ++sim.arb_stats_.offers;
  if (!granted) ++sim.arb_stats_.refusals;
  return granted;
}

bool Simulator::grant_response() {
  Transaction* response = memory_.pending_response();
  if (response->issued_cycle == cycle_) return false;
  if (response->requester >= 0) {
    des_touch(static_cast<std::uint32_t>(response->requester));
  }
  memory_.pop_response();
  memory_head_changed(nullptr);
  response->phase = TxnPhase::kOnBusResp;
  discipline_->record_grant(static_cast<std::uint32_t>(procs_.size()),
                            cycle_ - response->issued_cycle, true);
  bus_.occupy(response, bus_.config().data_cycles);
  if (observe_bus_) on_bus_tenure(*response, bus_.config().data_cycles);
  return true;
}

void Simulator::memory_head_changed(const Transaction* response) {
  const auto port = static_cast<std::uint32_t>(procs_.size());
  for (std::uint64_t* set : {ready_.data(), memory_free_.data()}) {
    response != nullptr ? util::set_bit(set, port) : util::clear_bit(set, port);
  }
  if (stamp_order_ != nullptr) {
    response != nullptr ? stamp_order_->set(port, response->issued_cycle)
                        : stamp_order_->erase(port);
  }
}

bool Simulator::try_grant(std::uint32_t port) {
  Transaction* txn = ifaces_[port]->head();
  if (txn->issued_cycle == cycle_) return false;
  if (line_inflight_.find(txn->line_addr) != nullptr) return false;

  // An upgrade whose line was invalidated while queued becomes a full
  // ownership miss (the write turned into a write miss, §4.1).
  TxnKind effective = txn->kind;
  if (txn->kind == TxnKind::kUpgrade) {
    const cache::LineState st = caches_[port]->state(txn->line_addr);
    // Shared: a plain invalidation suffices.  Invalid (snooped away while
    // queued) or Pending (a later miss of ours is refetching the line): the
    // write has become a write miss (§4.1) — promote to ReadX.
    if (st != cache::LineState::kShared) {
      effective = TxnKind::kReadX;
      // Invalid means a remote invalidation took the line while this upgrade
      // sat queued, so the refetch is a coherence refill.  The mark changes
      // how the requester's waited cycles classify, so settle it first (the
      // cycles being settled saw the unmarked transaction) — even when the
      // grant is then refused.
      if (st == cache::LineState::kInvalid && !txn->coherence_refill) {
        des_touch(static_cast<std::uint32_t>(txn->requester));
        txn->coherence_refill = true;
      }
    }
  }
  const bool may_need_memory = effective == TxnKind::kRead ||
                               effective == TxnKind::kReadX ||
                               effective == TxnKind::kWriteBack ||
                               effective == TxnKind::kWriteThrough;
  if (may_need_memory && memory_.input_full()) return false;

  // Granted.
  if (txn->requester >= 0) des_touch(static_cast<std::uint32_t>(txn->requester));
  ifaces_[port]->pop_head();
  txn->kind = effective;
  txn->phase = TxnPhase::kOnBusReq;
  discipline_->record_grant(port, cycle_ - txn->issued_cycle, false);
  line_inflight_.find_or_insert(txn->line_addr).txn = txn;

  std::uint32_t occupancy = bus_.config().request_cycles;
  switch (txn->kind) {
    case TxnKind::kUpgrade:
      snoop_others(txn);
      break;
    case TxnKind::kWriteBack:
      occupancy += bus_.config().data_cycles;
      break;
    case TxnKind::kWriteThrough:
      // One word to memory (a single data cycle) + the invalidation snoop.
      occupancy += 1;
      snoop_others(txn);
      break;
    case TxnKind::kHandoff:
      occupancy += bus_.config().data_cycles;
      scheme_->on_handoff_granted(txn->line_addr);
      break;
    case TxnKind::kRead:
    case TxnKind::kReadX: {
      const cache::LineState own = caches_[port]->state(txn->line_addr);
      const bool data_needed = own == cache::LineState::kInvalid ||
                               own == cache::LineState::kPending;
      // If another of our transactions re-fetched the line meanwhile, this
      // one degenerates to an ownership/read broadcast.
      txn->fills_line = data_needed;
      snoop_others(txn);
      if (!data_needed) {
        // Forced atomic on a line we hold: pure ownership broadcast.
        txn->supplied_by_cache = false;
      } else if (txn->supplied_by_cache) {
        occupancy += bus_.config().data_cycles;  // cache-to-cache transfer
      }
      // Otherwise: request phase only; memory supplies via split transaction.
      break;
    }
  }
  bus_.occupy(txn, occupancy);
  if (observe_bus_) on_bus_tenure(*txn, occupancy);

  switch (txn->kind) {
    case TxnKind::kRead: ++traffic_.reads; break;
    case TxnKind::kReadX: ++traffic_.readx; break;
    case TxnKind::kUpgrade: ++traffic_.upgrades; break;
    case TxnKind::kWriteBack: ++traffic_.writebacks; break;
    case TxnKind::kHandoff: ++traffic_.handoffs; break;
    case TxnKind::kWriteThrough: ++traffic_.write_throughs; break;
  }
  if (txn->is_lock_op) ++traffic_.lock_ops;
  if (txn->kind == TxnKind::kRead || txn->kind == TxnKind::kReadX) {
    if (txn->fills_line) {
      txn->supplied_by_cache ? ++traffic_.c2c_supplies
                             : ++traffic_.memory_reads;
    }
  }
  return true;
}

void Simulator::snoop_others(Transaction* txn) {
  const bool exclusive = txn->is_exclusive_request();
  const auto nprocs = static_cast<std::uint32_t>(procs_.size());
  // The snapshot of the holders is taken first: invalidating a holder
  // updates holders_.
  const cache::HolderDirectory::SnoopTargets targets = holders_.snoop_targets(
      txn->line_addr, static_cast<std::uint32_t>(txn->requester), exclusive,
      snoop_holders_.data());
  if (targets.writebacks > 0) {
    // A buffered write-back's owner may no longer hold the line: visit
    // everyone, cache then buffer, as the bus does.
    ++snoop_stats_.writeback_fallbacks;
    for (std::uint32_t q = 0; q < nprocs; ++q) {
      if (static_cast<std::int32_t>(q) != txn->requester) {
        snoop_cache(txn, q, exclusive);
        snoop_buffer(txn, q);
      }
    }
    return;
  }
  if (targets.answered > 0) {
    // Two or more other valid copies are all Shared (an Exclusive or
    // Modified copy is the only valid one), and a read snoop leaves a Shared
    // line Shared: no transition, no invalidation, one supply from each,
    // which the directory books at the next settle_supplies().
    txn->supplied_by_cache = true;
    snoop_stats_.directory_credits += targets.answered;
    return;
  }
  // No buffer holds a write-back of the line and every other cache's snoop
  // is a miss with no effect, so visiting only the holders' caches, in the
  // same ascending order, changes nothing observable.
  for (std::uint32_t i = 0; i < targets.holders; ++i) {
    snoop_cache(txn, snoop_holders_[i], exclusive);
  }
}

void Simulator::snoop_cache(Transaction* txn, std::uint32_t q, bool exclusive) {
  ++snoop_stats_.probes;
  const cache::SnoopResult res = caches_[q]->snoop(txn->line_addr, exclusive);
  if (res.had_line) {
    txn->supplied_by_cache = true;
    if (res.was_dirty) txn->dirty_supplier = true;
  }
  if (res.invalidated) notify_invalidation(q, txn->line_addr);
}

void Simulator::snoop_buffer(Transaction* txn, std::uint32_t q) {
  // Dirty lines waiting in a cache-bus buffer are snoop-visible (§2.2):
  // the buffered write-back is cancelled and the data supplied directly.
  if (Transaction* wb = ifaces_[q]->snoop_writeback(txn->line_addr)) {
    txn->supplied_by_cache = true;
    txn->dirty_supplier = true;
    retire(wb);
  }
}

void Simulator::notify_invalidation(std::uint32_t proc, std::uint32_t line_addr) {
  des_touch(proc);
  procs_[proc]->note_line_lost(line_addr);
  if (spin_line_[proc] == line_addr && line_addr != 0) {
    spin_line_[proc] = 0;
    if (tracing(obs::category::kLocks)) {
      recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kSpinInvalidated,
                                      static_cast<std::int32_t>(proc),
                                      line_addr, 0, 0});
    }
    scheme_->on_spin_invalidated(proc, line_addr);
  }
}

// --------------------------------------------------------------------------
// Completion

void Simulator::complete_bus(Transaction* txn) {
  if (txn->requester >= 0) des_touch(static_cast<std::uint32_t>(txn->requester));
  if (txn->phase == TxnPhase::kOnBusResp) {
    if (!fill_own(txn)) {
      fill_retry_.push_back(txn);
      return;
    }
    finalize(txn);
    return;
  }

  SYNCPAT_ASSERT(txn->phase == TxnPhase::kOnBusReq);
  switch (txn->kind) {
    case TxnKind::kUpgrade: {
      SYNCPAT_ASSERT(txn->requester >= 0);
      const bool ok = caches_[static_cast<std::uint32_t>(txn->requester)]
                          ->complete_upgrade(txn->line_addr);
      SYNCPAT_ASSERT_MSG(ok, "upgrade line vanished while on the bus");
      finalize(txn);
      return;
    }
    case TxnKind::kWriteBack:
    case TxnKind::kWriteThrough:
      txn->phase = TxnPhase::kInMemory;
      release_line(txn);
      memory_.push_request(txn);
      return;
    case TxnKind::kHandoff:
      finalize(txn);
      return;
    case TxnKind::kRead:
    case TxnKind::kReadX: {
      if (!txn->fills_line) {
        // Ownership broadcast on a line the requester already holds.
        if (txn->kind == TxnKind::kReadX) {
          caches_[static_cast<std::uint32_t>(txn->requester)]->force_modified(
              txn->line_addr);
        }
        finalize(txn);
        return;
      }
      if (txn->supplied_by_cache) {
        if (txn->dirty_supplier && txn->kind == TxnKind::kRead) {
          // Illinois reflection: a dirty supplier updates memory during the
          // transfer; model the memory-side cost with an absorbed write.
          Transaction* reflect = make_txn(TxnKind::kWriteBack, txn->line_addr,
                                          /*requester=*/-2, StallCause::kNone,
                                          /*fills_line=*/false);
          reflect->phase = TxnPhase::kInMemory;
          memory_.push_request(reflect);
        }
        if (!fill_own(txn)) {
          fill_retry_.push_back(txn);
          return;
        }
        finalize(txn);
        return;
      }
      txn->phase = TxnPhase::kInMemory;
      txn->issued_cycle = 0;  // re-stamped when it reaches the output buffer
      memory_.push_request(txn);
      return;
    }
  }
}

bool Simulator::fill_own(Transaction* txn) {
  SYNCPAT_ASSERT(txn->requester >= 0);
  des_touch(static_cast<std::uint32_t>(txn->requester));
  cache::Cache& cache = *caches_[static_cast<std::uint32_t>(txn->requester)];
  const cache::LineState st = cache.state(txn->line_addr);
  const cache::LineState final_state =
      txn->kind == TxnKind::kReadX ? cache::LineState::kModified
      : txn->supplied_by_cache     ? cache::LineState::kShared
                                   : cache::LineState::kExclusive;
  switch (st) {
    case cache::LineState::kPending:
      cache.fill(txn->line_addr, final_state);
      return true;
    case cache::LineState::kInvalid: {
      const cache::Cache::AllocateResult alloc = cache.allocate(txn->line_addr);
      if (!alloc.ok) return false;  // all ways awaiting fills; retried later
      if (alloc.writeback_line.has_value()) {
        Transaction* wb = make_txn(TxnKind::kWriteBack, *alloc.writeback_line,
                                   txn->requester, StallCause::kNone,
                                   /*fills_line=*/false);
        procs_[static_cast<std::uint32_t>(txn->requester)]->push_pending(wb);
      }
      cache.fill(txn->line_addr, final_state);
      return true;
    }
    default:
      // Forced atomic on a line we already hold.
      if (txn->kind == TxnKind::kReadX) cache.force_modified(txn->line_addr);
      return true;
  }
}

void Simulator::release_line(const Transaction* txn) {
  if (InflightLine* slot = line_inflight_.find(txn->line_addr);
      slot != nullptr && slot->txn == txn) {
    line_inflight_.erase(*slot);
  }
}

void Simulator::finalize(Transaction* txn) {
  if (txn->requester >= 0) des_touch(static_cast<std::uint32_t>(txn->requester));
  release_line(txn);
  txn->phase = TxnPhase::kDone;

  if (txn->requester >= 0 && txn->counts_for_fence()) {
    auto& count = outstanding_fence_[static_cast<std::uint32_t>(txn->requester)];
    SYNCPAT_ASSERT(count > 0);
    --count;
  }
  if (txn->requester >= 0 && tracing(obs::category::kBus)) {
    recorder_->emit(obs::TraceEvent{
        cycle_, obs::EventKind::kBusComplete, txn->requester, txn->line_addr,
        cycle_ - txn->created_cycle, static_cast<std::uint64_t>(txn->kind)});
  }
  if (txn->requester_waiting) {
    SYNCPAT_ASSERT(txn->requester >= 0);
    procs_[static_cast<std::uint32_t>(txn->requester)]->on_txn_complete(txn);
  }
  retire(txn);
}

// --------------------------------------------------------------------------
// Barriers

void Simulator::barrier_arrive(std::uint32_t proc, std::uint32_t line_addr) {
  // The arrival is an atomic fetch&increment of the barrier counter: one
  // ownership transaction; waiting afterwards is quiet (queuing style).
  const BarrierState& b = barriers_[line_addr];
  const StallCause cause = b.waiting.empty() ? StallCause::kCacheMiss
                                             : StallCause::kLockWait;
  issue_lock_txn(proc, line_addr, TxnKind::kReadX, cause, /*stalls=*/true,
                 sync::kStepBarrier);
}

void Simulator::lock_step_complete(std::uint32_t proc, std::uint32_t line_addr,
                                   std::uint8_t step) {
  if (step != sync::kStepBarrier) {
    if (checker_) checker_->on_lock_step(proc, line_addr, step);
    scheme_->on_txn_complete(proc, line_addr, step);
    return;
  }
  BarrierState& b = barriers_[line_addr];
  barrier_waiters_at_arrival_.add(static_cast<double>(b.waiting.size()));
  if (tracing(obs::category::kBarriers)) {
    recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kBarrierArrive,
                                    static_cast<std::int32_t>(proc), line_addr,
                                    b.waiting.size(), 0});
  }
  if (b.waiting.size() + 1 == procs_.size()) {
    // Last arrival: release everyone.
    ++barriers_completed_;
    for (const BarrierState::Arrival& a : b.waiting) {
      barrier_wait_.add(static_cast<double>(cycle_ - a.cycle));
      des_touch(a.proc);
      procs_[a.proc]->lock_acquired();
    }
    barrier_wait_.add(0.0);  // the last arriver does not wait
    b.waiting.clear();
    des_touch(proc);
    procs_[proc]->lock_acquired();
    if (tracing(obs::category::kBarriers)) {
      recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kBarrierRelease,
                                      static_cast<std::int32_t>(proc),
                                      line_addr, procs_.size(), 0});
    }
  } else {
    b.waiting.push_back(BarrierState::Arrival{proc, cycle_});
    des_touch(proc);
    procs_[proc]->enter_lock_wait(/*spinning=*/false, /*barrier=*/true);
  }
}

// --------------------------------------------------------------------------
// SchemeServices

void Simulator::issue_lock_txn(std::uint32_t proc, std::uint32_t line_addr,
                               TxnKind kind, StallCause cause, bool stalls,
                               std::uint8_t step) {
  des_touch(proc);
  Transaction* txn = make_txn(kind, line_addr, static_cast<std::int32_t>(proc),
                              cause, /*fills_line=*/false, /*lock_op=*/true);
  txn->lock_step = step;
  if (stalls) {
    spin_line_[proc] = 0;  // leaving any spin
    procs_[proc]->stall_on_txn(txn);
  }
  procs_[proc]->push_pending(txn);
}

void Simulator::issue_handoff(std::uint32_t from_proc, std::uint32_t line_addr) {
  des_touch(from_proc);
  Transaction* txn =
      make_txn(TxnKind::kHandoff, line_addr,
               static_cast<std::int32_t>(from_proc), StallCause::kNone,
               /*fills_line=*/false, /*lock_op=*/true);
  procs_[from_proc]->push_pending(txn);
}

cache::LineState Simulator::line_state(std::uint32_t proc,
                                       std::uint32_t line_addr) const {
  return caches_[proc]->state(line_addr);
}

void Simulator::proc_wait(std::uint32_t proc, bool spinning,
                          std::uint32_t spin_line) {
  des_touch(proc);
  if (spinning) {
    SYNCPAT_ASSERT_MSG(
        line_state(proc, spin_line) != cache::LineState::kInvalid,
        "spin registration requires a valid cached copy");
    spin_line_[proc] = spin_line;
  }
  procs_[proc]->enter_lock_wait(spinning);
}

void Simulator::proc_acquired(std::uint32_t proc) {
  des_touch(proc);
  if (checker_) checker_->on_acquired(proc);
  spin_line_[proc] = 0;
  procs_[proc]->lock_acquired();
}

void Simulator::proc_release_done(std::uint32_t proc) {
  des_touch(proc);
  if (checker_) checker_->on_release_done(proc);
  procs_[proc]->lock_release_done();
}

void Simulator::begin_lock_acquire(std::uint32_t proc, std::uint32_t lock_line) {
  if (checker_) checker_->on_begin_acquire(proc, lock_line);
  if (tracing(obs::category::kLocks)) {
    recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kAcquireBegin,
                                    static_cast<std::int32_t>(proc), lock_line,
                                    0, 0});
  }
  scheme_->begin_acquire(proc, lock_line);
}

void Simulator::begin_lock_release(std::uint32_t proc, std::uint32_t lock_line) {
  if (checker_) checker_->on_begin_release(proc, lock_line);
  if (tracing(obs::category::kLocks)) {
    recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kReleaseBegin,
                                    static_cast<std::int32_t>(proc), lock_line,
                                    0, 0});
  }
  scheme_->begin_release(proc, lock_line);
}

void Simulator::on_bus_tenure(const bus::Transaction& txn,
                              std::uint32_t cycles) {
  if (metrics_ != nullptr) metrics_->bus().add(cycle_, cycles);
  if (tracing(obs::category::kBus)) {
    // Bit 8 of the payload distinguishes the split-transaction response
    // tenure from the request tenure.
    const std::uint64_t kind =
        static_cast<std::uint64_t>(txn.kind) |
        (txn.phase == TxnPhase::kOnBusResp ? 0x100u : 0u);
    recorder_->emit(obs::TraceEvent{cycle_, obs::EventKind::kBusGrant,
                                    txn.requester, txn.line_addr, kind,
                                    cycles});
  }
}

void Simulator::cache_transition_hook(void* ctx, std::uint32_t line_addr,
                                      cache::LineState from,
                                      cache::LineState to) {
  const auto* hook = static_cast<const CacheHookCtx*>(ctx);
  Simulator& sim = *hook->sim;
  const bool held = is_holder_state(from);
  if (held != is_holder_state(to)) {
    held ? sim.holders_.remove_holder(line_addr, hook->proc)
         : sim.holders_.add_holder(line_addr, hook->proc);
  }
  if (sim.checker_) sim.checker_->on_transition(line_addr, from, to);
  if (sim.tracing(obs::category::kCoherence)) {
    sim.recorder_->emit(obs::TraceEvent{
        sim.cycle_, obs::EventKind::kMesiTransition,
        static_cast<std::int32_t>(hook->proc), line_addr,
        static_cast<std::uint64_t>(from), static_cast<std::uint64_t>(to)});
  }
}

void Simulator::iface_queue_hook(void* ctx, const bus::BusInterface& iface,
                                 const Transaction& txn, bool entered) {
  Simulator& sim = *static_cast<Simulator*>(ctx);
  const std::uint32_t port = iface.proc_id();
  if (entered ? iface.size() == 1 : iface.empty()) {
    entered ? util::set_bit(sim.ready_.data(), port)
            : util::clear_bit(sim.ready_.data(), port);
    entered ? ++sim.ready_ifaces_ : --sim.ready_ifaces_;
  }
  const Transaction* head = iface.head();
  head != nullptr && (head->kind == TxnKind::kUpgrade ||
                      head->kind == TxnKind::kHandoff)
      ? util::set_bit(sim.memory_free_.data(), port)
      : util::clear_bit(sim.memory_free_.data(), port);
  // A head's stamp never changes while it is queued, so setting an unchanged
  // head again is a no-op.
  if (sim.stamp_order_ != nullptr) {
    head != nullptr ? sim.stamp_order_->set(port, head->issued_cycle)
                    : sim.stamp_order_->erase(port);
  }
  if (txn.kind == TxnKind::kWriteBack) {
    entered ? sim.holders_.add_writeback(txn.line_addr)
            : sim.holders_.remove_writeback(txn.line_addr);
  }
}

void Simulator::set_scheme_for_test(std::unique_ptr<sync::LockScheme> scheme) {
  scheme_ = std::move(scheme);
}

void Simulator::schedule_timer(std::uint32_t proc, std::uint32_t line_addr,
                               std::uint64_t delay) {
  timers_.push_back(Timer{cycle_ + std::max<std::uint64_t>(delay, 1), proc,
                          line_addr});
}

// --------------------------------------------------------------------------
// Results

SimulationResult Simulator::collect_results() const {
  SimulationResult result;
  result.program = program_name_;
  result.scheme = sync::scheme_kind_name(cfg_.lock_scheme);
  result.consistency = bus::consistency_name(cfg_.consistency);
  result.num_procs = static_cast<std::uint32_t>(procs_.size());
  result.locks = lock_stats_.total();
  result.bus_utilization = bus_.utilization();
  result.barriers_completed = barriers_completed_;
  result.barrier_wait_cycles = barrier_wait_;
  result.barrier_waiters_at_arrival = barrier_waiters_at_arrival_;
  result.traffic = traffic_;
  result.discipline.name = discipline_->name();
  result.discipline.grants = discipline_->stats().grants;
  result.discipline.memory_grants = discipline_->stats().memory_grants;
  result.discipline.max_grant_wait = discipline_->stats().max_grant_wait;
  result.discipline.grant_wait = discipline_->stats().grant_wait;

  std::uint64_t stall_cache = 0, stall_lock = 0, stall_fence = 0;
  double util_sum = 0.0;
  std::uint64_t w_hits = 0, w_misses = 0, r_hits = 0, r_misses = 0;
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    const ProcStats& ps = procs_[p]->stats();
    ProcResult pr;
    pr.work_cycles = ps.work_cycles;
    pr.stall_cache = ps.stall_cache;
    pr.stall_lock = ps.stall_lock;
    pr.stall_fence = ps.stall_fence;
    pr.completion_cycle = ps.completion_cycle;
    pr.utilization = ps.utilization();
    result.per_proc.push_back(pr);

    result.run_time = std::max(result.run_time, ps.completion_cycle);
    util_sum += ps.utilization();
    stall_cache += ps.stall_cache;
    stall_lock += ps.stall_lock;
    stall_fence += ps.stall_fence;
    result.syncs += ps.syncs;
    result.syncs_with_pending += ps.syncs_with_pending;

    const cache::CacheStats& cs = caches_[p]->stats();
    w_hits += cs.write_hits;
    w_misses += cs.write_misses;
    r_hits += cs.read_hits + cs.ifetch_hits;
    r_misses += cs.read_misses + cs.ifetch_misses;
    result.read_bypasses += ifaces_[p]->bypasses();
  }
  result.avg_utilization = util_sum / static_cast<double>(procs_.size());

  const std::uint64_t stalls = stall_cache + stall_lock + stall_fence;
  if (stalls > 0) {
    // Fence stalls fold into the cache-miss share (they wait on memory).
    result.stall_cache_pct =
        100.0 * static_cast<double>(stall_cache + stall_fence) /
        static_cast<double>(stalls);
    result.stall_lock_pct =
        100.0 * static_cast<double>(stall_lock) / static_cast<double>(stalls);
  }
  if (w_hits + w_misses > 0) {
    result.write_hit_ratio = static_cast<double>(w_hits) /
                             static_cast<double>(w_hits + w_misses);
  }
  if (r_hits + r_misses > 0) {
    result.read_hit_ratio = static_cast<double>(r_hits) /
                            static_cast<double>(r_hits + r_misses);
  }
  return result;
}

}  // namespace syncpat::core
