// Cycle-driven simulator of the whole machine (paper §2.2).
//
// Per-cycle phase order (chosen so that an uncontended miss stalls exactly
// 1 + memory + line-transfer = 6 cycles, the paper's figure):
//   1. deferred completions (fills that waited for a cache way);
//   2. memory module tick;
//   3. processor ticks (work, issue, stall accounting);
//   4. bus arbitration (the service discipline; snoop happens at grant);
//   5. bus advance; transaction completions (fills, wake-ups, lock steps).
//
// Coherence ordering: at most one transaction per line is in flight at any
// moment (the arbiter refuses a grant while the line is busy), which is how
// a real snooping bus with pending-request NACK/retry behaves and what makes
// lock test-and-set completions atomic.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bus/bus.hpp"
#include "bus/interface.hpp"
#include "bus/service_discipline.hpp"
#include "cache/cache.hpp"
#include "cache/holder_directory.hpp"
#include "core/event_queue.hpp"
#include "core/machine_config.hpp"
#include "core/processor.hpp"
#include "core/results.hpp"
#include "mem/memory.hpp"
#include "obs/event_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profile.hpp"
#include "sync/lock_stats.hpp"
#include "sync/scheme.hpp"
#include "trace/source.hpp"
#include "util/flat_table.hpp"

namespace syncpat::core {

class InvariantChecker;

/// Bookkeeping of the discrete-event core (see run_des()).  Purely
/// diagnostic: every skipped cycle is bulk-accounted into the same counters
/// stepping feeds, so results never depend on these.
struct DesStats {
  std::uint64_t stepped_cycles = 0;  // event cycles executed by step_des()
  std::uint64_t spans = 0;           // bulk advances between event cycles
  std::uint64_t span_cycles = 0;     // cycles covered by those advances
};

/// Host work of snoop_others() (diagnostic, like DesStats).  A snoop visits
/// only the line's holders, unless a write-back of the line waits in a
/// cache-bus buffer; then it falls back to visiting every other processor.
/// A read with two or more other holders is answered from the directory in
/// O(1), without a Cache::snoop call: each of those holders is owed its
/// supply, which reaches CacheStats::supplies at the end of run() and of
/// every step().
struct SnoopStats {
  std::uint64_t probes = 0;               // Cache::snoop calls
  std::uint64_t directory_credits = 0;    // supplies owed without a call
  std::uint64_t writeback_fallbacks = 0;  // snoops that visited everyone
};

/// Host work of arbitrate() (diagnostic, like DesStats; both engines count
/// the same).  A round is one ServiceDiscipline::offer call; each port it
/// hands to the arbiter is an offer, and an offer the port cannot take (line
/// in flight, memory input full, a request issued this cycle) is a refusal.
struct ArbitrationStats {
  std::uint64_t rounds = 0;    // arbitration rounds that reached offer()
  std::uint64_t offers = 0;    // ports offered over those rounds
  std::uint64_t refusals = 0;  // offers that did not win the bus
};

class Simulator final : public sync::SchemeServices {
 public:
  /// The runaway bound: no run executes a cycle past it.
  static constexpr std::uint64_t kMaxCycles = 4'000'000'000ULL;

  /// The program trace must outlive the simulator; sources are reset on
  /// construction.
  Simulator(const MachineConfig& config, trace::ProgramTrace& program);
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs to completion of every processor's trace on config().engine.  The
  /// DES core and the per-cycle tick loop produce byte-identical results.
  SimulationResult run();

  /// Single-step interface for tests.  Always advances exactly one cycle on
  /// the per-cycle tick machinery; the DES core only engages inside run().
  /// Like run(), it leaves every cache's statistics complete.
  void step();
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] SimulationResult collect_results() const;

  [[nodiscard]] const DesStats& des_stats() const { return des_stats_; }
  [[nodiscard]] const SnoopStats& snoop_stats() const { return snoop_stats_; }
  [[nodiscard]] const ArbitrationStats& arbitration_stats() const {
    return arb_stats_;
  }
  /// The engine run() will use.
  [[nodiscard]] EngineKind engine() const { return cfg_.engine; }

  // --- SchemeServices ------------------------------------------------------
  [[nodiscard]] std::uint64_t now() const override { return cycle_; }
  [[nodiscard]] std::uint32_t num_procs() const override {
    return static_cast<std::uint32_t>(procs_.size());
  }
  void issue_lock_txn(std::uint32_t proc, std::uint32_t line_addr,
                      bus::TxnKind kind, bus::StallCause cause, bool stalls,
                      std::uint8_t step) override;
  void issue_handoff(std::uint32_t from_proc, std::uint32_t line_addr) override;
  [[nodiscard]] cache::LineState line_state(std::uint32_t proc,
                                            std::uint32_t line_addr) const override;
  void proc_wait(std::uint32_t proc, bool spinning,
                 std::uint32_t spin_line) override;
  void proc_acquired(std::uint32_t proc) override;
  void proc_release_done(std::uint32_t proc) override;
  void schedule_timer(std::uint32_t proc, std::uint32_t line_addr,
                      std::uint64_t delay) override;

  // --- processor-facing services -------------------------------------------
  /// Barrier arrival: one atomic counter transaction; the processor waits
  /// until every processor has arrived.  All traces must contain the same
  /// barrier sequence (a missing arrival trips the progress watchdog).
  void barrier_arrive(std::uint32_t proc, std::uint32_t line_addr);
  /// Routes a completed lock-step transaction to the lock scheme or, for
  /// barrier arrivals, to the barrier bookkeeping.
  void lock_step_complete(std::uint32_t proc, std::uint32_t line_addr,
                          std::uint8_t step);
  bus::Transaction* make_txn(bus::TxnKind kind, std::uint32_t line_addr,
                             std::int32_t requester, bus::StallCause cause,
                             bool fills_line, bool lock_op = false);
  /// A not-yet-completed transaction by `proc` on `line_addr`, if any (of
  /// two, the first in active_'s iteration order).
  [[nodiscard]] bus::Transaction* find_proc_txn(std::uint32_t proc,
                                                std::uint32_t line_addr) const;
  /// Lock entry points used by Processor: notify the invariant checker (when
  /// enabled), then forward to the scheme.
  void begin_lock_acquire(std::uint32_t proc, std::uint32_t lock_line);
  void begin_lock_release(std::uint32_t proc, std::uint32_t lock_line);
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] sync::LockScheme& scheme() { return *scheme_; }
  [[nodiscard]] std::uint32_t outstanding_fence(std::uint32_t proc) const {
    return outstanding_fence_[proc];
  }

  // Introspection for tests/benches.
  [[nodiscard]] const bus::Bus& bus() const { return bus_; }
  /// The service discipline the arbiter consults.
  [[nodiscard]] const bus::ServiceDiscipline& bus_discipline() const {
    return *discipline_;
  }
  /// DSM geometry helpers (meaningful under MemModelKind::kDsm; under the
  /// uniform bus model every access is "local").
  [[nodiscard]] std::uint32_t dsm_node_of(std::uint32_t proc) const {
    return proc / dsm_procs_per_node_;
  }
  [[nodiscard]] std::uint32_t dsm_home_of(std::uint32_t line_addr) const {
    return (line_addr / cfg_.cache.line_bytes) % cfg_.dsm.nodes;
  }
  [[nodiscard]] const mem::Memory& memory() const { return memory_; }
  [[nodiscard]] const cache::Cache& cache_of(std::uint32_t proc) const {
    return *caches_[proc];
  }
  [[nodiscard]] const Processor& proc(std::uint32_t p) const { return *procs_[p]; }
  [[nodiscard]] const sync::LockStatsCollector& lock_stats() const {
    return lock_stats_;
  }
  /// Null unless config().invariants.enabled.
  [[nodiscard]] const InvariantChecker* invariant_checker() const {
    return checker_.get();
  }
  /// Null unless config().trace.enabled.  Callers driving step() by hand must
  /// call recorder()->flush() themselves; run() flushes at the end.
  [[nodiscard]] obs::EventRecorder* recorder() { return recorder_.get(); }
  /// Null unless config().metrics.enabled.  run() finalizes the registry
  /// (bus-gauge clip, machine counters, and a copy of every processor's
  /// ledger and every lock record) before returning.
  [[nodiscard]] obs::MetricsRegistry* metrics() { return metrics_.get(); }
  [[nodiscard]] const obs::MetricsRegistry* metrics() const {
    return metrics_.get();
  }
  /// Shares ownership of the registry so callers (the experiment engine) can
  /// keep the metrics alive after the simulator is destroyed.
  [[nodiscard]] std::shared_ptr<obs::MetricsRegistry> take_metrics() {
    return metrics_;
  }
  /// Attaches a host-side wall-clock profiler; run() then times its engine
  /// loop (not the checker's run-end sweep or the final trace flush).
  /// Observes the host only — simulated results are unchanged.
  void set_self_profiler(obs::SelfProfiler* profiler) {
    self_prof_ = profiler;
  }

  /// Replaces the lock scheme (tests only: lets test_invariants.cpp inject a
  /// deliberately-broken scheme to prove the checker fires).
  void set_scheme_for_test(std::unique_ptr<sync::LockScheme> scheme);

 private:
  /// One cycle of step(), which the tick engine's loop runs.
  void step_cycle();
  /// Books into CacheStats::supplies the supplies owed for the reads the
  /// holder directory answered since the last call.
  void settle_supplies();
  void arbitrate();
  /// ServiceDiscipline::GrantFn: routes an offered port to grant_response()
  /// (the memory port) or try_grant().
  static bool grant_port(void* ctx, std::uint32_t port);
  bool grant_response();
  /// The memory port's head changed: `response` is the stamped response now
  /// at the output-buffer front (phase 2 stamps it), or null once
  /// grant_response() popped it (the next one waits for its stamp).
  void memory_head_changed(const bus::Transaction* response);
  /// Grants the head request at `port` if it is serviceable now.  A refusal
  /// touches nothing: no settle, no state change (except marking a promoted
  /// upgrade's coherence refill, which settles its requester first).
  bool try_grant(std::uint32_t port);
  void snoop_others(bus::Transaction* txn);
  /// One processor's cache's part of a snoop.
  void snoop_cache(bus::Transaction* txn, std::uint32_t proc, bool exclusive);
  /// One processor's cache-bus buffer's part of a snoop: its buffered
  /// write-back of the line, if any, supplies the data and is cancelled.
  void snoop_buffer(bus::Transaction* txn, std::uint32_t proc);
  void complete_bus(bus::Transaction* txn);
  /// Installs the fetched line; false when the fill must be retried later.
  bool fill_own(bus::Transaction* txn);
  void finalize(bus::Transaction* txn);
  void retire(bus::Transaction* txn);
  void notify_invalidation(std::uint32_t proc, std::uint32_t line_addr);
  /// `txn` now holds the bus for `cycles` bus cycles: feeds the metrics bus
  /// gauge and the bus trace.  Called after each Bus::occupy while
  /// observe_bus_ is set.
  void on_bus_tenure(const bus::Transaction& txn, std::uint32_t cycles);
  /// Sets stop_cycle_ to min(largest Processor::progress_cycle() +
  /// kNoProgressLimit, kMaxCycles), and stops the run when that is not past
  /// cycle_: with the deadlock diagnostic, or at the runaway bound.  Both
  /// engines call it at the end of every cycle that reaches stop_cycle_ (DES
  /// steps that cycle itself), so a run stops on the same cycle on both.
  void update_stop_cycle();

  // --- discrete-event core (see run_des()) ---------------------------------
  /// Phases 1-2b of step(): deferred fills, memory, backoff timers.  Shared
  /// verbatim between the tick loop and the DES core so the two engines
  /// cannot drift.
  void pre_proc_phases();
  /// The DES main loop: bulk-advance to one cycle before the next event,
  /// then execute that cycle with step_des().
  void run_des();
  /// One event cycle: step()'s phases with phase 3 ticking only due
  /// processors; every other processor's per-cycle bookkeeping is settled
  /// lazily at its next touch.
  void step_des();
  /// Earliest cycle after cycle_ at which anything in the machine can act:
  /// the processor due-queue minimum, deferred fills, the memory module's
  /// next state change, a waiting memory response, the bus tenure end (or
  /// next arbitration opportunity), and backoff timers.
  [[nodiscard]] std::uint64_t des_next_event() const;
  /// Settle-before-mutate hook, called at the top of every service that can
  /// alter a processor's state, its waiting transaction's classification, or
  /// its spin registration.  Books the processor's un-ticked cycles in its
  /// pre-mutation state up to the phase-correct boundary (through cycle_-1
  /// before its phase-3 slot this cycle, through cycle_ after it), marks it
  /// due to tick this cycle when its slot is still ahead, and queues it for
  /// re-scheduling.  No-op outside run_des(); idempotent within a cycle.
  void des_touch(std::uint32_t proc);
  void des_settle(std::uint32_t proc, std::uint64_t through_cycle);
  void des_settle_all(std::uint64_t through_cycle);
  /// Re-derives a processor's due-queue entry from its current state.
  void des_reschedule(std::uint32_t proc);
  void des_mark_dirty(std::uint32_t proc);
  /// Clips the bus gauge at the run's final cycle, copies the processors'
  /// ledgers and the per-lock records into the registry, and stamps the
  /// machine counters.  Only values identical across engines belong here (the
  /// export is compared byte-for-byte between them), so des_stats_ stays out.
  void finalize_metrics();

  MachineConfig cfg_;
  std::string program_name_;
  std::vector<std::unique_ptr<cache::Cache>> caches_;
  std::vector<std::unique_ptr<bus::BusInterface>> ifaces_;
  std::vector<std::unique_ptr<Processor>> procs_;
  bus::Bus bus_;
  std::unique_ptr<bus::ServiceDiscipline> discipline_;
  // discipline_'s order of the ports holding a request, kept wherever ready_
  // is; null for round-robin, which ranks without stamps.
  bus::StampOrder* stamp_order_ = nullptr;
  ArbitrationStats arb_stats_;
  // Ports with a request, as a bitmask over [0, P] (util/bits.hpp): bit p is
  // kept equal to "interface p is non-empty" by the interfaces' queue hook;
  // bit P, the memory response port, by memory_head_changed().
  // ready_ifaces_ counts the processor bits.
  std::vector<std::uint64_t> ready_;
  std::uint32_t ready_ifaces_ = 0;
  // The ready ports that need no memory input buffer: interfaces whose head
  // is an upgrade or a hand-off (kept by the same hook), plus the memory
  // port.  While memory's input buffer is full, they are the only grantable
  // ones.
  std::vector<std::uint64_t> memory_free_;
  /// Every line's valid holders and buffered write-backs, kept by the caches'
  /// transition hooks and the interfaces' queue hooks; snoop_others() visits
  /// only the holders, or answers a widely shared read without a visit.
  cache::HolderDirectory holders_;
  std::vector<std::uint32_t> snoop_holders_;  // snoop_others() scratch
  SnoopStats snoop_stats_;
  std::uint32_t done_procs_ = 0;  // processors whose trace has completed
  /// A processor reached ProcState::kDone (it never leaves it).
  void proc_finished() { ++done_procs_; }
  static void iface_queue_hook(void* ctx, const bus::BusInterface& iface,
                               const bus::Transaction& txn, bool entered);
  std::uint32_t dsm_procs_per_node_ = 1;
  /// Extra memory service cycles the DSM model charges a request by
  /// `requester` on `line_addr` (0 under the bus model, for reflections, and
  /// for node-local accesses).
  [[nodiscard]] std::uint32_t dsm_extra_cycles(std::uint32_t line_addr,
                                               std::int32_t requester) const;
  mem::Memory memory_;
  sync::LockStatsCollector lock_stats_;
  std::unique_ptr<sync::LockScheme> scheme_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<obs::EventRecorder> recorder_;  // null unless trace.enabled
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // null unless metrics.enabled
  obs::SelfProfiler* self_prof_ = nullptr;  // null unless a bench attached one
  bool observe_bus_ = false;  // metrics or bus tracing on: call on_bus_tenure

  /// recorder_ is live and the category is unmasked.
  [[nodiscard]] bool tracing(std::uint32_t cat) const {
    return recorder_ != nullptr && recorder_->wants(cat);
  }
  // Per-cache context for the coherence-transition hook, which keeps
  // holders_ and feeds the invariant checker and the coherence trace (stable
  // addresses: sized once in the constructor).
  struct CacheHookCtx {
    Simulator* sim = nullptr;
    std::uint32_t proc = 0;
  };
  std::vector<CacheHookCtx> cache_hook_ctx_;
  static void cache_transition_hook(void* ctx, std::uint32_t line_addr,
                                    cache::LineState from, cache::LineState to);

  std::uint64_t cycle_ = 0;
  std::uint64_t next_txn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<bus::Transaction>> active_;
  /// Per processor, the head of its live transactions other than write-backs
  /// and hand-offs, linked through Transaction::next_of_proc (find_proc_txn's
  /// index; active_ owns them).
  std::vector<bus::Transaction*> proc_txns_;
  /// The one transaction holding each line between its grant and its
  /// completion (the arbiter refuses a grant while the line is busy).
  struct InflightLine {
    std::uint32_t key = 0;  // the line
    bus::Transaction* txn = nullptr;
    [[nodiscard]] bool empty() const { return txn == nullptr; }
  };
  util::FlatTable<InflightLine> line_inflight_;
  /// Drops `txn`'s entry in line_inflight_, if the line is still its own.
  void release_line(const bus::Transaction* txn);
  std::vector<bus::Transaction*> fill_retry_;
  std::vector<std::uint32_t> spin_line_;        // per proc; 0 = not spinning
  std::vector<std::uint32_t> outstanding_fence_;  // per proc

  DesStats des_stats_;

  // --- discrete-event core state -------------------------------------------
  /// Touch hooks live only inside run_des(); step() driven by hand (tests)
  /// and the tick engine leave this false and pay one branch per touch site.
  bool des_active_ = false;
  /// Where within the current event cycle the machine stands, deciding the
  /// settle boundary for touched processors: before the phase-3 tick loop, a
  /// touched processor has not had this cycle's tick yet (settle through
  /// cycle_-1 and tick it this cycle); inside the loop it depends on id
  /// order; after the loop its tick slot has passed (settle through cycle_).
  enum class DesPhase : std::uint8_t { kPreTick, kProcTick, kPostTick };
  DesPhase des_phase_ = DesPhase::kPreTick;
  std::uint32_t des_cur_proc_ = 0;  // phase-3 loop position (kProcTick only)
  EventQueue des_due_;              // per-processor next self-generated tick
  std::vector<std::uint64_t> des_acct_;  // cycle through which each processor's
                                         // per-cycle bookkeeping is applied
  // Due/dirty sets as source bitmasks ((num_procs+63)/64 words): the event
  // cycle drains the queue with one bucket read and walks set bits in id
  // order, which is both the tick loop's processor order and cheap.
  std::uint32_t des_words_ = 0;
  std::vector<std::uint64_t> des_due_now_;  // must tick this event cycle
  std::vector<std::uint64_t> des_dirty_;    // re-schedule at end of cycle
  // Scratch buffers reused every cycle so step() never heap-allocates.
  std::vector<bus::Transaction*> fill_retry_scratch_;
  std::vector<bus::Transaction*> absorbed_scratch_;

  struct BarrierState {
    struct Arrival {
      std::uint32_t proc;
      std::uint64_t cycle;
    };
    std::vector<Arrival> waiting;
  };
  std::unordered_map<std::uint32_t, BarrierState> barriers_;
  struct Timer {
    std::uint64_t fire_cycle;
    std::uint32_t proc;
    std::uint32_t line_addr;
  };
  std::vector<Timer> timers_;      // few entries; scanned each cycle
  std::vector<Timer> timers_due_;  // scratch: timers firing this cycle
  std::uint64_t barriers_completed_ = 0;
  util::RunningStat barrier_wait_;
  util::RunningStat barrier_waiters_at_arrival_;
  BusTraffic traffic_;

  /// A run stops when no processor's trace has progressed for this many
  /// cycles (see Processor::progress_cycle()).
  static constexpr std::uint64_t kNoProgressLimit = 500'000;
  /// The next cycle at which update_stop_cycle() re-reads the stamps; past
  /// cycle_ between cycles.
  std::uint64_t stop_cycle_ = 0;

  friend class Processor;
  friend class InvariantChecker;
};

}  // namespace syncpat::core
