// Cycle-driven simulator of the whole machine (paper §2.2).
//
// Per-cycle phase order (chosen so that an uncontended miss stalls exactly
// 1 + memory + line-transfer = 6 cycles, the paper's figure):
//   1. deferred completions (fills that waited for a cache way);
//   2. memory module tick;
//   3. processor ticks (work, issue, stall accounting);
//   4. bus arbitration (round-robin; snoop happens at grant);
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
struct SnoopStats {
  std::uint64_t probes = 0;               // Cache::snoop calls
  std::uint64_t writeback_fallbacks = 0;  // snoops that visited everyone
};

class Simulator final : public sync::SchemeServices {
 public:
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
  void step();
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] SimulationResult collect_results() const;

  [[nodiscard]] const DesStats& des_stats() const { return des_stats_; }
  [[nodiscard]] const SnoopStats& snoop_stats() const { return snoop_stats_; }
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
  /// A not-yet-completed transaction by `proc` on `line_addr`, if any.
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
  void arbitrate();
  /// ServiceDiscipline::GrantFn: routes an offered port to grant_response()
  /// (the memory port) or try_grant().
  static bool grant_port(void* ctx, std::uint32_t port);
  bool grant_response();
  /// Grants the head request at `port` if it is serviceable now.  A refusal
  /// touches nothing: no settle, no state change (except marking a promoted
  /// upgrade's coherence refill, which settles its requester first).
  bool try_grant(std::uint32_t port);
  void snoop_others(bus::Transaction* txn);
  /// One processor's part of a snoop: its cache, then its buffered
  /// write-back of the line, if any.
  void snoop_one(bus::Transaction* txn, std::uint32_t proc, bool exclusive);
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
  /// Progress watchdog, called at the end of every cycle by both engines:
  /// the scan walks every processor, so it runs only at the first cycle at
  /// or past each kProgressCheckPeriod boundary (on the tick loop, the
  /// boundary itself; on DES, the first event cycle there).
  void check_progress() {
    if (cycle_ >= next_progress_check_) scan_progress();
  }
  void scan_progress();

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
  // Ports with a request, as a bitmask over [0, P] (util/bits.hpp): bit p is
  // kept equal to "interface p is non-empty" by the interfaces' queue hook;
  // bit P, the memory response port, is set per round.  ready_ifaces_ counts
  // the processor bits.
  std::vector<std::uint64_t> ready_;
  std::uint32_t ready_ifaces_ = 0;
  // The ready ports that need no memory input buffer: interfaces whose head
  // is an upgrade or a hand-off (kept by the same hook), plus the memory
  // port.  While memory's input buffer is full, they are the only grantable
  // ones.
  std::vector<std::uint64_t> memory_free_;
  // For stamp-aware disciplines, the per-port request view (sized once,
  // written only at ready ports).
  std::vector<bus::ArbRequest> arb_req_;
  /// Every line's valid holders and buffered write-backs, kept by the caches'
  /// transition hooks and the interfaces' queue hooks; snoop_others() visits
  /// only the holders.
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
  std::unordered_map<std::uint32_t, bus::Transaction*> line_inflight_;
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

  // Progress watchdog: scanned every kProgressCheckPeriod cycles instead of
  // every cycle; the 500k-cycle deadlock threshold is unchanged, so
  // diagnosis moves by at most one period.
  static constexpr std::uint64_t kProgressCheckPeriod = 1024;  // power of two
  std::uint64_t next_progress_check_ = kProgressCheckPeriod;
  std::uint64_t last_progress_cycle_ = 0;
  std::uint64_t progress_marker_ = 0;

  friend class Processor;
  friend class InvariantChecker;
};

}  // namespace syncpat::core
