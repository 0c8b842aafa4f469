// Runtime invariant checker for the simulated machine (opt-in, see
// InvariantConfig in core/machine_config.hpp).
//
// In the spirit of Golab's mechanical deconstruction of queue-based mutual
// exclusion, the properties the paper's conclusions rest on are validated
// while the machine runs instead of by inspection:
//
//  * MESI single-writer / no-stale-sharer: at most one cache holds a line
//    Exclusive or Modified, and an owned line has no Shared copies elsewhere.
//    Lines with a transaction in flight are checked every cycle; a periodic
//    full sweep (mesi_sweep_period) catches stale sharers on quiet lines, and
//    a final sweep runs at end of simulation.  On the DES engine "every
//    cycle" means every event cycle: the state checked here changes only
//    there, and a sweep period ending inside a bulk span is swept at the span.
//  * The simulator's holder directory (the snoop filter) is exact: each full
//    sweep rebuilds every line's valid holders from the caches and its
//    buffered write-backs from the interfaces, and any difference — a
//    missing, extra or stale entry — is a violation.
//  * At most one transaction per line in flight: re-derived from transaction
//    phases, independently of the simulator's own line_inflight_ bookkeeping.
//  * Lock mutual exclusion: a processor only acquires a lock no other
//    processor holds, and only releases a lock it holds.
//  * FIFO hand-off for the FIFO schemes (the simulator's is_fifo_scheme:
//    queuing, ticket, Anderson, MCS, CLH): lock grants follow the order in
//    which the initial atomic acquire accesses completed on the bus.  (The
//    exact Graunke-Thakkar variant is excluded: its two-access enqueue
//    admits a benign reordering window, §2.4.)
//
// Violations are counted and a bounded sample of messages is kept; the
// checker never aborts the simulation, so tests can assert on the outcome.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/machine_config.hpp"

namespace syncpat::core {

class Simulator;

class InvariantChecker {
 public:
  InvariantChecker(const InvariantConfig& config, bool fifo_scheme,
                   std::uint32_t num_procs);

  // --- simulator hooks -----------------------------------------------------
  /// End of Simulator::step() and of every DES event cycle: per-cycle checks
  /// plus the periodic sweep.
  void on_cycle(const Simulator& sim);
  /// A DES bulk span advanced the clock from `last_cycle` (already checked)
  /// through `through` without changing any state the checker reads.  The
  /// per-cycle checks would repeat last_cycle's verdicts; only a periodic
  /// sweep that falls inside the span is owed, and it sees the current state.
  void on_span(const Simulator& sim, std::uint64_t last_cycle,
               std::uint64_t through);
  /// End of Simulator::run(): final full MESI sweep.
  void on_run_end(const Simulator& sim);

  // --- lock protocol hooks -------------------------------------------------
  void on_begin_acquire(std::uint32_t proc, std::uint32_t lock_line);
  void on_begin_release(std::uint32_t proc, std::uint32_t lock_line);
  /// A lock-scheme transaction completed (never the barrier step).
  void on_lock_step(std::uint32_t proc, std::uint32_t line_addr,
                    std::uint8_t step);
  void on_acquired(std::uint32_t proc);
  void on_release_done(std::uint32_t proc);

  // --- results -------------------------------------------------------------
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t violation_count() const { return violation_count_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return violation_count_ == 0; }

 private:
  void record(std::string message);
  /// Cross-cache MESI check of one line; `cycle` labels violations.
  void check_line_coherence(const Simulator& sim, std::uint32_t line_addr,
                            std::uint64_t cycle);
  void full_mesi_sweep(const Simulator& sim, std::uint64_t cycle);
  void check_one_txn_per_line(const Simulator& sim);

  InvariantConfig config_;
  bool fifo_scheme_;

  // Abstract lock state mirrored from the protocol hooks.
  static constexpr std::uint32_t kNoLine = 0xffff'ffffu;
  std::vector<std::uint32_t> acquiring_;  // per proc; kNoLine when idle
  std::vector<std::uint32_t> releasing_;  // per proc; kNoLine when idle
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> holders_;
  std::unordered_map<std::uint32_t, std::deque<std::uint32_t>> fifo_queue_;

  std::uint64_t checks_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace syncpat::core
