// Runtime invariant checker for the simulated machine (opt-in, see
// InvariantConfig in core/machine_config.hpp).
//
// In the spirit of Golab's mechanical deconstruction of queue-based mutual
// exclusion, the properties the paper's conclusions rest on are validated
// while the machine runs instead of by inspection:
//
//  * MESI single-writer / no-stale-sharer: at most one cache holds a line
//    Exclusive or Modified, and an owned line has no Shared copies elsewhere.
//    The caches' transition hook passes every state change to the checker,
//    which keeps its own owner and sharer counts per line, and at the end of
//    every cycle checks each line that changed during it.  On the DES engine
//    that is every event cycle: the caches change only there.  A violation
//    is reported in the cycle it arises.
//  * The simulator's holder directory (the snoop filter) is exact: each
//    changed line's directory entry lists as many holders as the checker
//    counts.  At run end a full sweep rebuilds every line's holders from the
//    caches and its buffered write-backs from the interfaces, and compares
//    them with the directory and with the checker's counts in both
//    directions, so a state change made without its hook call shows there.
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
// Violations are counted and the first kMaxRecorded messages are kept; the
// checker never aborts the simulation, so tests can assert on the outcome.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"

namespace syncpat::core {

class Simulator;

class InvariantChecker {
 public:
  InvariantChecker(bool fifo_scheme, std::uint32_t num_procs);

  // --- simulator hooks -----------------------------------------------------
  /// A cache moved `line_addr` from `from` to `to` (every change the
  /// simulator's cache transition hook sees).
  void on_transition(std::uint32_t line_addr, cache::LineState from,
                     cache::LineState to);
  /// End of Simulator::step() and of every DES event cycle: checks the lines
  /// that changed during the cycle and the transactions in flight.
  void on_cycle(const Simulator& sim);
  /// End of Simulator::run(): full MESI sweep.
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
  static constexpr std::size_t kMaxRecorded = 16;  // messages kept verbatim

  /// How many caches hold a line in E or M (owners) and in S (sharers).
  struct LineCounts {
    std::int32_t owners = 0, sharers = 0;
    bool changed = false;  // listed in changed_
    /// Adds `delta` to the count `state` belongs to (neither for I or P).
    void tally(cache::LineState state, std::int32_t delta);
  };

  void record(std::string message);
  /// Records a single-writer or stale-sharer violation if the counts make
  /// one, naming every cache that holds the line.
  void check_coherence(const Simulator& sim, std::uint32_t line_addr,
                       const LineCounts& c);
  void full_mesi_sweep(const Simulator& sim);
  void check_one_txn_per_line(const Simulator& sim);

  bool fifo_scheme_;

  // Coherence state mirrored from the transition hook: the lines some cache
  // holds or that changed this cycle, and the changed ones.
  std::unordered_map<std::uint32_t, LineCounts> counts_;
  std::vector<std::uint32_t> changed_;
  std::vector<std::uint32_t> listed_;   // holder-directory scratch, num_procs
  std::vector<std::uint32_t> inflight_lines_;  // check_one_txn_per_line's lines

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
