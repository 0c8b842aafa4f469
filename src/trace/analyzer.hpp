// "Ideal" trace analysis (paper §2.1, Tables 1 and 2).
//
// The ideal pass replays a trace with no cache misses, no bus contention and
// no lock contention: time is just the sum of the work-cycle gaps.  From it
// we derive everything the paper's Tables 1 and 2 report: reference counts
// by category, work cycles, lock pairs, nested lock pairs, and lock holding
// times measured in work cycles.
//
// One per-processor accumulator, fed one event at a time, is the only
// implementation: analyze_proc is a loop over it, and IdealTap feeds it as
// another consumer pulls events.  The paper takes these statistics from the
// same traces its simulator consumes, and so does run_experiment, through an
// IdealTap, so a cell synthesizes its trace once.  analyze_program is the
// standalone pass for callers that simulate nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/source.hpp"

namespace syncpat::trace {

/// Per-processor ideal statistics.
struct IdealProcStats {
  std::uint64_t work_cycles = 0;   // sum of gaps
  std::uint64_t refs_all = 0;      // ifetch + load + store
  std::uint64_t refs_data = 0;     // load + store
  std::uint64_t refs_shared = 0;   // data refs to shared/lock regions
  std::uint64_t stores = 0;
  std::uint64_t shared_stores = 0;

  std::uint64_t barriers = 0;      // barrier arrivals
  std::uint64_t lock_pairs = 0;    // completed acquire/release pairs
  std::uint64_t nested_pairs = 0;  // acquired while another lock was held
  /// Union time during which >= 1 lock was held: Table 2 "Total Held" and
  /// "% of Time" (nested sections are not double counted).
  std::uint64_t held_cycles = 0;
  /// Sum of each pair's own acquire-to-release duration: Table 2 "Avg. Held"
  /// is this divided by lock_pairs (nested holds overlap the outer one).
  std::uint64_t pair_hold_cycles = 0;
};

/// Aggregated over all processors (per-processor averages, as the paper's
/// tables present them).
struct IdealProgramStats {
  std::string name;
  std::uint32_t num_procs = 0;
  std::vector<IdealProcStats> per_proc;

  // Averages per processor.
  [[nodiscard]] double avg_work_cycles() const;
  [[nodiscard]] double avg_refs_all() const;
  [[nodiscard]] double avg_refs_data() const;
  [[nodiscard]] double avg_refs_shared() const;
  [[nodiscard]] double avg_lock_pairs() const;
  [[nodiscard]] double avg_nested_pairs() const;
  [[nodiscard]] double avg_held_cycles() const;
  [[nodiscard]] double avg_pair_hold_cycles() const;

  /// Average hold time per lock pair, in cycles (Table 2 "Avg. Held").
  [[nodiscard]] double avg_hold_per_pair() const;
  /// Fraction of work time spent holding at least the outer lock
  /// (Table 2 "% of Time"; total held / work cycles).
  [[nodiscard]] double held_time_fraction() const;
};

/// Analyzes one processor's trace.  The source is drained.
[[nodiscard]] IdealProcStats analyze_proc(TraceSource& source);

/// Analyzes a whole program.  All sources are reset before and after, so the
/// trace remains usable by the simulator.
[[nodiscard]] IdealProgramStats analyze_program(ProgramTrace& program);

/// The ideal pass folded into another consumer's pass over a program.  The
/// constructor wraps each source of `program` in place with a pass-through
/// that forwards next() unchanged and feeds an accumulator; resetting a
/// wrapped source clears its accumulator (the Simulator constructor resets
/// every source).  Once the consumer has drained every source, finish()
/// returns what analyze_program would have.  `program` must outlive the tap.
class IdealTap {
 public:
  explicit IdealTap(ProgramTrace& program);

  /// Asserts that every source was pulled to its end.
  [[nodiscard]] IdealProgramStats finish() const;

 private:
  class Source;
  std::string name_;
  std::vector<const Source*> sources_;
};

}  // namespace syncpat::trace
