// Renderers for each table of the paper, with the published values printed
// alongside the reproduced ones.
//
// Trace-length scaling: benches default to traces 1/N the paper's length
// (SYNCPAT_SCALE).  Quantities that grow linearly with trace length
// (run-time, reference counts, lock pairs, transfers) are multiplied by N
// for display so the columns are directly comparable; rate quantities
// (utilization, waiters at transfer, hold times, percentages) are
// scale-invariant and shown as measured.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/results.hpp"
#include "report/table.hpp"
#include "trace/analyzer.hpp"

namespace syncpat::report {

/// Published per-benchmark values used in the comparison columns.
struct PaperReference {
  const char* name;
  int procs;
  // Table 1 (thousands, per processor).
  double work_k, refs_k, data_k, shared_k;
  // Table 2.
  double lock_pairs, nested, avg_held, total_held_k, pct_time;
  // Table 3 (queuing) / 5 (T&T&S).
  double q_runtime, q_util, q_stall_cache, q_stall_lock;
  double t_runtime, t_util, t_stall_cache, t_stall_lock;
  // Table 4 (queuing) / 6 (T&T&S): held, transfers, waiters, held@transfer.
  double q_held, q_transfers, q_waiters, q_held_tr;
  double t_held, t_transfers, t_waiters, t_held_tr;
  // Table 7/8 (weak ordering).
  double w_runtime, w_util, w_diff, w_whit;
  double w_held, w_transfers, w_waiters, w_held_tr;
  bool has_locks;
};

[[nodiscard]] const std::vector<PaperReference>& paper_reference();

Table table1_ideal(const std::vector<trace::IdealProgramStats>& stats,
                   std::uint64_t scale);
Table table2_ideal_locks(const std::vector<trace::IdealProgramStats>& stats,
                         std::uint64_t scale);
/// Tables 3 and 5 share a layout; `which` is 3 (queuing) or 5 (T&T&S).
Table table_runtime(int which, const std::vector<core::SimulationResult>& results,
                    std::uint64_t scale);
/// Tables 4, 6 and 8 share a layout; `which` selects the paper column set.
Table table_contention(int which,
                       const std::vector<core::SimulationResult>& results,
                       std::uint64_t scale);
/// Table 7: weak-ordering run-times against the matching SC baselines.
Table table7_weak(const std::vector<core::SimulationResult>& weak,
                  const std::vector<core::SimulationResult>& sequential,
                  std::uint64_t scale);

/// The 17 cells the paper's tables read, at trace scale `scale`: all six
/// programs under queuing/SC (Tables 1-4) and queuing/WO (7-8), and the five
/// lock-using ones under T&T&S/SC (5-6).  `base` supplies every other
/// machine parameter.
[[nodiscard]] std::vector<core::ExperimentCell> paper_cells(
    const core::MachineConfig& base, std::uint64_t scale);

/// Tables 1-8 with their comparison lines, each block separated from the
/// next by a blank line.  Every table reads the
/// run's cells by configuration, in paper-program order: queuing/SC feeds
/// Tables 1-4 (1-2 from the cells' ideal analysis, 4's Grav breakdown from
/// Grav's per-lock records), T&T&S/SC Tables 5-6 and queuing/WO Tables 7-8.
/// Other cells are ignored, and Table 5 skips lock-free programs.
void print_paper_tables(const core::GridResult& run, std::ostream& out);

}  // namespace syncpat::report
