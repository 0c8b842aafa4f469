#include "report/paper_tables.hpp"

#include <ostream>
#include <utility>

#include "report/per_lock.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "workload/profiles.hpp"

namespace syncpat::report {

using util::fixed;
using util::with_commas;

const std::vector<PaperReference>& paper_reference() {
  // Values transcribed from Tables 1-8 of the paper.
  static const std::vector<PaperReference> kRefs = {
      {"Grav", 10, 2841, 1185, 423, 377,
       6389, 2579, 200, 1131, 39.8,
       9228727, 32.6, 3.2, 96.5, 9970129, 30.7, 3.6, 96.4,
       211, 28725, 5.19, 336, 217, 28742, 5.16, 343,
       9221719, 32.6, 0.08, 90.9, 211, 28468, 5.25, 338, true},
      {"Pdsa", 12, 2458, 1206, 431, 410,
       3110, 1467, 190, 510, 20.7,
       7105257, 40.3, 10.2, 89.5, 7680362, 37.9, 9.8, 90.2,
       203, 16977, 6.18, 356, 208, 16882, 6.21, 363,
       7084835, 40.5, 0.29, 90.5, 203, 16919, 6.26, 357, true},
      {"FullConn", 12, 3848, 967, 346, 332,
       652, 134, 334, 210, 5.5,
       4407243, 95.5, 86.9, 10.2, 4416720, 94.6, 88.0, 12.0,
       389, 344, 0.40, 844, 409, 338, 0.30, 978,
       4381518, 95.5, 0.31, 91.6, 390, 373, 0.34, 857, true},
      {"Pverify", 12, 5544, 2431, 682, 254,
       555, 0, 3642, 2021, 36.5,
       5997346, 96.1, 100.0, 0.0, 5996557, 96.1, 99.1, 0.9,
       3766, 28, 0.00, 41, 3767, 36, 0.03, 48,
       5987383, 96.3, 0.17, 98.4, 3758, 21, 0.00, 40, true},
      {"Qsort", 12, 2825, 1177, 252, 142,
       212, 0, 52, 11, 0.3,
       4307966, 67.8, 99.7, 0.3, 4310056, 67.6, 99.4, 0.6,
       120, 180, 0.89, 174, 130, 166, 0.61, 181,
       4306958, 67.9, 0.02, 99.0, 100, 151, 1.05, 155, true},
      {"Topopt", 9, 10182, 4135, 1113, 413,
       0, 0, 0, 0, 0.0,
       13818998, 99.3, 100.0, 0.0, 0, 0, 0, 0,
       0, 0, 0, 0, 0, 0, 0, 0,
       13796023, 99.4, 0.17, 97.4, 0, 0, 0, 0, false},
  };
  return kRefs;
}

namespace {

const PaperReference* find_ref(const std::string& name) {
  for (const PaperReference& r : paper_reference()) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

std::string scaled_k(double value, std::uint64_t scale) {
  return with_commas(static_cast<std::uint64_t>(value * static_cast<double>(scale) /
                                                1000.0));
}

bool uses_locks(const workload::BenchmarkProfile& profile) {
  return profile.locking.pairs_per_proc > 0;
}

/// The outcome of `program`'s cell under `scheme` and `model`, if the run
/// has one.
const core::ExperimentOutcome* find_outcome(const core::GridResult& run,
                                            const std::string& program,
                                            sync::SchemeKind scheme,
                                            bus::ConsistencyModel model) {
  for (std::size_t i = 0; i < run.size(); ++i) {
    const core::ExperimentCell& cell = run.cells[i];
    if (cell.profile.name == program && cell.config.lock_scheme == scheme &&
        cell.config.consistency == model) {
      return &run.results[i].outcome;
    }
  }
  return nullptr;
}

void print_transfer_latencies(const std::vector<core::SimulationResult>& rs,
                              std::ostream& out) {
  out << "Average lock transfer time (release -> next acquire, cycles):\n";
  for (const auto& r : rs) {
    if (r.locks.transfers == 0) continue;
    out << "  " << r.program << ": " << r.locks.transfer_cycles.mean() << "\n";
  }
  out << "\n";
}

}  // namespace

Table table1_ideal(const std::vector<trace::IdealProgramStats>& stats,
                   std::uint64_t scale) {
  Table t("Table 1: Benchmark Ideal Statistics (per-processor averages, 1000s)");
  t.columns({"Program", "Proc", "Work", "(paper)", "Refs", "(paper)", "Data",
             "(paper)", "Shared", "(paper)"});
  for (const auto& s : stats) {
    const PaperReference* ref = find_ref(s.name);
    SYNCPAT_ASSERT(ref != nullptr);
    t.add_row({s.name, std::to_string(s.num_procs),
               scaled_k(s.avg_work_cycles(), scale), with_commas(static_cast<std::uint64_t>(ref->work_k)),
               scaled_k(s.avg_refs_all(), scale), with_commas(static_cast<std::uint64_t>(ref->refs_k)),
               scaled_k(s.avg_refs_data(), scale), with_commas(static_cast<std::uint64_t>(ref->data_k)),
               scaled_k(s.avg_refs_shared(), scale), with_commas(static_cast<std::uint64_t>(ref->shared_k))});
  }
  if (scale > 1) {
    t.note("measured counts multiplied by trace scale " + std::to_string(scale));
  }
  return t;
}

Table table2_ideal_locks(const std::vector<trace::IdealProgramStats>& stats,
                         std::uint64_t scale) {
  Table t("Table 2: Benchmark Ideal Lock Statistics (per-processor averages)");
  t.columns({"Program", "Pairs", "(paper)", "Nested", "(paper)", "AvgHeld",
             "(paper)", "TotHeld(k)", "(paper)", "%Time", "(paper)"});
  for (const auto& s : stats) {
    const PaperReference* ref = find_ref(s.name);
    SYNCPAT_ASSERT(ref != nullptr);
    t.add_row(
        {s.name,
         with_commas(static_cast<std::uint64_t>(s.avg_lock_pairs() *
                                                static_cast<double>(scale))),
         with_commas(static_cast<std::uint64_t>(ref->lock_pairs)),
         with_commas(static_cast<std::uint64_t>(s.avg_nested_pairs() *
                                                static_cast<double>(scale))),
         with_commas(static_cast<std::uint64_t>(ref->nested)),
         fixed(s.avg_hold_per_pair(), 0), fixed(ref->avg_held, 0),
         scaled_k(s.avg_held_cycles(), scale),
         with_commas(static_cast<std::uint64_t>(ref->total_held_k)),
         fixed(100.0 * s.held_time_fraction(), 1), fixed(ref->pct_time, 1)});
  }
  return t;
}

Table table_runtime(int which, const std::vector<core::SimulationResult>& results,
                    std::uint64_t scale) {
  SYNCPAT_ASSERT(which == 3 || which == 5);
  const char* title =
      which == 3
          ? "Table 3: Benchmark Runtime Statistics, Queuing Lock Implementation"
          : "Table 5: Benchmark Runtime Statistics, Test&Test&Set";
  Table t(title);
  t.columns({"Program", "run-time", "(paper)", "Util%", "(paper)", "cache%",
             "(paper)", "lock%", "(paper)"});
  for (const auto& r : results) {
    const PaperReference* ref = find_ref(r.program);
    SYNCPAT_ASSERT(ref != nullptr);
    const double p_rt = which == 3 ? ref->q_runtime : ref->t_runtime;
    const double p_ut = which == 3 ? ref->q_util : ref->t_util;
    const double p_ca = which == 3 ? ref->q_stall_cache : ref->t_stall_cache;
    const double p_lo = which == 3 ? ref->q_stall_lock : ref->t_stall_lock;
    t.add_row({r.program, with_commas(r.run_time * scale),
               with_commas(static_cast<std::uint64_t>(p_rt)),
               fixed(100.0 * r.avg_utilization, 1), fixed(p_ut, 1),
               fixed(r.stall_cache_pct, 1), fixed(p_ca, 1),
               fixed(r.stall_lock_pct, 1), fixed(p_lo, 1)});
  }
  if (scale > 1) {
    t.note("measured run-times multiplied by trace scale " +
           std::to_string(scale));
  }
  return t;
}

Table table_contention(int which,
                       const std::vector<core::SimulationResult>& results,
                       std::uint64_t scale) {
  SYNCPAT_ASSERT(which == 4 || which == 6 || which == 8);
  const char* title =
      which == 4 ? "Table 4: Lock Contention Statistics, Queuing Lock Implementation"
      : which == 6 ? "Table 6: Lock Contention Statistics, Test&Test&Set"
                   : "Table 8: Weak Ordering Lock Contention Statistics";
  Table t(title);
  t.columns({"Program", "Held", "(paper)", "Transfers", "(paper)", "Waiters",
             "(paper)", "Held@Tr", "(paper)"});
  for (const auto& r : results) {
    const PaperReference* ref = find_ref(r.program);
    SYNCPAT_ASSERT(ref != nullptr);
    if (!ref->has_locks) continue;  // Topopt has no lock rows in 4/6/8
    const double p_h = which == 4 ? ref->q_held : which == 6 ? ref->t_held : ref->w_held;
    const double p_n = which == 4   ? ref->q_transfers
                       : which == 6 ? ref->t_transfers
                                    : ref->w_transfers;
    const double p_w = which == 4   ? ref->q_waiters
                       : which == 6 ? ref->t_waiters
                                    : ref->w_waiters;
    const double p_ht = which == 4   ? ref->q_held_tr
                        : which == 6 ? ref->t_held_tr
                                     : ref->w_held_tr;
    t.add_row({r.program, fixed(r.locks.hold_cycles.mean(), 0), fixed(p_h, 0),
               with_commas(r.locks.transfers * scale),
               with_commas(static_cast<std::uint64_t>(p_n)),
               fixed(r.locks.waiters_at_transfer.mean(), 2), fixed(p_w, 2),
               fixed(r.locks.hold_cycles_transfer.mean(), 0), fixed(p_ht, 0)});
  }
  if (scale > 1) {
    t.note("measured transfer counts multiplied by trace scale " +
           std::to_string(scale));
  }
  t.note("avg lock transfer time (cycles): see bench output lines below");
  return t;
}

Table table7_weak(const std::vector<core::SimulationResult>& weak,
                  const std::vector<core::SimulationResult>& sequential,
                  std::uint64_t scale) {
  SYNCPAT_ASSERT(weak.size() == sequential.size());
  Table t("Table 7: Weak Ordering Runtime Statistics");
  t.columns({"Program", "run-time", "(paper)", "Util%", "(paper)", "Diff%",
             "(paper)", "WriteHit%", "(paper)"});
  for (std::size_t i = 0; i < weak.size(); ++i) {
    const auto& w = weak[i];
    const auto& sc = sequential[i];
    SYNCPAT_ASSERT(w.program == sc.program);
    const PaperReference* ref = find_ref(w.program);
    SYNCPAT_ASSERT(ref != nullptr);
    t.add_row({w.program, with_commas(w.run_time * scale),
               with_commas(static_cast<std::uint64_t>(ref->w_runtime)),
               fixed(100.0 * w.avg_utilization, 1), fixed(ref->w_util, 1),
               fixed(w.runtime_change_pct(sc), 2), fixed(ref->w_diff, 2),
               fixed(100.0 * w.write_hit_ratio, 1), fixed(ref->w_whit, 1)});
  }
  t.note("Diff% is the decrease in execution time versus the sequentially "
         "consistent run");
  return t;
}

std::vector<core::ExperimentCell> paper_cells(const core::MachineConfig& base,
                                              std::uint64_t scale) {
  core::ExperimentGrid queuing;
  queuing.base = base;
  queuing.profiles = workload::paper_profiles();
  queuing.schemes = {sync::SchemeKind::kQueuing};
  queuing.consistency_models = {bus::ConsistencyModel::kSequential,
                                bus::ConsistencyModel::kWeak};
  queuing.scales = {scale};

  core::ExperimentGrid ttas = queuing;
  ttas.profiles.clear();
  for (const workload::BenchmarkProfile& profile : queuing.profiles) {
    if (uses_locks(profile)) ttas.profiles.push_back(profile);
  }
  ttas.schemes = {sync::SchemeKind::kTtas};
  ttas.consistency_models = {bus::ConsistencyModel::kSequential};

  std::vector<core::ExperimentCell> cells = core::grid_cells(queuing);
  for (core::ExperimentCell& cell : core::grid_cells(ttas)) {
    cells.push_back(std::move(cell));
  }
  return cells;
}

void print_paper_tables(const core::GridResult& run, std::ostream& out) {
  SYNCPAT_ASSERT(run.size() > 0);
  const std::uint64_t scale = run.cells.front().scale;
  using bus::ConsistencyModel;
  using sync::SchemeKind;

  std::vector<trace::IdealProgramStats> ideal;
  std::vector<core::SimulationResult> queuing, weak, ttas, ttas_baseline;
  const core::ExperimentOutcome* grav = nullptr;
  for (const workload::BenchmarkProfile& profile : workload::paper_profiles()) {
    const core::ExperimentOutcome* q = find_outcome(
        run, profile.name, SchemeKind::kQueuing, ConsistencyModel::kSequential);
    const core::ExperimentOutcome* w = find_outcome(
        run, profile.name, SchemeKind::kQueuing, ConsistencyModel::kWeak);
    if (q == nullptr || w == nullptr) continue;
    ideal.push_back(q->ideal);
    queuing.push_back(q->sim);
    weak.push_back(w->sim);
    if (profile.name == "Grav") grav = q;
    const core::ExperimentOutcome* t = find_outcome(
        run, profile.name, SchemeKind::kTtas, ConsistencyModel::kSequential);
    if (t != nullptr && uses_locks(profile)) {
      ttas.push_back(t->sim);
      ttas_baseline.push_back(q->sim);
    }
  }

  table1_ideal(ideal, scale).print(out);
  out << "\n";
  table2_ideal_locks(ideal, scale).print(out);
  out << "\n";
  table_runtime(3, queuing, scale).print(out);
  out << "\n";

  table_contention(4, queuing, scale).print(out);
  print_transfer_latencies(queuing, out);
  out << "(paper: queuing-lock transfers take ~1.2-1.5 cycles)\n\n";
  // The paper attributes Grav/Pdsa contention to the dominant Presto
  // scheduler lock (§2.3).
  if (grav != nullptr) {
    out << "Grav breakdown (lock 0 is the scheduler lock, lock 1 the nested "
           "thread-queue lock):\n";
    per_lock_table(grav->per_lock, 6).print(out);
  }
  out << "\n";

  table_runtime(5, ttas, scale).print(out);
  out << "Run-time increase vs queuing locks (paper: Grav +8.0%, Pdsa +8.1%, "
         "others ~0%):\n";
  for (std::size_t i = 0; i < ttas.size(); ++i) {
    const double pct = -ttas[i].runtime_change_pct(ttas_baseline[i]);
    out << "  " << ttas[i].program << ": " << (pct >= 0 ? "+" : "") << pct
        << "%\n";
  }
  out << "\nBus utilization, queuing -> T&T&S (paper: Grav doubles, Pdsa "
         "+40%):\n";
  for (std::size_t i = 0; i < ttas.size(); ++i) {
    out << "  " << ttas[i].program << ": "
        << 100.0 * ttas_baseline[i].bus_utilization << "% -> "
        << 100.0 * ttas[i].bus_utilization << "%\n";
  }
  out << "\n";

  table_contention(6, ttas, scale).print(out);
  print_transfer_latencies(ttas, out);
  out << "(paper: with many waiters a T&T&S transfer takes ~21-25 cycles)\n\n";

  table7_weak(weak, queuing, scale).print(out);
  out << "Syncs that found unfinished buffered accesses (paper: \"almost "
         "never\"):\n";
  for (const auto& r : weak) {
    if (r.syncs == 0) continue;
    out << "  " << r.program << ": " << r.syncs_with_pending << " of "
        << r.syncs << " syncs\n";
  }
  out << "\n";

  table_contention(8, weak, scale).print(out);
  print_transfer_latencies(weak, out);
}

}  // namespace syncpat::report
