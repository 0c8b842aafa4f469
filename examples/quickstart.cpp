// Quickstart: synthesize a small contended workload, analyze its ideal
// statistics, and simulate it under both lock schemes on the paper's
// machine.
//
//   ./quickstart
//
// This walks the whole public API surface: BenchmarkProfile ->
// run_ideal (make_program_trace -> analyze_program) for the ideal statistics
// alone, then run_experiment (make_program_trace -> IdealTap -> Simulator::run,
// which accumulates the same statistics during the simulated pass) -> results.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "trace/analyzer.hpp"
#include "util/format.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

int main() {
  using namespace syncpat;

  // A small eight-processor workload with one hot lock: short critical
  // sections taken every ~50 references.
  workload::BenchmarkProfile profile;
  profile.name = "quickstart";
  profile.num_procs = 8;
  profile.refs_per_proc = 50'000;
  profile.data_ref_fraction = 0.35;
  profile.work_cycles_per_ref = 2.5;
  profile.locking.pairs_per_proc = 800;
  profile.locking.cs_work_cycles = 120;
  profile.locking.num_locks = 1;
  profile.locking.dominant_weight = 1.0;

  // Ideal (zero-contention) analysis: what Tables 1 and 2 report.
  trace::IdealProgramStats ideal = core::run_ideal(profile);
  std::cout << "=== ideal analysis ===\n"
            << "  work cycles/proc : "
            << util::with_commas(static_cast<std::uint64_t>(ideal.avg_work_cycles()))
            << "\n  references/proc  : "
            << util::with_commas(static_cast<std::uint64_t>(ideal.avg_refs_all()))
            << "\n  lock pairs/proc  : " << ideal.avg_lock_pairs()
            << "\n  avg hold (ideal) : " << util::fixed(ideal.avg_hold_per_pair(), 1)
            << " cycles\n  time in locks    : "
            << util::percent(ideal.held_time_fraction(), 1) << "%\n\n";

  // Simulate under both lock implementations.
  core::MachineConfig config;  // the paper's Figure 1 machine
  std::cout << config.describe() << "\n";

  for (const auto scheme :
       {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas}) {
    config.lock_scheme = scheme;
    const core::ExperimentOutcome outcome = core::run_experiment(config, profile);
    const core::SimulationResult& r = outcome.sim;
    std::cout << "=== " << r.scheme << " locks ===\n"
              << "  run-time          : " << util::with_commas(r.run_time)
              << " cycles\n  utilization       : "
              << util::percent(r.avg_utilization, 1)
              << "%\n  stalls cache/lock : " << util::fixed(r.stall_cache_pct, 1)
              << "% / " << util::fixed(r.stall_lock_pct, 1)
              << "%\n  lock transfers    : " << r.locks.transfers
              << "\n  waiters@transfer  : "
              << util::fixed(r.locks.waiters_at_transfer.mean(), 2)
              << "\n  transfer latency  : "
              << util::fixed(r.locks.transfer_cycles.mean(), 1)
              << " cycles\n  bus utilization   : "
              << util::percent(r.bus_utilization, 1) << "%\n\n";
  }
  return 0;
}
