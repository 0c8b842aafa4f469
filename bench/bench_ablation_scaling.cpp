// Ablation: processor scaling (the paper's premise, §1).
//
// "Efficient synchronization is a key element in obtaining good speed-up
//  from parallel programs."  We scale the processor count for a lock-bound
// workload (the Grav model: one dominant scheduler lock) and a cache-bound
// one (the Topopt model: no locks) and report utilization and speedup —
// the lock-bound program saturates at its critical-section throughput while
// the lock-free one scales.
#include <iostream>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

// Workload with per-processor work held constant (weak-scaling style): the
// run-time of a perfectly scaling program would stay flat.
syncpat::workload::BenchmarkProfile with_procs(
    syncpat::workload::BenchmarkProfile p, std::uint32_t procs) {
  p.num_procs = procs;
  return p;
}

}  // namespace

int main() {
  using namespace syncpat;
  const std::uint64_t scale = bench::scale_or_die(bench::kDefaultScale * 2);
  bench::print_scale_banner(scale);
  std::cout << "Ablation: processor scaling, lock-bound vs cache-bound\n\n";

  for (const bool lock_bound : {true, false}) {
    workload::BenchmarkProfile base =
        lock_bound ? workload::grav_profile() : workload::topopt_profile();
    report::Table t(std::string(lock_bound ? "Grav model (dominant lock)"
                                           : "Topopt model (no locks)") +
                    ": per-processor work held constant");
    t.columns({"Procs", "run-time(k)", "Util%", "Waiters", "Bus%"});
    std::uint64_t runtime_p2 = 0;
    for (const std::uint32_t procs : {2u, 4u, 8u, 12u, 16u}) {
      core::MachineConfig config;
      const auto r =
          core::run_experiment(config, with_procs(base, procs), scale).sim;
      if (procs == 2) runtime_p2 = r.run_time;
      t.add_row({std::to_string(procs), util::with_commas(r.run_time / 1000),
                 util::percent(r.avg_utilization, 1),
                 util::fixed(r.locks.waiters_at_transfer.mean(), 2),
                 util::percent(r.bus_utilization, 1)});
    }
    t.note("run-time at p=2 was " + util::with_commas(runtime_p2 / 1000) +
           "k; flat run-time = perfect weak scaling");
    t.print(std::cout);
  }
  std::cout << "Expected shape: the lock-bound model's run-time grows with "
               "processors (the\ndominant lock serializes everything and "
               "waiters pile up) while the lock-free\nmodel stays nearly "
               "flat until the bus saturates.\n";
  return 0;
}
