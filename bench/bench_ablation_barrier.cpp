// Ablation: barrier vs lock waiting (paper §3.1).
//
// "For Grav and Pdsa this number [waiters at transfer] is slightly over
//  half the number of processors.  This is extremely heavy contention
//  since, by comparison, a barrier would yield a number less than half the
//  number of processors."
//
// We add barrier phases to a lock-free workload and measure the average
// number of processors already waiting when one arrives: for P processors
// the expectation is (P-1)/2 < P/2, which this bench verifies alongside the
// Grav lock waiters it contrasts with.
#include <iostream>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

syncpat::workload::BenchmarkProfile barrier_profile(std::uint32_t procs) {
  syncpat::workload::BenchmarkProfile p;
  p.name = "barrier-phases";
  p.num_procs = procs;
  p.refs_per_proc = 40'000;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 2.4;
  p.locking.barriers_per_proc = 20;
  p.seed = 0xbaa5;
  return p;
}

}  // namespace

int main() {
  using namespace syncpat;
  const std::uint64_t scale = bench::scale_or_die(bench::kDefaultScale * 2);
  std::cout << "Ablation: barrier waiting vs lock waiting (§3.1 remark)\n\n";

  report::Table t("Average processors already waiting at a barrier arrival");
  t.columns({"Processors", "Waiters@arrival", "(P-1)/2", "Avg wait (cy)"});
  for (const std::uint32_t procs : {4u, 8u, 10u, 12u}) {
    core::MachineConfig config;
    const auto r = core::run_experiment(config, barrier_profile(procs), 1).sim;
    t.add_row({std::to_string(procs),
               util::fixed(r.barrier_waiters_at_arrival.mean(), 2),
               util::fixed((procs - 1) / 2.0, 2),
               util::fixed(r.barrier_wait_cycles.mean(), 0)});
  }
  t.print(std::cout);

  core::MachineConfig config;
  const auto grav =
      core::run_experiment(config, workload::grav_profile(), scale).sim;
  std::cout << "For contrast, Grav's queuing-lock waiters at transfer: "
            << util::fixed(grav.locks.waiters_at_transfer.mean(), 2) << " of "
            << grav.num_procs << " processors — *more* than half the machine, "
            << "versus the barrier's (P-1)/2.\n";
  return 0;
}
