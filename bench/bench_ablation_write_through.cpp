// Ablation: write-through caches (paper §4.2).
//
// "If ... the number of writes to memory increased (as in the case of a
//  write-through cache), then the benefit [of weak ordering] would be
//  greater and might justify the cost."
//
// With write-through caches every store is a bus+memory write that stalls a
// sequentially consistent processor; weak ordering buffers them.  This bench
// measures the paper's conjecture directly.
#include <iostream>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

int main() {
  using namespace syncpat;
  const std::uint64_t scale = bench::scale_or_die(bench::kDefaultScale * 2);
  bench::print_scale_banner(scale);
  std::cout << "Ablation: weak-ordering benefit, write-back vs write-through "
               "caches\n\n";

  report::Table t("WO improvement over SC (%)");
  t.columns({"Program", "write-back", "write-through", "WT stores->bus"});
  for (const auto& profile :
       {workload::pverify_profile(), workload::topopt_profile(),
        workload::fullconn_profile()}) {
    std::vector<std::string> row{profile.name};
    std::uint64_t wt_writes = 0;
    for (const auto policy :
         {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
      core::MachineConfig config;
      config.write_policy = policy;
      config.consistency = bus::ConsistencyModel::kSequential;
      const auto sc = core::run_experiment(config, profile, scale).sim;
      config.consistency = bus::ConsistencyModel::kWeak;
      const auto wo = core::run_experiment(config, profile, scale).sim;
      row.push_back(util::fixed(wo.runtime_change_pct(sc), 2));
      if (policy == cache::WritePolicy::kWriteThrough) {
        wt_writes = wo.traffic.write_throughs;
      }
    }
    row.push_back(util::with_commas(wt_writes * scale));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "Expected shape: a few percent at most with write-back (the "
               "paper's machine),\nan order of magnitude more with "
               "write-through — §4.2's conjecture, confirmed\nwherever the "
               "extra write traffic does not saturate the bus outright (a "
               "store-\nheavy program like Pverify saturates it under either "
               "model, and buffering\nstores cannot create bus bandwidth).\n";
  return 0;
}
