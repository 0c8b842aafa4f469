// The ablation run: the design questions the paper leaves open — the exact
// queuing lock (§2.4), barrier waiting (§3.1), write-through caches and
// buffer depth (§4.2), memory latency (§4.2/§5), bus and memory parameters
// (§2.1) — plus the lock shootout of its references [3]/[12] and a
// weak-scaling study, from one grid of the 113 simulations they read.
//
//   bench_ablations
//
// SYNCPAT_SCALE (default 16) divides the paper programs' trace lengths; the
// synthetic shootout and barrier workloads always run at full length.  The
// cells run on the parallel engine with SYNCPAT_JOBS workers (0, the default,
// uses every core), and the output is identical for any worker count.
//
// Every section prints its tables and its stated shape, then checks that
// shape against what it measured.  The checks hold at the default scale; at
// other scales some of them miss (EXPERIMENTS.md, "Ablations").
//
// Exit status: 0; 1 when a cell fails or a section's shape is not met (one
// "error: <section>: <claim> (<measured>)" line per miss on stderr, after
// every section has printed); 2 on any argument or a malformed environment
// value.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

using namespace syncpat;

constexpr std::uint64_t kAblationScale = 16;

/// "A few percent", wherever a section claims it.
constexpr double kFewPercent = 3.0;

/// One pass over the sections.  Recording (no grid yet), sim() notes each
/// simulation a section asks for and hands back an empty result; replaying,
/// it hands back the grid's results in the order they were recorded.
class Pass {
 public:
  Pass(std::ostream& out, const core::GridResult* run) : out(out), run_(run) {}

  std::ostream& out;
  std::string section;               // names the misses check() records
  std::vector<std::string> misses;   // "<section>: <claim> (<measured>)"
  std::vector<core::ExperimentCell> cells;  // recorded

  const core::SimulationResult& sim(const core::MachineConfig& config,
                                    const workload::BenchmarkProfile& profile,
                                    std::uint64_t scale) {
    if (run_ == nullptr) {
      core::ExperimentCell cell;
      cell.profile = profile;
      cell.config = config;
      cell.scale = scale;
      cells.push_back(std::move(cell));
      return kEmpty;
    }
    return run_->results[next_++].outcome.sim;
  }

  void check(bool holds, const std::string& claim,
             const std::string& measured) {
    if (!holds) misses.push_back(section + ": " + claim + " (" + measured + ")");
  }

 private:
  static inline const core::SimulationResult kEmpty{};
  const core::GridResult* run_;
  std::size_t next_ = 0;
};

std::string pct(double value) { return util::fixed(value, 2) + " %"; }

/// The paper's stated future work (§2.4):
///
/// "In an exact queuing lock implementation, there would be an additional
///  memory access in the phase when a processor gets on the queue ... and
///  there would be an additional memory access after the release of the lock
///  ... We believe that the two missing bus transactions have no impact on
///  the validity of our results.  We are currently modifying our simulator to
///  verify this assumption."
///
/// The two high-contention programs (and FullConn) run under the approximate
/// scheme and under the exact Graunke-Thakkar variant.
void exact_queuing(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: approximate vs exact queuing lock (the paper's "
         "§2.4 verification)\n\n";
  for (const auto& profile :
       {workload::grav_profile(), workload::pdsa_profile(),
        workload::fullconn_profile()}) {
    core::MachineConfig config;
    config.lock_scheme = sync::SchemeKind::kQueuing;
    const auto& approx = pass.sim(config, profile, scale);
    config.lock_scheme = sync::SchemeKind::kQueuingExact;
    const auto& exact = pass.sim(config, profile, scale);

    const double delta = -exact.runtime_change_pct(approx);
    out << profile.name << ":\n"
        << "  run-time approx  : " << util::with_commas(approx.run_time)
        << "  (util " << util::percent(approx.avg_utilization, 1)
        << "%, transfer " << util::fixed(approx.locks.transfer_cycles.mean(), 1)
        << " cy)\n"
        << "  run-time exact   : " << util::with_commas(exact.run_time)
        << "  (util " << util::percent(exact.avg_utilization, 1)
        << "%, transfer " << util::fixed(exact.locks.transfer_cycles.mean(), 1)
        << " cy)\n"
        << "  exact is " << util::fixed(delta, 2)
        << "% slower; waiters " << util::fixed(approx.locks.waiters_at_transfer.mean(), 2)
        << " -> " << util::fixed(exact.locks.waiters_at_transfer.mean(), 2)
        << "\n\n";
    pass.check(std::abs(delta) <= kFewPercent,
               "the extra transactions change run-time by a few percent at "
               "most",
               profile.name + ": exact is " + pct(delta) + " slower");
  }
  out << "Conclusion check: the extra transactions change run-time by a"
         " few percent at most\nand do not reorder any of the paper's "
         "findings (lock-acquisition count remains\nthe contention "
         "predictor; queuing remains far cheaper than T&T&S).\n";
}

/// Every processor loops { acquire; tiny critical section; release; think }.
workload::BenchmarkProfile contended_profile(std::uint32_t procs) {
  workload::BenchmarkProfile p;
  p.name = "shootout";
  p.num_procs = procs;
  p.refs_per_proc = 30'000;
  p.data_ref_fraction = 0.3;
  p.work_cycles_per_ref = 2.0;
  p.locking.pairs_per_proc = 600;
  p.locking.cs_work_cycles = 40;   // short critical sections, heavy arrivals
  p.locking.num_locks = 1;
  p.locking.dominant_weight = 1.0;
  p.seed = 0x51ac;
  return p;
}

/// Lock-scheme shootout on a synthetic high-contention kernel — the style of
/// experiment in Anderson [3] and Graunke & Thakkar [12] that the paper
/// contrasts its real-program study against: hand-off latency and run-time
/// against the processor count for six schemes.
void lock_shootout(Pass& pass, std::uint64_t /*scale*/) {
  std::ostream& out = pass.out;
  out << "Ablation: lock-scheme shootout under high contention\n\n";

  const sync::SchemeKind kinds[] = {
      sync::SchemeKind::kTas,    sync::SchemeKind::kTasBackoff,
      sync::SchemeKind::kTtas,   sync::SchemeKind::kTicket,
      sync::SchemeKind::kAnderson, sync::SchemeKind::kQueuing};

  report::Table latency("Lock transfer latency (cycles) vs processors");
  report::Table runtime("Run-time (1000s of cycles) vs processors");
  latency.columns({"Scheme", "p=2", "p=4", "p=8", "p=12"});
  runtime.columns({"Scheme", "p=2", "p=4", "p=8", "p=12"});

  std::map<sync::SchemeKind, double> latency12;  // hand-off latency at p=12
  std::map<sync::SchemeKind, std::uint64_t> runtime12;
  for (const auto kind : kinds) {
    std::vector<std::string> lat_row{sync::scheme_kind_name(kind)};
    std::vector<std::string> rt_row{sync::scheme_kind_name(kind)};
    for (const std::uint32_t procs : {2u, 4u, 8u, 12u}) {
      core::MachineConfig config;
      config.lock_scheme = kind;
      const auto& r = pass.sim(config, contended_profile(procs), 1);
      const double lat = r.locks.transfer_cycles.mean();
      lat_row.push_back(util::fixed(lat, 1));
      rt_row.push_back(util::with_commas(r.run_time / 1000));
      if (procs == 12) {
        latency12[kind] = lat;
        runtime12[kind] = r.run_time;
      }
      if (kind == sync::SchemeKind::kQueuing) {
        pass.check(lat <= 2.0, "queuing stays ~flat at a couple of cycles",
                   "p=" + std::to_string(procs) + ": " +
                       util::fixed(lat, 1) + " cycles");
      }
    }
    latency.add_row(std::move(lat_row));
    runtime.add_row(std::move(rt_row));
  }
  latency.print(out);
  runtime.print(out);
  out << "Expected shape (Anderson [3], Graunke-Thakkar [12]): T&S "
         "degrades sharply with\nprocessors, T&T&S grows to ~20+ cycle "
         "hand-offs, ticket halves the burst, and\nqueuing stays ~flat "
         "at a couple of cycles.\n";

  const auto slowest = std::max_element(
      runtime12.begin(), runtime12.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  pass.check(slowest->first == sync::SchemeKind::kTas,
             "T&S degrades sharply with processors",
             std::string("longest p=12 run-time: ") +
                 sync::scheme_kind_name(slowest->first) + " " +
                 util::with_commas(slowest->second / 1000) + "k");
  const double ttas = latency12[sync::SchemeKind::kTtas];
  const double ticket = latency12[sync::SchemeKind::kTicket];
  pass.check(ttas >= 20.0, "T&T&S grows to ~20+ cycle hand-offs",
             "p=12: " + util::fixed(ttas, 1) + " cycles");
  pass.check(ticket <= ttas / 2, "ticket halves the burst",
             "p=12: ticket " + util::fixed(ticket, 1) + " vs ttas " +
                 util::fixed(ttas, 1) + " cycles");
}

workload::BenchmarkProfile barrier_profile(std::uint32_t procs) {
  workload::BenchmarkProfile p;
  p.name = "barrier-phases";
  p.num_procs = procs;
  p.refs_per_proc = 40'000;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 2.4;
  p.locking.barriers_per_proc = 20;
  p.seed = 0xbaa5;
  return p;
}

/// Barrier vs lock waiting (§3.1):
///
/// "For Grav and Pdsa this number [waiters at transfer] is slightly over
///  half the number of processors.  This is extremely heavy contention
///  since, by comparison, a barrier would yield a number less than half the
///  number of processors."
///
/// Barrier phases in a lock-free workload: for P processors the average
/// number already waiting when one arrives should be (P-1)/2 < P/2.
void barrier(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: barrier waiting vs lock waiting (§3.1 remark)\n\n";

  report::Table t("Average processors already waiting at a barrier arrival");
  t.columns({"Processors", "Waiters@arrival", "(P-1)/2", "Avg wait (cy)"});
  for (const std::uint32_t procs : {4u, 8u, 10u, 12u}) {
    core::MachineConfig config;
    const auto& r = pass.sim(config, barrier_profile(procs), 1);
    const double waiters = r.barrier_waiters_at_arrival.mean();
    const double expected = (procs - 1) / 2.0;
    t.add_row({std::to_string(procs), util::fixed(waiters, 2),
               util::fixed(expected, 2),
               util::fixed(r.barrier_wait_cycles.mean(), 0)});
    pass.check(std::abs(waiters - expected) <= 0.005,
               "exactly (P-1)/2 processors wait at a barrier arrival",
               "P=" + std::to_string(procs) + ": " + util::fixed(waiters, 3));
  }
  t.print(out);

  core::MachineConfig config;
  const auto& grav = pass.sim(config, workload::grav_profile(), scale);
  const double grav_waiters = grav.locks.waiters_at_transfer.mean();
  out << "For contrast, Grav's queuing-lock waiters at transfer: "
      << util::fixed(grav_waiters, 2) << " of " << grav.num_procs
      << " processors — *more* than half the machine, "
      << "versus the barrier's (P-1)/2.\n";
  pass.check(grav_waiters > grav.num_procs / 2.0,
             "Grav's lock waiters are more than half the machine",
             util::fixed(grav_waiters, 2) + " of " +
                 std::to_string(grav.num_procs));
}

/// Write-through caches (§4.2):
///
/// "If ... the number of writes to memory increased (as in the case of a
///  write-through cache), then the benefit [of weak ordering] would be
///  greater and might justify the cost."
///
/// With write-through caches every store is a bus+memory write that stalls a
/// sequentially consistent processor; weak ordering buffers them.
void write_through(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: weak-ordering benefit, write-back vs write-through "
         "caches\n\n";

  report::Table t("WO improvement over SC (%)");
  t.columns({"Program", "write-back", "write-through", "WT stores->bus"});
  for (const auto& profile :
       {workload::pverify_profile(), workload::topopt_profile(),
        workload::fullconn_profile()}) {
    std::vector<std::string> row{profile.name};
    std::uint64_t wt_writes = 0;
    double write_back = 0.0;
    double write_through = 0.0;
    for (const auto policy :
         {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
      core::MachineConfig config;
      config.write_policy = policy;
      config.consistency = bus::ConsistencyModel::kSequential;
      const auto& sc = pass.sim(config, profile, scale);
      config.consistency = bus::ConsistencyModel::kWeak;
      const auto& wo = pass.sim(config, profile, scale);
      const double benefit = wo.runtime_change_pct(sc);
      row.push_back(util::fixed(benefit, 2));
      if (policy == cache::WritePolicy::kWriteThrough) {
        write_through = benefit;
        wt_writes = wo.traffic.write_throughs;
      } else {
        write_back = benefit;
      }
    }
    row.push_back(util::with_commas(wt_writes * scale));
    t.add_row(std::move(row));
    pass.check(std::abs(write_back) <= kFewPercent,
               "a few percent at most with write-back",
               profile.name + ": " + pct(write_back));
    if (profile.name != "Pverify") {  // the stated exception
      pass.check(write_through > kFewPercent && write_through > write_back,
                 "more than that with write-through",
                 profile.name + ": " + pct(write_back) + " -> " +
                     pct(write_through));
    }
  }
  t.print(out);
  out << "Expected shape: a few percent at most with write-back (the "
         "paper's machine),\nmore than that with write-through — §4.2's "
         "conjecture, confirmed wherever the\nextra write traffic does not "
         "saturate the bus outright (a store-heavy program\nlike Pverify "
         "saturates it under either model, and buffering stores cannot\n"
         "create bus bandwidth).\n";
}

/// Cache-bus buffer depth (§4.2):
///
/// "We found that there were almost never any uncompleted shared accesses
///  when a lock or unlock was done.  Therefore it is debatable whether
///  cache-bus buffers should be as deep as those we simulated."
///
/// Run-time and the syncs that found pending accesses, by buffer depth under
/// weak ordering.
void buffer_depth(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: cache-bus buffer depth under weak ordering\n\n";

  report::Table t("Run-time (1000s of cycles) and syncs-with-pending by depth");
  t.columns({"Program", "d=1", "d=2", "d=4", "d=8", "pend@4"});
  for (const auto& profile :
       {workload::grav_profile(), workload::pverify_profile(),
        workload::qsort_profile()}) {
    std::vector<std::string> row{profile.name};
    std::string pending;
    std::vector<std::uint64_t> past_two;  // run-times at depth >= 2
    for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
      core::MachineConfig config;
      config.consistency = bus::ConsistencyModel::kWeak;
      config.cache_bus_buffer_depth = depth;
      const auto& r = pass.sim(config, profile, scale);
      row.push_back(util::with_commas(r.run_time / 1000));
      if (depth == 4) {
        pending = util::with_commas(r.syncs_with_pending) + "/" +
                  util::with_commas(r.syncs);
      }
      if (depth >= 2) past_two.push_back(r.run_time);
    }
    row.push_back(pending.empty() ? "n/a" : pending);
    t.add_row(std::move(row));
    const auto [lo, hi] = std::minmax_element(past_two.begin(), past_two.end());
    const double spread = 100.0 * static_cast<double>(*hi - *lo) /
                          static_cast<double>(*lo);
    pass.check(spread <= 1.0, "run-times barely move past depth 1-2",
               profile.name + ": d=2..8 differ by " + pct(spread));
  }
  t.print(out);
  out << "Expected shape: run-times barely move past depth 1-2, "
         "confirming the paper's\nsuspicion that the 4-deep buffer is "
         "over-provisioned for this machine.\n";
}

/// Memory latency (§4.2 / §5):
///
/// "If the miss penalty were greater, e.g., because the memory latency is
///  much higher as in a multistage interconnection based system ... then the
///  benefit [of weak ordering] would be greater and might justify the cost."
///
/// The weak-ordering improvement over sequential consistency by memory
/// access time.
void memory_latency(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: weak-ordering benefit vs memory latency\n\n";

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
      const auto& sc = pass.sim(config, profile, scale);
      config.consistency = bus::ConsistencyModel::kWeak;
      const auto& wo = pass.sim(config, profile, scale);
      const double benefit = wo.runtime_change_pct(sc);
      row.push_back(util::fixed(benefit, 2));
      if (profile.name != "Topopt") {
        pass.check(std::abs(benefit) <= kFewPercent,
                   "the relative benefit stays within a few percent on "
                   "Pverify and FullConn",
                   profile.name + " m=" + std::to_string(mem) + ": " +
                       pct(benefit));
      }
    }
    t.add_row(std::move(row));
  }
  t.print(out);
  out << "Finding: the absolute cycles saved by hiding write misses grow "
         "with the miss\npenalty, but so do the read-miss stalls weak "
         "ordering cannot hide, so the\nrelative benefit stays within a few "
         "percent on Pverify and FullConn at every\nlatency.  Only Topopt's "
         "benefit grows with latency, and not steadily: it peaks\nat an "
         "intermediate latency and falls back.  The paper's conjecture (§4.2)"
         "\nneeds writes to be a large share of misses — the write-through "
         "regime, not\nthis write-back machine.\n";
}

/// Bus and memory parameter sensitivity (§2.1):
///
/// "This performance evaluation tool allows us ... to assess the effect of
///  changes in system parameters (e.g., bus and memory cycle times).  Since
///  the latter parameters did not modify the general trends of our results,
///  we will not consider them further."
///
/// Bus width and memory cycle time vary on the two contention-bound programs;
/// the trend — queuing locks beating T&T&S — must hold everywhere.
void bus_params(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: T&T&S slowdown vs queuing across machine "
         "parameters\n\n";

  report::Table t("T&T&S run-time increase over queuing (%)");
  t.columns({"Config", "Grav", "Pdsa"});
  struct Variant {
    const char* label;
    std::uint32_t bus_bytes;
    std::uint32_t mem_cycles;
  };
  const Variant variants[] = {
      {"bus 8B, mem 3cy (paper)", 8, 3},
      {"bus 4B, mem 3cy", 4, 3},
      {"bus 16B, mem 3cy", 16, 3},
      {"bus 8B, mem 6cy", 8, 6},
      {"bus 8B, mem 12cy", 8, 12},
  };
  for (const auto& v : variants) {
    std::vector<std::string> row{v.label};
    for (const auto& profile :
         {workload::grav_profile(), workload::pdsa_profile()}) {
      core::MachineConfig config;
      config.bus_bytes = v.bus_bytes;
      config.memory.access_cycles = v.mem_cycles;
      config.lock_scheme = sync::SchemeKind::kQueuing;
      const auto& q = pass.sim(config, profile, scale);
      config.lock_scheme = sync::SchemeKind::kTtas;
      const auto& tt = pass.sim(config, profile, scale);
      const double slowdown = -tt.runtime_change_pct(q);
      row.push_back(util::fixed(slowdown, 2));
      pass.check(slowdown > 0.0, "the slowdown stays positive everywhere",
                 profile.name + ", " + v.label + ": " + pct(slowdown));
    }
    t.add_row(std::move(row));
  }
  t.print(out);
  out << "Expected shape: the slowdown varies in magnitude but stays "
         "positive everywhere —\nthe paper's general trends are "
         "insensitive to these parameters.\n";
}

/// Processor scaling (the paper's premise, §1): "Efficient synchronization is
/// a key element in obtaining good speed-up from parallel programs."  With
/// per-processor work held constant (weak scaling), the run-time of a
/// perfectly scaling program stays flat: the lock-bound Grav model (one
/// dominant scheduler lock) saturates at its critical-section throughput while
/// the lock-free Topopt model scales.
void scaling(Pass& pass, std::uint64_t scale) {
  std::ostream& out = pass.out;
  out << "Ablation: processor scaling, lock-bound vs cache-bound\n\n";

  for (const bool lock_bound : {true, false}) {
    workload::BenchmarkProfile base =
        lock_bound ? workload::grav_profile() : workload::topopt_profile();
    report::Table t(std::string(lock_bound ? "Grav model (dominant lock)"
                                           : "Topopt model (no locks)") +
                    ": per-processor work held constant");
    t.columns({"Procs", "run-time(k)", "Util%", "Waiters", "Bus%"});
    std::vector<std::uint64_t> run_times;
    std::string series;  // run-times in 1000s, for the checks
    for (const std::uint32_t procs : {2u, 4u, 8u, 12u, 16u}) {
      core::MachineConfig config;
      base.num_procs = procs;
      const auto& r = pass.sim(config, base, scale);
      run_times.push_back(r.run_time);
      series += (series.empty() ? "p=" : ", p=") + std::to_string(procs) +
                " " + util::with_commas(r.run_time / 1000) + "k";
      t.add_row({std::to_string(procs), util::with_commas(r.run_time / 1000),
                 util::percent(r.avg_utilization, 1),
                 util::fixed(r.locks.waiters_at_transfer.mean(), 2),
                 util::percent(r.bus_utilization, 1)});
    }
    t.note("run-time at p=2 was " + util::with_commas(run_times[0] / 1000) +
           "k; flat run-time = perfect weak scaling");
    t.print(out);
    if (lock_bound) {
      pass.check(std::adjacent_find(run_times.begin(), run_times.end(),
                                    std::greater_equal<>()) == run_times.end(),
                 "the lock-bound model's run-time grows with processors",
                 base.name + " " + series);
    } else {
      const auto [lo, hi] =
          std::minmax_element(run_times.begin(), run_times.end());
      pass.check(static_cast<double>(*hi) <= 1.03 * static_cast<double>(*lo),
                 "the lock-free model stays nearly flat",
                 base.name + " " + series);
    }
  }
  out << "Expected shape: the lock-bound model's run-time grows with "
         "processors (the\ndominant lock serializes everything and "
         "waiters pile up) while the lock-free\nmodel stays nearly "
         "flat until the bus saturates.\n";
}

struct Section {
  const char* name;
  void (*body)(Pass&, std::uint64_t scale);
};

// EXPERIMENTS.md's order.
constexpr Section kSections[] = {
    {"exact queuing", exact_queuing},   {"lock shootout", lock_shootout},
    {"barrier", barrier},               {"write-through", write_through},
    {"buffer depth", buffer_depth},     {"memory latency", memory_latency},
    {"bus params", bus_params},         {"scaling", scaling},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0]
              << "\n  takes no arguments; SYNCPAT_SCALE divides the trace "
                 "lengths (default 16)\n  and SYNCPAT_JOBS sets the worker "
                 "count (default 0 = all cores)\n";
    return 2;
  }
  const std::uint64_t scale = bench::scale_or_die(kAblationScale);
  const std::uint32_t jobs = bench::jobs_or_die();

  // Record every section's cells (printing nowhere), run them as one grid,
  // then print and check every section from the results.
  std::ostream discard(nullptr);
  Pass record(discard, nullptr);
  for (const Section& s : kSections) s.body(record, scale);
  const core::GridResult run = bench::run_or_die(std::move(record.cells), jobs);

  bench::print_grid_banner(scale, run);
  Pass replay(std::cout, &run);
  for (const Section& s : kSections) {
    replay.section = s.name;
    s.body(replay, scale);
  }
  for (const std::string& miss : replay.misses) {
    std::cerr << "error: " << miss << "\n";
  }
  return replay.misses.empty() ? 0 : 1;
}
