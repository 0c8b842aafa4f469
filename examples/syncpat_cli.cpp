// Command-line driver: run any benchmark model (or a trace file) on any
// machine variant and print — or export as CSV — the full result set.
//
//   syncpat_cli [options]
//     --program NAME|PATH   Grav|Pdsa|FullConn|Pverify|Qsort|Topopt, or a
//                           .sptrace file written by save_program_trace
//                           (default Grav)
//     --scheme NAME         queuing|queuing-exact|ttas|tas|tas-backoff|
//                           ticket|anderson|mcs|clh (default queuing)
//     --consistency NAME    sequential|weak (default sequential)
//     --write-policy NAME   write-back|write-through (default write-back)
//     --scale N             trace length divisor, >= 1 (default 8)
//     --procs N             override processor count, 1..4096 (profiles only)
//     --buffer N            cache-bus buffer depth (default 4)
//     --mem-cycles N        memory access time (default 3)
//     --bus-discipline D    round-robin|fixed-priority|fcfs: the bus
//                           arbitration service discipline (default
//                           round-robin, the paper's machine)
//     --model NAME          bus|dsm: memory cost model (default bus; dsm
//                           adds a remote-access penalty for lines homed on
//                           another node)
//     --dsm-nodes N         dsm only: home-directory node count (default 4)
//     --dsm-remote-cycles N dsm only: extra cycles a remote access pays on
//                           top of the base memory time (default 20)
//     --jobs N              worker threads for --sweep (0 = all cores)
//     --check-invariants    run with the runtime invariant checker enabled on
//                           the selected engine; exits non-zero on any
//                           violation
//     --engine NAME         des|tick: the discrete-event core (default) or
//                           the per-cycle tick loop that is its oracle;
//                           results are byte-identical
//     --sweep               run every scheme x both consistency models on
//                           the parallel engine and print a comparison table
//                           (profiles only; --scheme and --consistency are
//                           rejected)
//     --per-lock            print the per-lock contention breakdown
//     --trace-out FILE      record a cycle-stamped event trace and write it
//                           as Chrome trace-event JSON (open at
//                           ui.perfetto.dev); with --sweep, one file per
//                           cell with the cell label spliced into FILE
//     --trace-events LIST   comma list of event categories to record:
//                           locks,bus,coherence,barriers,all
//                           (default all; implies tracing on)
//     --metrics             enable the deterministic metrics layer and print
//                           the machine profile (stall-cause breakdown,
//                           per-lock contention, windowed bus utilization)
//     --metrics-out FILE    write the metrics registry to FILE; the format
//                           follows the extension (.json or .csv, anything
//                           else is an error); implies --metrics; with
//                           --sweep, one file per cell with the cell label
//                           spliced into FILE
//     --metrics-window N    bus-utilization gauge window in cycles
//                           (default 4096)
//     --csv                 emit results as CSV instead of a table
//     --validate            validate the trace and exit
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/machine_config.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "report/lock_timeline.hpp"
#include "report/machine_profile.hpp"
#include "report/per_lock.hpp"
#include "report/table.hpp"
#include "trace/address_map.hpp"
#include "trace/analyzer.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "util/write_file.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace syncpat;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--program P] [--scheme S] [--consistency C]\n"
               "  [--write-policy W] [--scale N] [--procs N] [--buffer N]\n"
               "  [--mem-cycles N] [--jobs N] [--check-invariants]\n"
               "  [--bus-discipline round-robin|fixed-priority|fcfs]\n"
               "  [--model bus|dsm] [--dsm-nodes N] [--dsm-remote-cycles N]\n"
               "  [--engine des|tick] [--sweep] [--per-lock]\n"
               "  [--trace-out FILE] [--trace-events locks,bus,coherence,"
               "barriers,all]\n"
               "  [--metrics] [--metrics-out FILE.json|.csv] "
               "[--metrics-window N]\n"
               "  [--csv] [--validate]\n";
  std::exit(2);
}

struct Options {
  std::string program = "Grav";
  sync::SchemeKind scheme = sync::SchemeKind::kQueuing;
  bus::ConsistencyModel consistency = bus::ConsistencyModel::kSequential;
  bool scheme_given = false;       // --sweep runs every scheme and model,
  bool consistency_given = false;  // so it rejects these two flags
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  std::uint64_t scale = 8;
  std::uint32_t procs = 0;
  std::uint32_t buffer = 4;
  std::uint32_t mem_cycles = 3;
  std::uint32_t jobs = 0;
  bus::DisciplineKind bus_discipline = bus::DisciplineKind::kRoundRobin;
  core::MemModelKind model = core::MemModelKind::kBus;
  std::uint32_t dsm_nodes = 0;          // 0 = DsmConfig default
  std::uint32_t dsm_remote_cycles = 0;  // 0 = DsmConfig default
  bool check_invariants = false;
  core::EngineKind engine = core::EngineKind::kDes;
  bool sweep = false;
  bool per_lock = false;
  bool csv = false;
  bool validate = false;
  std::string trace_out;  // empty = tracing off (unless --trace-events given)
  std::uint32_t trace_categories = obs::category::kAll;
  bool trace_events_given = false;
  bool metrics = false;
  std::string metrics_out;  // non-empty implies --metrics
  std::uint32_t metrics_window = 0;  // 0 = MetricsConfig default
};

/// Strict positive-integer flag values; exits with a clear message on junk.
std::uint64_t numeric(const std::string& flag, const std::string& text) {
  try {
    return util::parse_positive_u64(text, flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

std::uint32_t numeric32(const std::string& flag, const std::string& text) {
  try {
    return util::parse_positive_u32(text, flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Enum flags: `from_name` is the strict spelling parser; a value it rejects
/// exits 2 with the flag's valid spellings.
template <typename Kind>
Kind named(const std::string& flag, const std::string& text,
           Kind (*from_name)(const std::string&), const char* spellings) {
  try {
    return from_name(text);
  } catch (const std::invalid_argument&) {
    std::cerr << "error: " << flag << " expects " << spellings << ", got \""
              << text << "\"\n";
    std::exit(2);
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--program") opt.program = value();
    else if (arg == "--scheme") {
      opt.scheme = named(arg, value(), &sync::scheme_kind_from_name,
                         "\"queuing\", \"queuing-exact\", \"ttas\", \"tas\", "
                         "\"tas-backoff\", \"ticket\", \"anderson\", \"mcs\" "
                         "or \"clh\"");
      opt.scheme_given = true;
    }
    else if (arg == "--consistency") {
      opt.consistency = named(arg, value(), &bus::consistency_from_name,
                              "\"sequential\" or \"weak\"");
      opt.consistency_given = true;
    }
    else if (arg == "--write-policy")
      opt.write_policy = named(arg, value(), &cache::write_policy_from_name,
                               "\"write-back\" or \"write-through\"");
    // Numeric flags share util::parse_*: a junk value ("--procs foo") is an
    // error, never a silent 0 (the SYNCPAT_SCALE policy).
    else if (arg == "--scale") opt.scale = numeric(arg, value());
    else if (arg == "--procs") {
      // parse_positive_u32 already rejects 0; the upper bound is the private
      // address interleave's capacity (trace::AddressMap::kMaxProcs).
      opt.procs = numeric32(arg, value());
      if (opt.procs > trace::AddressMap::kMaxProcs) {
        std::cerr << "error: --procs must be between 1 and "
                  << trace::AddressMap::kMaxProcs << ", got " << opt.procs
                  << "\n";
        std::exit(2);
      }
    }
    else if (arg == "--buffer") opt.buffer = numeric32(arg, value());
    else if (arg == "--mem-cycles") opt.mem_cycles = numeric32(arg, value());
    else if (arg == "--bus-discipline")
      opt.bus_discipline =
          named(arg, value(), &bus::discipline_from_name,
                "\"round-robin\", \"fixed-priority\" or \"fcfs\"");
    else if (arg == "--model")
      opt.model = named(arg, value(), &core::mem_model_from_name,
                        "\"bus\" or \"dsm\"");
    else if (arg == "--dsm-nodes") opt.dsm_nodes = numeric32(arg, value());
    else if (arg == "--dsm-remote-cycles")
      opt.dsm_remote_cycles = numeric32(arg, value());
    else if (arg == "--jobs" || arg == "-j") {
      // 0 is legal here: "use all cores".
      try {
        opt.jobs = util::parse_u32(value(), arg);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(2);
      }
    }
    else if (arg == "--check-invariants") opt.check_invariants = true;
    else if (arg == "--engine")
      opt.engine = named(arg, value(), &core::engine_from_name,
                         "\"des\" or \"tick\"");
    else if (arg == "--trace-out") opt.trace_out = value();
    else if (arg == "--trace-events") {
      try {
        opt.trace_categories = obs::parse_categories(value());
        opt.trace_events_given = true;
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        std::exit(2);
      }
    }
    else if (arg == "--metrics") opt.metrics = true;
    else if (arg == "--metrics-out") opt.metrics_out = value();
    else if (arg == "--metrics-window")
      opt.metrics_window = numeric32(arg, value());
    else if (arg == "--sweep") opt.sweep = true;
    else if (arg == "--per-lock") opt.per_lock = true;
    else if (arg == "--csv") opt.csv = true;
    else if (arg == "--validate") opt.validate = true;
    else usage(argv[0]);
  }
  if (opt.sweep && (opt.scheme_given || opt.consistency_given)) {
    std::cerr << "error: --sweep runs every scheme under both consistency "
                 "models; drop "
              << (!opt.consistency_given ? "--scheme"
                  : !opt.scheme_given    ? "--consistency"
                                         : "--scheme and --consistency")
              << "\n";
    std::exit(2);
  }
  return opt;
}

trace::ProgramTrace load_program(const Options& opt) {
  for (const auto& profile : workload::paper_profiles()) {
    if (profile.name == opt.program) {
      workload::BenchmarkProfile p = profile.scaled(opt.scale);
      if (opt.procs > 0) p.num_procs = opt.procs;
      return workload::make_program_trace(p);
    }
  }
  // Not a known profile name: treat as a trace-file path.
  return trace::load_program_trace(opt.program);
}

obs::MetricsMeta metrics_meta(const core::SimulationResult& r) {
  return {r.program, r.scheme, r.consistency, r.num_procs, r.run_time};
}

/// A cell's metrics in the format `path`'s extension names: JSON reuses the
/// cell's pre-rendered bytes (the ones the jobs-identity test compares), CSV
/// renders from the registry.
std::string metrics_bytes(const core::ExperimentOutcome& outcome,
                          const std::string& path) {
  return obs::metrics_format_from_path(path) == obs::MetricsFormat::kJson
             ? outcome.metrics_json
             : obs::metrics_to_csv(*outcome.metrics,
                                   metrics_meta(outcome.sim));
}

/// Writes `bytes` to `path` and prints "wrote PATH" and `note`; on failure
/// prints an error instead and returns false.
bool write_output(const std::string& path, const std::string& bytes,
                  const char* note = "") {
  if (!util::write_file(path, bytes)) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << note << "\n";
  return true;
}

/// --sweep: every lock scheme x both consistency models on the parallel
/// engine.
int run_sweep(const Options& opt, const core::MachineConfig& base) {
  const std::vector<workload::BenchmarkProfile> profiles =
      workload::paper_profiles();
  const workload::BenchmarkProfile* found = nullptr;
  for (const auto& profile : profiles) {
    if (profile.name == opt.program) found = &profile;
  }
  if (found == nullptr) {
    std::cerr << "error: --sweep needs a benchmark profile name "
                 "(Grav|Pdsa|FullConn|Pverify|Qsort|Topopt), not a trace "
                 "file\n";
    return 2;
  }
  workload::BenchmarkProfile profile = *found;
  if (opt.procs > 0) profile.num_procs = opt.procs;

  core::ExperimentGrid grid;
  grid.base = base;
  grid.profiles = {profile};
  grid.schemes = sync::all_scheme_kinds();
  grid.consistency_models = {bus::ConsistencyModel::kSequential,
                             bus::ConsistencyModel::kWeak};
  grid.scales = {opt.scale};

  core::EngineOptions engine;
  engine.jobs = opt.jobs;
  const core::GridResult result = core::run_grid(grid, engine);

  report::Table t("syncpat sweep: " + profile.name + " (scale 1/" +
                  std::to_string(opt.scale) + ", " +
                  std::to_string(result.jobs_used) + " workers, " +
                  util::fixed(result.wall_ms, 0) + " ms)");
  t.columns({"Scheme", "Model", "Run-time", "Util %", "Bus %", "Acq",
             "Xfer cy", "Wall ms"});
  bool violations = false;
  for (std::size_t i = 0; i < result.size(); ++i) {
    const core::CellResult& cell = result.results[i];
    const std::string label = result.cells[i].label();
    if (!cell.ok()) {
      std::cerr << "cell " << label << " failed: " << cell.error << "\n";
      return 1;
    }
    const core::SimulationResult& r = cell.outcome.sim;
    t.add_row({r.scheme, r.consistency, util::with_commas(r.run_time),
               util::percent(r.avg_utilization, 1),
               util::percent(r.bus_utilization, 1),
               util::with_commas(r.locks.acquisitions),
               util::fixed(r.locks.transfer_cycles.mean(), 1),
               util::fixed(cell.wall_ms, 1)});
    if (cell.outcome.invariants.violations > 0) {
      violations = true;
      std::cerr << "invariant violations in " << label << ": "
                << cell.outcome.invariants.violations << " (first: "
                << (cell.outcome.invariants.samples.empty()
                        ? "<none recorded>"
                        : cell.outcome.invariants.samples[0])
                << ")\n";
    }
    // The cell label splices into the --trace-out and --metrics-out paths.
    if (!opt.trace_out.empty() && grid.base.trace.enabled &&
        !write_output(obs::trace_out_path(opt.trace_out, label),
                      cell.outcome.trace_json)) {
      return 1;
    }
    if (!opt.metrics_out.empty() && cell.outcome.metrics != nullptr &&
        !write_output(obs::trace_out_path(opt.metrics_out, label),
                      metrics_bytes(cell.outcome, opt.metrics_out))) {
      return 1;
    }
  }
  if (opt.csv) {
    std::cout << t.to_csv();
  } else {
    t.print(std::cout);
  }
  if (opt.check_invariants && !violations) {
    std::cout << "invariants: all cells clean\n";
  }
  return violations ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  core::MachineConfig config;
  config.lock_scheme = opt.scheme;
  config.consistency = opt.consistency;
  config.write_policy = opt.write_policy;
  config.cache_bus_buffer_depth = opt.buffer;
  config.memory.access_cycles = opt.mem_cycles;
  config.bus_discipline = opt.bus_discipline;
  config.model = opt.model;
  if (opt.dsm_nodes > 0) config.dsm.nodes = opt.dsm_nodes;
  if (opt.dsm_remote_cycles > 0) {
    config.dsm.remote_access_cycles = opt.dsm_remote_cycles;
  }
  config.invariants.enabled = opt.check_invariants;
  config.engine = opt.engine;
  // --trace-events without --trace-out still records (the in-memory lock
  // timeline is useful on its own); --trace-out implies recording.
  config.trace.enabled = !opt.trace_out.empty() || opt.trace_events_given;
  config.trace.categories = opt.trace_categories;
  // --metrics-out implies --metrics.
  config.metrics.enabled = opt.metrics || !opt.metrics_out.empty();
  if (!opt.metrics_out.empty()) {
    // Validate the extension up front: fail before the run, not after.
    try {
      (void)obs::metrics_format_from_path(opt.metrics_out);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  if (opt.metrics_window > 0) {
    config.metrics.bus_window_cycles = opt.metrics_window;
  }

  if (opt.sweep) return run_sweep(opt, config);

  trace::ProgramTrace program;
  try {
    program = load_program(opt);
  } catch (const std::exception& e) {
    std::cerr << "cannot load program '" << opt.program << "': " << e.what()
              << "\n";
    return 1;
  }

  if (opt.validate) {
    const trace::ValidationReport report = trace::validate_program(program);
    std::cout << report.to_string();
    return report.ok() ? 0 : 1;
  }

  const core::ExperimentOutcome outcome =
      core::run_experiment(config, std::move(program));
  const core::SimulationResult& r = outcome.sim;
  const trace::IdealProgramStats& ideal = outcome.ideal;

  report::Table t("syncpat: " + r.program + " on " + r.scheme + "/" +
                  r.consistency + "/" +
                  cache::write_policy_name(opt.write_policy));
  t.columns({"Metric", "Value"});
  t.add_row({"processors", std::to_string(r.num_procs)});
  t.add_row({"run-time (cycles)", util::with_commas(r.run_time)});
  t.add_row({"utilization %", util::percent(r.avg_utilization, 1)});
  t.add_row({"stalls cache %", util::fixed(r.stall_cache_pct, 1)});
  t.add_row({"stalls lock %", util::fixed(r.stall_lock_pct, 1)});
  t.add_row({"bus utilization %", util::percent(r.bus_utilization, 1)});
  t.add_row({"write-hit %", util::percent(r.write_hit_ratio, 1)});
  t.add_row({"lock acquisitions", util::with_commas(r.locks.acquisitions)});
  t.add_row({"lock transfers", util::with_commas(r.locks.transfers)});
  t.add_row({"waiters at transfer", util::fixed(r.locks.waiters_at_transfer.mean(), 2)});
  t.add_row({"transfer latency (cy)", util::fixed(r.locks.transfer_cycles.mean(), 1)});
  t.add_row({"hold time (cy)", util::fixed(r.locks.hold_cycles.mean(), 0)});
  t.add_row({"ideal work/proc", util::with_commas(static_cast<std::uint64_t>(
                                    ideal.avg_work_cycles()))});
  t.add_row({"ideal lock pairs/proc", util::fixed(ideal.avg_lock_pairs(), 1)});
  t.add_row({"ideal time locked %", util::percent(ideal.held_time_fraction(), 1)});
  t.add_row({"barriers completed", util::with_commas(r.barriers_completed)});
  t.add_row({"bus txns (r/x/u/wb/wt)",
             util::with_commas(r.traffic.reads) + "/" +
                 util::with_commas(r.traffic.readx) + "/" +
                 util::with_commas(r.traffic.upgrades) + "/" +
                 util::with_commas(r.traffic.writebacks) + "/" +
                 util::with_commas(r.traffic.write_throughs)});
  if (opt.csv) {
    std::cout << t.to_csv();
  } else {
    t.print(std::cout);
  }
  if (opt.per_lock) report::per_lock_table(outcome.per_lock).print(std::cout);
  if (outcome.metrics != nullptr) {
    const obs::MetricsRegistry& m = *outcome.metrics;
    const obs::MetricsMeta meta = metrics_meta(r);
    const report::Table profile[] = {report::machine_profile_cycles(m, meta),
                                     report::machine_profile_locks(m),
                                     report::machine_profile_bus(m, meta)};
    for (const report::Table& section : profile) {
      if (opt.csv) {
        std::cout << section.to_csv();
      } else {
        section.print(std::cout);
      }
    }
    if (!opt.metrics_out.empty() &&
        !write_output(opt.metrics_out, metrics_bytes(outcome, opt.metrics_out))) {
      return 1;
    }
  }
  if (config.trace.enabled) {
    if (!opt.trace_out.empty() &&
        !write_output(opt.trace_out, outcome.trace_json,
                      " (open at ui.perfetto.dev)")) {
      return 1;
    }
    if ((config.trace.categories & obs::category::kLocks) != 0) {
      report::lock_timeline_table(outcome.lock_timeline).print(std::cout);
    }
  }
  if (outcome.invariants.enabled) {
    std::cout << "invariants: " << util::with_commas(outcome.invariants.checks)
              << " checks, "
              << util::with_commas(outcome.invariants.violations)
              << " violations\n";
    for (const std::string& v : outcome.invariants.samples) {
      std::cerr << "  violation: " << v << "\n";
    }
    if (outcome.invariants.violations > 0) return 1;
  }
  return 0;
}
