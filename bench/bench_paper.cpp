// The paper run: Figure 1, then Tables 1-8 with their comparison lines, from
// one pass over the 17 simulations the tables read (report::paper_cells).
//
//   bench_paper [--jobs N | -j N] [--trace-out FILE] [--trace-events LIST]
//
// SYNCPAT_SCALE (default 8) divides the paper's trace lengths; count-like
// columns are scaled back up for display, and SYNCPAT_SCALE=1 reproduces
// paper-length traces.  The cells run on the parallel engine
// (core/experiment_engine.hpp) with --jobs workers, or SYNCPAT_JOBS; 0 (the
// default) uses every core, and the output is identical for any worker
// count.  SYNCPAT_CHECK_INVARIANTS=1 runs every cell with the runtime
// invariant checker and fails on any violation.
//
// Exit status: 0; 1 when the single-miss probe does not cost the paper's six
// stall cycles, a cell fails, or a trace file cannot be written; 2 on a
// malformed input.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace_event.hpp"
#include "report/lock_timeline.hpp"
#include "report/paper_tables.hpp"
#include "trace/address_map.hpp"
#include "trace/source.hpp"
#include "util/parse.hpp"
#include "util/write_file.hpp"

namespace {

using namespace syncpat;

struct Options {
  std::uint32_t jobs = 0;  // 0 = all cores
  std::string trace_out;   // empty = tracing off
  std::uint32_t trace_categories = obs::category::kAll;
};

[[noreturn]] void usage_and_exit(const char* prog) {
  std::cerr << "usage: " << prog
            << " [--jobs N | -j N] [--trace-out FILE] [--trace-events LIST]\n"
            << "  --jobs N          worker threads for the experiment grid "
               "(0 = all cores; also SYNCPAT_JOBS)\n"
            << "  --trace-out FILE  write Chrome trace-event JSON (one file "
               "per grid cell,\n"
               "                    cell label spliced into FILE's name); "
               "load at ui.perfetto.dev\n"
            << "  --trace-events L  comma list of categories to record: "
               "locks,bus,coherence,\n"
               "                    barriers,all (default all)\n";
  std::exit(2);
}

/// Flags take their value as the next argument or after '='.  Malformed
/// values exit 2 with an "error: " message.
Options parse_args(int argc, char** argv) {
  Options opts;
  opts.jobs = bench::jobs_or_die();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value_of = [&](const std::string& flag) -> std::optional<std::string> {
        if (arg == flag) {
          if (i + 1 >= argc) usage_and_exit(argv[0]);
          return std::string(argv[++i]);
        }
        if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
        return std::nullopt;
      };
      if (std::optional<std::string> v = value_of("--jobs")) {
        opts.jobs = util::parse_u32(*v, "--jobs");
      } else if (std::optional<std::string> v = value_of("-j")) {
        opts.jobs = util::parse_u32(*v, "-j");
      } else if (std::optional<std::string> v = value_of("--trace-out")) {
        if (v->empty()) usage_and_exit(argv[0]);
        opts.trace_out = *v;
      } else if (std::optional<std::string> v = value_of("--trace-events")) {
        opts.trace_categories = obs::parse_categories(*v);
      } else {
        usage_and_exit(argv[0]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  return opts;
}

/// Figure 1: the paper's only figure is the machine diagram, so print the
/// simulated configuration and check its headline timing contract on a
/// two-load trace: an uncontended miss costs six stall cycles.
bool print_figure1() {
  core::MachineConfig config;
  std::cout << "Figure 1 reproduction: simulated machine configuration\n\n"
            << config.describe() << "\n";
  trace::ProgramTrace program;
  program.name = "figure1-timing";
  const std::vector<trace::Event> events = {
      {trace::AddressMap::shared_addr(0), 1, trace::Op::kLoad},
      {trace::AddressMap::shared_addr(0), 1, trace::Op::kLoad},
  };
  program.per_proc.push_back(
      std::make_unique<trace::VectorTraceSource>(events));
  const core::ExperimentOutcome probe =
      core::run_experiment(config, std::move(program));
  const std::uint64_t stall = probe.sim.per_proc[0].stall_cache;
  std::cout << "single cold read miss: " << stall
            << " stall cycles (paper: 6)\n";
  return stall == 6;
}

/// Writes one Chrome trace file per cell, the cell label spliced into `base`
/// before its extension, then prints Grav's lock hand-off timelines (§2.3
/// attribution).
bool write_traces(const core::GridResult& run, const std::string& base) {
  for (std::size_t i = 0; i < run.size(); ++i) {
    const std::string path = obs::trace_out_path(base, run.cells[i].label());
    if (!util::write_file(path, run.results[i].outcome.trace_json)) {
      std::cerr << "error: cannot write " << path << "\n";
      return false;
    }
    std::cout << "wrote " << path << "\n";
  }
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (run.cells[i].profile.name != "Grav") continue;
    std::cout << "\n" << run.cells[i].label()
              << " lock hand-off timeline (§2.3 attribution):\n";
    report::lock_timeline_table(run.results[i].outcome.lock_timeline)
        .print(std::cout);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  const std::uint64_t scale = bench::scale_or_die();
  const bool probe_ok = print_figure1();

  core::MachineConfig base;
  base.invariants.enabled = std::getenv("SYNCPAT_CHECK_INVARIANTS") != nullptr;
  base.trace.enabled = !opts.trace_out.empty();
  base.trace.categories = opts.trace_categories;
  const core::GridResult run =
      bench::run_or_die(report::paper_cells(base, scale), opts.jobs);

  bench::print_grid_banner(scale, run);
  report::print_paper_tables(run, std::cout);
  if (base.trace.enabled && !write_traces(run, opts.trace_out)) return 1;
  return probe_ok ? 0 : 1;
}
