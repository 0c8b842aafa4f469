// syncbench: the repository's seeded benchmark.
//
//   syncbench --workload NAME --seed N --seconds S --trace 0|1
//             [--digests FILE] [--spans-out FILE]
//
// --trace 0 (end-to-end): runs the workload's grids through core::run_grid
// until S seconds have passed, checking every cell and rendering the
// workload's report on each pass, and times the cells' set-up before each.
// Reports medians of wall_s, setup_s and sim_cycles_per_s, and the process's
// peak_rss_mb.
//
// --trace 1 (per layer): one untraced run_grid pass for reference, then every
// cell again on one thread with a span around each call into a layer, the
// obs-layer variants of each cell, the report renderers and the unit-cost
// probes.  Reports per-layer counts, self times and unit costs, and how far
// the unit costs times the counts reconstruct the measured run time.
//
// Both modes print detail lines first and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/lock_timeline.hpp"
#include "obs/self_profile.hpp"
#include "probes.hpp"
#include "report/paper_tables.hpp"
#include "report/table.hpp"
#include "spans.hpp"
#include "trace/analyzer.hpp"
#include "util/format.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace syncbench {
namespace {

using namespace syncpat;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string digests;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: syncbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--digests FILE] [--spans-out FILE]\n"
            << "workloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        a.seed = std::stoull(value, &used);
        if (used != value.size() || value[0] == '-') throw std::invalid_argument(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        a.trace = value == "1" ? 1 : 0;
      } else if (flag == "--digests") {
        a.digests = value;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value \"" + value + "\" for " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.trace < 0) {
    usage("--workload, --seed and --trace are required");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_detail(const Metric& m, const std::string& note = {}) {
  std::printf("metric %-44s %.10g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.empty() ? "" : "  # ", note.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Grid passes, checks and reports

/// Every grid of a workload, run back to back, as one list of cells.
struct Pass {
  std::vector<core::ExperimentCell> cells;
  std::vector<core::CellResult> results;
  double grid_wall_ms = 0.0;  // Σ run_grid makespans
};

Pass run_pass(const Workload& w, std::uint32_t jobs) {
  Pass pass;
  core::EngineOptions options;
  options.jobs = jobs;
  for (const core::ExperimentGrid& grid : w.grids) {
    core::GridResult g = core::run_grid(grid, options);
    pass.grid_wall_ms += g.wall_ms;
    for (std::size_t i = 0; i < g.size(); ++i) {
      pass.cells.push_back(std::move(g.cells[i]));
      pass.results.push_back(std::move(g.results[i]));
    }
  }
  return pass;
}

std::vector<core::ExperimentCell> all_cells(const Workload& w) {
  std::vector<core::ExperimentCell> cells;
  for (const core::ExperimentGrid& grid : w.grids) {
    for (core::ExperimentCell& c : core::grid_cells(grid)) {
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Checks every cell of a pass; reports the first failures on stderr.
void check_pass(const Pass& pass, const DigestBook& book, const Args& args,
                CheckTally& tally, std::vector<std::uint64_t>* digests) {
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const std::string label = pass.cells[i].label();
    const CellCheck c =
        check_cell(label, pass.results[i], book, args.workload, args.seed);
    ++tally.attempted;
    if (!c.ok) {
      if (tally.failed < 8) {
        std::cerr << "FAILED " << label << ": " << c.reason << "\n";
      }
      ++tally.failed;
    }
    if (digests != nullptr) digests->push_back(c.digest);
  }
}

const core::SimulationResult* find_result(const Pass& pass,
                                          const std::string& program,
                                          sync::SchemeKind scheme,
                                          bus::ConsistencyModel model) {
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const core::ExperimentCell& c = pass.cells[i];
    if (c.profile.name == program && c.config.lock_scheme == scheme &&
        c.config.consistency == model && pass.results[i].ok()) {
      return &pass.results[i].outcome.sim;
    }
  }
  return nullptr;
}

/// Renders the workload's report and returns its size in bytes.  paper-suite
/// renders the paper's eight tables; other workloads a per-cell summary.
std::size_t render_report(const Workload& w, const Pass& pass) {
  using report::Table;
  std::vector<Table> tables;
  if (w.paper_tables) {
    const std::uint64_t scale = pass.cells.front().scale;
    std::vector<trace::IdealProgramStats> ideal;
    std::vector<core::SimulationResult> q_seq, t_seq, q_weak;
    for (const workload::BenchmarkProfile& p : w.grids.front().profiles) {
      const core::SimulationResult* qs = find_result(
          pass, p.name, sync::SchemeKind::kQueuing, bus::ConsistencyModel::kSequential);
      const core::SimulationResult* ts = find_result(
          pass, p.name, sync::SchemeKind::kTtas, bus::ConsistencyModel::kSequential);
      const core::SimulationResult* qw = find_result(
          pass, p.name, sync::SchemeKind::kQueuing, bus::ConsistencyModel::kWeak);
      if (qs == nullptr || ts == nullptr || qw == nullptr) return 0;
      q_seq.push_back(*qs);
      t_seq.push_back(*ts);
      q_weak.push_back(*qw);
    }
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      const core::ExperimentCell& c = pass.cells[i];
      if (c.config.lock_scheme == sync::SchemeKind::kQueuing &&
          c.config.consistency == bus::ConsistencyModel::kSequential) {
        ideal.push_back(pass.results[i].outcome.ideal);
      }
    }
    tables.push_back(report::table1_ideal(ideal, scale));
    tables.push_back(report::table2_ideal_locks(ideal, scale));
    tables.push_back(report::table_runtime(3, q_seq, scale));
    tables.push_back(report::table_contention(4, q_seq, scale));
    tables.push_back(report::table_runtime(5, t_seq, scale));
    tables.push_back(report::table_contention(6, t_seq, scale));
    tables.push_back(report::table7_weak(q_weak, q_seq, scale));
    tables.push_back(report::table_contention(8, q_weak, scale));
  } else {
    Table t(w.name + ": per-cell summary");
    t.columns({"Cell", "run-time", "Util%", "Bus%", "Transfers", "Waiters"});
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      if (!pass.results[i].ok()) continue;
      const core::SimulationResult& r = pass.results[i].outcome.sim;
      t.add_row({pass.cells[i].label(), util::with_commas(r.run_time),
                 util::fixed(100.0 * r.avg_utilization, 1),
                 util::fixed(100.0 * r.bus_utilization, 1),
                 util::with_commas(r.locks.transfers),
                 util::fixed(r.locks.waiters_at_transfer.mean(), 2)});
    }
    tables.push_back(std::move(t));
  }
  std::size_t bytes = 0;
  for (const Table& t : tables) bytes += t.render().size();
  return bytes;
}

/// Median relative error of the reproduced Table 3-8 columns against the
/// paper's values, over the cells whose profile has a paper reference.  Zero
/// reference values and Table 7's Diff% (a sub-1% difference whose relative
/// error is ill-conditioned) are skipped.  Returns -1 when nothing compares.
double paper_err_median(const Pass& pass) {
  std::vector<double> errs;
  auto add = [&](double measured, double paper) {
    if (paper != 0.0) errs.push_back(std::fabs(measured - paper) / std::fabs(paper));
  };
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    if (!pass.results[i].ok()) continue;
    const core::ExperimentCell& c = pass.cells[i];
    const report::PaperReference* ref = nullptr;
    for (const report::PaperReference& r : report::paper_reference()) {
      if (c.profile.name == r.name && c.profile.num_procs == static_cast<std::uint32_t>(r.procs)) {
        ref = &r;
      }
    }
    if (ref == nullptr) continue;
    const core::SimulationResult& r = pass.results[i].outcome.sim;
    const double scale = static_cast<double>(c.scale);
    const bool seq = c.config.consistency == bus::ConsistencyModel::kSequential;
    const bool queuing = c.config.lock_scheme == sync::SchemeKind::kQueuing;
    const bool ttas = c.config.lock_scheme == sync::SchemeKind::kTtas;
    const double runtime = static_cast<double>(r.run_time) * scale;
    const double util = 100.0 * r.avg_utilization;
    const double held = r.locks.hold_cycles.mean();
    const double transfers = static_cast<double>(r.locks.transfers) * scale;
    const double waiters = r.locks.waiters_at_transfer.mean();
    const double held_tr = r.locks.hold_cycles_transfer.mean();
    if (seq && (queuing || ttas)) {
      add(runtime, queuing ? ref->q_runtime : ref->t_runtime);
      add(util, queuing ? ref->q_util : ref->t_util);
      add(r.stall_cache_pct, queuing ? ref->q_stall_cache : ref->t_stall_cache);
      add(r.stall_lock_pct, queuing ? ref->q_stall_lock : ref->t_stall_lock);
      if (ref->has_locks) {
        add(held, queuing ? ref->q_held : ref->t_held);
        add(transfers, queuing ? ref->q_transfers : ref->t_transfers);
        add(waiters, queuing ? ref->q_waiters : ref->t_waiters);
        add(held_tr, queuing ? ref->q_held_tr : ref->t_held_tr);
      }
    } else if (!seq && queuing) {
      add(runtime, ref->w_runtime);
      add(util, ref->w_util);
      add(100.0 * r.write_hit_ratio, ref->w_whit);
      if (ref->has_locks) {
        add(held, ref->w_held);
        add(transfers, ref->w_transfers);
        add(waiters, ref->w_waiters);
        add(held_tr, ref->w_held_tr);
      }
    }
  }
  return errs.empty() ? -1.0 : median(errs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end

constexpr int kMinPasses = 3;
// Set-up is timed before every pass, so its samples spread over the whole
// run like the passes': at least kSetupRepsPerPass reps, and at least
// kSetupShare of the previous pass's wall time.
constexpr int kSetupRepsPerPass = 2;
constexpr double kSetupShare = 0.05;

/// make_program_trace plus the Simulator constructor, summed over cells.
/// The cells are dealt to `jobs` fresh threads, as run_grid deals them to its
/// workers: vCPUs of one host can differ in speed by 10% or more, and fresh
/// threads re-draw their placement on every repetition instead of tying a
/// whole run to the main thread's vCPU.
double setup_ms_once(const std::vector<core::ExperimentCell>& cells,
                     std::uint32_t jobs) {
  std::vector<double> worker_ms(jobs, 0.0);
  std::vector<std::thread> workers;
  for (std::uint32_t j = 0; j < jobs; ++j) {
    workers.emplace_back([&cells, &worker_ms, j, jobs] {
      for (std::size_t i = j; i < cells.size(); i += jobs) {
        const workload::BenchmarkProfile scaled =
            cells[i].profile.scaled(cells[i].scale);
        core::MachineConfig cfg = cells[i].config;
        cfg.num_procs = scaled.num_procs;
        const std::int64_t t0 = now_ns();
        trace::ProgramTrace program = workload::make_program_trace(scaled);
        const core::Simulator sim(cfg, program);
        worker_ms[j] += ms_between(t0, now_ns());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  double total = 0.0;
  for (const double ms : worker_ms) total += ms;
  return total;
}

int run_end_to_end(const Workload& w, const Args& args, const DigestBook& book) {
  const std::vector<core::ExperimentCell> cells = all_cells(w);
  CheckTally tally;
  std::vector<double> setup_ms, wall_ms, cycles_per_s;
  double paper_err = -1.0;
  const std::int64_t start = now_ns();
  while (static_cast<int>(wall_ms.size()) < kMinPasses ||
         ms_between(start, now_ns()) < args.seconds * 1e3) {
    const bool first = wall_ms.empty();
    const double setup_budget_ms = first ? 0.0 : kSetupShare * wall_ms.back();
    const std::int64_t setup_start = now_ns();
    for (int rep = 0; rep < kSetupRepsPerPass ||
                      ms_between(setup_start, now_ns()) < setup_budget_ms;
         ++rep) {
      setup_ms.push_back(setup_ms_once(cells, w.jobs));
    }
    std::vector<std::uint64_t> digests;
    const std::int64_t t0 = now_ns();
    const Pass pass = run_pass(w, w.jobs);
    check_pass(pass, book, args, tally, first ? &digests : nullptr);
    const std::size_t report_bytes = render_report(w, pass);
    const std::int64_t t1 = now_ns();
    wall_ms.push_back(ms_between(t0, t1));

    double sim_cycles = 0.0, cell_ms = 0.0;
    for (const core::CellResult& r : pass.results) {
      sim_cycles += static_cast<double>(r.outcome.sim.run_time);
      cell_ms += r.wall_ms;
    }
    cycles_per_s.push_back(ratio(sim_cycles, cell_ms / 1e3));
    if (first) {
      paper_err = paper_err_median(pass);
      for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        std::printf("digest %s %llu %s %s\n", args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    pass.cells[i].label().c_str(), hex64(digests[i]).c_str());
      }
      std::printf("report %zu bytes rendered per pass\n", report_bytes);
    }
  }

  const auto [wall_min, wall_max] = std::minmax_element(wall_ms.begin(), wall_ms.end());
  const std::string spread = "median of " + std::to_string(wall_ms.size()) +
                             " passes; min " + util::fixed(*wall_min / 1e3, 4) +
                             " max " + util::fixed(*wall_max / 1e3, 4);
  const std::vector<Metric> metrics = {
      {"wall_s", median(wall_ms) / 1e3, "s"},
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"sim_cycles_per_s", median(cycles_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_detail(metrics[0], spread);
  print_detail(metrics[1],
               "median of " + std::to_string(setup_ms.size()) + " set-ups");
  print_detail(metrics[2], "median over passes");
  print_detail(metrics[3]);
  print_detail({"failed_frac", ratio(static_cast<double>(tally.failed),
                                     static_cast<double>(tally.attempted)),
                "frac"},
               std::to_string(tally.failed) + " of " +
                   std::to_string(tally.attempted) + " cells");
  if (paper_err >= 0.0) {
    print_detail({"paper_err_median", paper_err, "frac"},
                 "Tables 3-8 columns vs the paper");
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per layer

/// One traced cell: exact counts read from the simulator's public accessors
/// and results, and the host time of each layer call.
struct CellTrace {
  std::uint32_t procs = 0;
  std::size_t discipline = 0;
  double sim_cycles = 0, stepped = 0, des_spans = 0;
  double accesses = 0, read_hits = 0, reads = 0, write_hits = 0, writes = 0;
  double snoop_txns = 0, snoop_useful = 0;
  double bus_txns = 0, bus_busy = 0, grants = 0, grant_wait_sum = 0;
  double mem_requests = 0, mem_busy = 0;
  double acquisitions = 0, transfers = 0, transfer_cycles_sum = 0;
  double waiters_sum = 0, waiter_samples = 0;
  double events = 0;
  double run_ms = 0;  // Simulator::run() alone, SelfProfiler attached
  // Construct + run + obs output of the cell's own config: with spans and
  // the SelfProfiler, and without either (bench.trace_overhead).
  double instrumented_ms = 0, untraced_ms = 0;
  double drain_ms = 0, obs_off_ms = 0, obs_metrics_ms = 0, obs_trace_ms = 0;

  [[nodiscard]] double snoop_probes() const { return snoop_txns * (procs - 1); }
};

double total(const std::vector<CellTrace>& cells, double CellTrace::*field) {
  double sum = 0.0;
  for (const CellTrace& c : cells) sum += c.*field;
  return sum;
}

void count_results(const core::Simulator& sim, const core::SimulationResult& r,
                   CellTrace& t) {
  for (std::uint32_t p = 0; p < t.procs; ++p) {
    const cache::CacheStats& cs = sim.cache_of(p).stats();
    const double reads = static_cast<double>(cs.ifetch_hits + cs.ifetch_misses +
                                             cs.read_hits + cs.read_misses);
    const double writes = static_cast<double>(cs.write_hits + cs.write_misses);
    t.accesses += reads + writes;
    t.reads += reads;
    t.read_hits += static_cast<double>(cs.ifetch_hits + cs.read_hits);
    t.writes += writes;
    t.write_hits += static_cast<double>(cs.write_hits);
    t.snoop_useful += static_cast<double>(cs.supplies + cs.invalidations_received);
  }
  // Every granted read, read-exclusive, upgrade and write-through snoops the
  // other P - 1 caches (Simulator::try_grant).
  t.snoop_txns = static_cast<double>(r.traffic.reads + r.traffic.readx +
                                     r.traffic.upgrades + r.traffic.write_throughs);
  t.sim_cycles = static_cast<double>(r.run_time);
  t.stepped = static_cast<double>(sim.des_stats().stepped_cycles);
  t.des_spans = static_cast<double>(sim.des_stats().spans);
  t.bus_txns = static_cast<double>(r.traffic.total());
  t.bus_busy = static_cast<double>(sim.bus().busy_cycles());
  t.grants = static_cast<double>(r.discipline.grants + r.discipline.memory_grants);
  t.grant_wait_sum = r.discipline.grant_wait.mean() *
                     static_cast<double>(r.discipline.grant_wait.count());
  t.mem_requests = static_cast<double>(sim.memory().requests_served());
  t.mem_busy = static_cast<double>(sim.memory().busy_cycles());
  t.acquisitions = static_cast<double>(r.locks.acquisitions);
  t.transfers = static_cast<double>(r.locks.transfers);
  t.transfer_cycles_sum = r.locks.transfer_cycles.mean() *
                          static_cast<double>(r.locks.transfer_cycles.count());
  t.waiters_sum = r.locks.waiters_at_transfer.mean() *
                  static_cast<double>(r.locks.waiters_at_transfer.count());
  t.waiter_samples = static_cast<double>(r.locks.waiters_at_transfer.count());
  t.discipline = static_cast<std::size_t>(sim.bus_discipline().kind());
}

/// Construct + run + obs output of the cell with the obs layer set as given,
/// in ms, untraced.  The result must match the cell's digest: observers never
/// perturb a result.
double run_obs_variant(const core::ExperimentCell& cell,
                       const workload::BenchmarkProfile& scaled,
                       trace::ProgramTrace& program, bool metrics, bool traced,
                       const char* span_name, std::uint64_t digest,
                       SpanRecorder& spans, CheckTally& tally) {
  core::MachineConfig cfg = cell.config;
  cfg.num_procs = scaled.num_procs;
  cfg.metrics.enabled = metrics;
  cfg.trace.enabled = traced;
  SpanRecorder::Scope span(spans, span_name);
  const std::int64_t t0 = now_ns();
  core::Simulator sim(cfg, program);
  obs::ChromeTraceSink chrome(scaled.name, scaled.num_procs);
  obs::LockTimelineSink timeline;
  if (obs::EventRecorder* rec = sim.recorder()) {
    rec->add_sink(&chrome);
    rec->add_sink(&timeline);
  }
  const core::SimulationResult r = sim.run();
  if (sim.recorder() != nullptr) {
    (void)chrome.finish();
    (void)timeline.take(r.run_time);
  }
  if (sim.metrics() != nullptr) {
    (void)obs::metrics_to_json(*sim.metrics(),
                               obs::MetricsMeta{r.program, r.scheme, r.consistency,
                                                r.num_procs, r.run_time});
  }
  const double ms = ms_between(t0, now_ns());
  ++tally.attempted;
  if (result_digest(r) != digest) {
    std::cerr << "FAILED " << cell.label() << ": " << span_name
              << " changed the result\n";
    ++tally.failed;
  }
  return ms;
}

/// run_experiment's path for one cell with a span around each layer call,
/// then a drain of the trace generators and the obs-layer variants.
CellTrace trace_cell(const core::ExperimentCell& cell, const DigestBook& book,
                     const Args& args, SpanRecorder& spans, CheckTally& tally,
                     core::CellResult& result) {
  const workload::BenchmarkProfile scaled = cell.profile.scaled(cell.scale);
  core::MachineConfig cfg = cell.config;
  cfg.num_procs = scaled.num_procs;
  CellTrace t;
  t.procs = scaled.num_procs;

  trace::ProgramTrace program;
  {
    SpanRecorder::Scope s(spans, "workload.make_program_trace");
    program = workload::make_program_trace(scaled);
  }
  {
    SpanRecorder::Scope s(spans, "trace.analyze_program");
    result.outcome.ideal = trace::analyze_program(program);
  }
  const std::int64_t instrumented_t0 = now_ns();
  std::unique_ptr<core::Simulator> sim;
  {
    SpanRecorder::Scope s(spans, "core.construct");
    sim = std::make_unique<core::Simulator>(cfg, program);
  }
  obs::ChromeTraceSink chrome(scaled.name, scaled.num_procs);
  obs::LockTimelineSink timeline;
  if (obs::EventRecorder* rec = sim->recorder()) {
    rec->add_sink(&chrome);
    rec->add_sink(&timeline);
  }
  {
    SpanRecorder::Scope s(spans, "core.run");
    obs::SelfProfiler profiler;
    sim->set_self_profiler(&profiler);
    const std::int64_t t0 = now_ns();
    result.outcome.sim = sim->run();
    const std::int64_t t1 = now_ns();
    t.run_ms = ms_between(t0, t1);
    const std::int64_t loop_ns =
        profiler.snapshot()
            .ns[static_cast<std::size_t>(obs::SelfProfiler::Phase::kEventLoop)];
    spans.add_child(s.id(), "core.event_loop", t0, t0 + loop_ns);
  }
  const core::SimulationResult& r = result.outcome.sim;
  if (sim->recorder() != nullptr) {
    SpanRecorder::Scope s(spans, "obs.chrome_finish");
    result.outcome.trace_json = chrome.finish();
    result.outcome.lock_timeline = timeline.take(r.run_time);
  }
  if (sim->metrics() != nullptr) {
    SpanRecorder::Scope s(spans, "obs.metrics_to_json");
    result.outcome.metrics_json = obs::metrics_to_json(
        *sim->metrics(),
        obs::MetricsMeta{r.program, r.scheme, r.consistency, r.num_procs, r.run_time});
  }
  t.instrumented_ms = ms_between(instrumented_t0, now_ns());

  std::uint64_t digest = 0;
  {
    SpanRecorder::Scope s(spans, "bench.check");
    const CellCheck c =
        check_cell(cell.label(), result, book, args.workload, args.seed);
    ++tally.attempted;
    if (!c.ok) {
      std::cerr << "FAILED " << cell.label() << ": " << c.reason << "\n";
      ++tally.failed;
    }
    digest = c.digest;
  }
  count_results(*sim, r, t);
  sim.reset();

  {
    // Trace synthesis alone: drain every processor's generator.
    SpanRecorder::Scope s(spans, "workload.drain");
    program.reset_all();
    const std::int64_t t0 = now_ns();
    std::uint64_t events = 0;
    trace::Event e;
    for (auto& source : program.per_proc) {
      while (source->next(e)) ++events;
    }
    t.drain_ms = ms_between(t0, now_ns());
    t.events = static_cast<double>(events);
  }

  t.obs_off_ms = run_obs_variant(cell, scaled, program, false, false,
                                 "obs.off_run", digest, spans, tally);
  t.obs_metrics_ms = run_obs_variant(cell, scaled, program, true, false,
                                     "obs.metrics_run", digest, spans, tally);
  t.obs_trace_ms = run_obs_variant(cell, scaled, program, false, true,
                                   "obs.trace_run", digest, spans, tally);
  // The untraced baseline is the variant with the cell's own obs settings.
  const bool metrics = cfg.metrics.enabled;
  const bool traced = cfg.trace.enabled;
  t.untraced_ms = !metrics && !traced ? t.obs_off_ms
                  : !traced           ? t.obs_metrics_ms
                  : !metrics          ? t.obs_trace_ms
                                      : run_obs_variant(cell, scaled, program, true,
                                                        true, "bench.untraced_run",
                                                        digest, spans, tally);
  return t;
}

/// Σ(count × unit cost) over the simulator's hot-path calls, in ms, with the
/// broadcast-snoop term alone in `snoop_ms`.
struct Reconstruction {
  double access_ms = 0, snoop_ms = 0, arbitration_ms = 0, event_queue_ms = 0,
         synthesis_ms = 0;
  [[nodiscard]] double total_ms() const {
    return access_ms + snoop_ms + arbitration_ms + event_queue_ms + synthesis_ms;
  }
};

Reconstruction reconstruct(const std::vector<CellTrace>& cells,
                           const UnitCosts& unit, double synth_ns_per_event) {
  Reconstruction rc;
  for (const CellTrace& c : cells) {
    const std::size_t i = UnitCosts::size_index(c.procs);
    rc.access_ms += c.accesses * unit.access_ns[i] / 1e6;
    rc.snoop_ms += c.snoop_probes() * unit.snoop_miss_ns[i] / 1e6;
    // scan_order runs at least once per grant (failed rounds are not counted).
    rc.arbitration_ms += c.grants * unit.scan_order_ns[c.discipline][i] / 1e6;
    // About one schedule + due-drain per stepped cycle.
    rc.event_queue_ms += c.stepped * unit.event_queue_op_ns[i] / 1e6;
    rc.synthesis_ms += c.events * synth_ns_per_event / 1e6;
  }
  return rc;
}

int run_traced(const Workload& w, const Args& args, const DigestBook& book) {
  SpanRecorder spans;
  CheckTally tally;
  const std::int64_t start = now_ns();

  double parallel_efficiency = 0.0;
  {
    SpanRecorder::Scope span(spans, "experiment_engine.run_grid");
    const Pass ref = run_pass(w, w.jobs);
    check_pass(ref, book, args, tally, nullptr);
    double cell_ms = 0.0;
    for (const core::CellResult& r : ref.results) cell_ms += r.wall_ms;
    parallel_efficiency = ratio(cell_ms, w.jobs * ref.grid_wall_ms);
  }

  std::vector<CellTrace> cells;
  Pass traced;
  {
    SpanRecorder::Scope span(spans, "bench.cells");
    for (const core::ExperimentCell& cell : all_cells(w)) {
      core::CellResult result;
      cells.push_back(trace_cell(cell, book, args, spans, tally, result));
      traced.cells.push_back(cell);
      traced.results.push_back(std::move(result));
    }
  }
  {
    SpanRecorder::Scope span(spans, "report.render");
    (void)render_report(w, traced);
  }
  UnitCosts unit;
  {
    SpanRecorder::Scope span(spans, "bench.probes");
    unit = measure_unit_costs(spans);
  }
  const double traced_wall_ms = ms_between(start, now_ns());

  const double run_ms = total(cells, &CellTrace::run_ms);
  const double sim_cycles = total(cells, &CellTrace::sim_cycles);
  const double stepped = total(cells, &CellTrace::stepped);
  const double events = total(cells, &CellTrace::events);
  double snoop_probes = 0.0;
  for (const CellTrace& c : cells) snoop_probes += c.snoop_probes();
  const double synth_ns = ratio(total(cells, &CellTrace::drain_ms) * 1e6, events);
  const Reconstruction rc = reconstruct(cells, unit, synth_ns);
  const double obs_off = total(cells, &CellTrace::obs_off_ms);

  std::vector<Metric> metrics;
  for (std::size_t i = 0; i < kProbeProcs.size(); ++i) {
    const std::string p = ".p" + std::to_string(kProbeProcs[i]);
    metrics.push_back({"cache.snoop_miss_ns" + p, unit.snoop_miss_ns[i], "ns"});
    metrics.push_back({"cache.access_ns" + p, unit.access_ns[i], "ns"});
    for (std::size_t k = 0; k < bus::kNumDisciplines; ++k) {
      metrics.push_back({std::string("bus.scan_order_ns.") +
                             bus::discipline_name(static_cast<bus::DisciplineKind>(k)) + p,
                         unit.scan_order_ns[k][i], "ns"});
    }
    metrics.push_back({"core.event_queue_op_ns" + p, unit.event_queue_op_ns[i], "ns"});
  }
  const std::vector<Metric> layer = {
      {"cache.snoop_probes", snoop_probes, "count"},
      {"cache.snoop_useful_frac",
       ratio(total(cells, &CellTrace::snoop_useful), snoop_probes), "frac"},
      {"cache.snoop_share_est", ratio(rc.snoop_ms, run_ms), "frac"},
      {"cache.read_hit_ratio",
       ratio(total(cells, &CellTrace::read_hits), total(cells, &CellTrace::reads)),
       "frac"},
      {"cache.write_hit_ratio",
       ratio(total(cells, &CellTrace::write_hits), total(cells, &CellTrace::writes)),
       "frac"},
      {"bus.txns", total(cells, &CellTrace::bus_txns), "count"},
      {"bus.utilization", ratio(total(cells, &CellTrace::bus_busy), sim_cycles), "frac"},
      {"bus.grant_wait_mean",
       ratio(total(cells, &CellTrace::grant_wait_sum), total(cells, &CellTrace::grants)),
       "cycles"},
      {"core.construct_ms", spans.total_ms("core.construct"), "ms"},
      {"core.run_ms", run_ms, "ms"},
      {"core.ns_per_stepped_cycle", ratio(run_ms * 1e6, stepped), "ns"},
      {"core.des_stepped_frac", ratio(stepped, sim_cycles), "frac"},
      {"core.des_spans", total(cells, &CellTrace::des_spans), "count"},
      {"core.sim_cycles", sim_cycles, "count"},
      {"core.event_loop_ms", spans.total_ms("core.event_loop"), "ms"},
      {"core.recon_ratio", ratio(rc.total_ms(), run_ms), "ratio"},
      {"workload.events", events, "count"},
      {"workload.synth_ns_per_event", synth_ns, "ns"},
      {"workload.make_trace_ms", spans.total_ms("workload.make_program_trace"), "ms"},
      {"trace.analyze_ms", spans.total_ms("trace.analyze_program"), "ms"},
      {"mem.requests", total(cells, &CellTrace::mem_requests), "count"},
      {"mem.utilization", ratio(total(cells, &CellTrace::mem_busy), sim_cycles), "frac"},
      {"sync.acquisitions", total(cells, &CellTrace::acquisitions), "count"},
      {"sync.transfer_cycles_mean",
       ratio(total(cells, &CellTrace::transfer_cycles_sum),
             total(cells, &CellTrace::transfers)),
       "cycles"},
      {"sync.waiters_at_transfer_mean",
       ratio(total(cells, &CellTrace::waiters_sum),
             total(cells, &CellTrace::waiter_samples)),
       "count"},
      {"obs.metrics_overhead",
       ratio(total(cells, &CellTrace::obs_metrics_ms), obs_off) - 1.0, "frac"},
      {"obs.trace_overhead",
       ratio(total(cells, &CellTrace::obs_trace_ms), obs_off) - 1.0, "frac"},
      {"experiment_engine.parallel_efficiency", parallel_efficiency, "frac"},
      {"report.render_ms", spans.total_ms("report.render"), "ms"},
      {"bench.trace_overhead",
       ratio(total(cells, &CellTrace::instrumented_ms),
             total(cells, &CellTrace::untraced_ms)) - 1.0,
       "frac"},
      {"bench.span_coverage", ratio(spans.top_level_ms(), traced_wall_ms), "frac"},
  };
  metrics.insert(metrics.end(), layer.begin(), layer.end());

  for (const auto& [name, self] : spans.self_ms()) {
    std::printf("span %-44s self_ms %.3f total_ms %.3f\n", name.c_str(), self,
                spans.total_ms(name));
  }
  std::printf("recon access_ms %.3f snoop_ms %.3f arbitration_ms %.3f "
              "event_queue_ms %.3f synthesis_ms %.3f total_ms %.3f run_ms %.3f\n",
              rc.access_ms, rc.snoop_ms, rc.arbitration_ms, rc.event_queue_ms,
              rc.synthesis_ms, rc.total_ms(), run_ms);
  for (const Metric& m : metrics) print_detail(m);
  print_detail({"failed_frac", ratio(static_cast<double>(tally.failed),
                                     static_cast<double>(tally.attempted)),
                "frac"});
  if (const double err = paper_err_median(traced); err >= 0.0) {
    print_detail({"paper_err_median", err, "frac"}, "Tables 3-8 columns vs the paper");
  }
  if (!args.spans_out.empty() && !spans.write_chrome_json(args.spans_out)) {
    std::cerr << "error: cannot write " << args.spans_out << "\n";
    return 2;
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace syncbench

int main(int argc, char** argv) {
  using namespace syncbench;
  const Args args = parse_args(argc, argv);
  try {
    const Workload w = make_workload(args.workload, args.seed);
    DigestBook book;
    if (!args.digests.empty()) book.load(args.digests);
    return args.trace == 1 ? run_traced(w, args, book)
                           : run_end_to_end(w, args, book);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
