#include "fuzz/oracles.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/simulator.hpp"
#include "fuzz/render.hpp"
#include "obs/lock_timeline.hpp"
#include "obs/trace_event.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "workload/generator.hpp"

namespace syncpat::fuzz {
namespace {

void fail(OracleVerdict& v, const char* oracle, const std::string& detail) {
  v.failures.push_back(std::string(oracle) + ": " + detail);
}

/// First line where two renderings diverge, for readable failure reports.
std::string first_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(identical?)";
    if (!ga || !gb || la != lb) {
      return "line " + std::to_string(line) + ": \"" + (ga ? la : "<eof>") +
             "\" vs \"" + (gb ? lb : "<eof>") + "\"";
    }
    ++line;
  }
}

void check_save_load_roundtrip(OracleVerdict& v,
                                trace::ProgramTrace& program) {
  std::stringstream first;
  trace::write_program_trace(first, program);
  trace::ProgramTrace loaded = trace::read_program_trace(first);

  if (loaded.name != program.name) {
    fail(v, "trace-roundtrip", "program name changed: \"" + program.name +
                                   "\" -> \"" + loaded.name + "\"");
    return;
  }
  if (loaded.num_procs() != program.num_procs()) {
    fail(v, "trace-roundtrip",
         "processor count changed: " + std::to_string(program.num_procs()) +
             " -> " + std::to_string(loaded.num_procs()));
    return;
  }
  program.reset_all();
  for (std::size_t p = 0; p < program.num_procs(); ++p) {
    const std::vector<trace::Event> original = trace::collect(*program.per_proc[p]);
    const std::vector<trace::Event> back = trace::collect(*loaded.per_proc[p]);
    if (original != back) {
      std::size_t i = 0;
      while (i < original.size() && i < back.size() && original[i] == back[i]) {
        ++i;
      }
      fail(v, "trace-roundtrip",
           "proc " + std::to_string(p) + " events diverge at index " +
               std::to_string(i) + " (" + std::to_string(original.size()) +
               " vs " + std::to_string(back.size()) + " events)");
      return;
    }
  }
  // Second serialization of the loaded trace must be byte-identical: the
  // format has exactly one encoding per trace.
  std::stringstream second;
  trace::write_program_trace(second, loaded);
  if (first.str() != second.str()) {
    fail(v, "trace-roundtrip", "re-serialized bytes differ from the original");
  }
}

void check_sim_conservation(OracleVerdict& v,
                            const core::SimulationResult& r,
                            const obs::LockTimeline& timeline) {
  std::uint64_t max_completion = 0;
  for (std::size_t p = 0; p < r.per_proc.size(); ++p) {
    const core::ProcResult& pr = r.per_proc[p];
    const std::uint64_t counted = pr.work_cycles + pr.stall_cache +
                                  pr.stall_lock + pr.stall_fence;
    if (counted != pr.completion_cycle) {
      fail(v, "conservation",
           "proc " + std::to_string(p) + ": work+stalls=" +
               std::to_string(counted) + " but completion_cycle=" +
               std::to_string(pr.completion_cycle) +
               " (every live cycle must be work or stall)");
    }
    max_completion = std::max(max_completion, pr.completion_cycle);
  }
  if (r.run_time != max_completion) {
    fail(v, "conservation",
         "run_time=" + std::to_string(r.run_time) +
             " != max completion cycle " + std::to_string(max_completion));
  }

  if (timeline.total_handoffs() != r.locks.transfers) {
    fail(v, "conservation",
         "traced hand-off events=" + std::to_string(timeline.total_handoffs()) +
             " != lock-stats transfers=" + std::to_string(r.locks.transfers));
  }
  std::uint64_t traced_acquisitions = 0;
  for (const auto& [line, lock] : timeline.locks) {
    traced_acquisitions += lock.acquisitions;
  }
  if (traced_acquisitions != r.locks.acquisitions) {
    fail(v, "conservation",
         "traced acquire events=" + std::to_string(traced_acquisitions) +
             " != lock-stats acquisitions=" +
             std::to_string(r.locks.acquisitions));
  }
}

void check_metrics_conservation(OracleVerdict& v,
                                const obs::MetricsRegistry* m) {
  if (m == nullptr) {
    fail(v, "metrics", "registry missing despite metrics.enabled");
    return;
  }
  // The clipped bus gauge equals the bus's own tick-by-tick busy counter,
  // which the registry keeps as bus.busy_cycles.
  const std::uint64_t busy = m->counters().at("bus.busy_cycles");
  if (m->bus().total_busy() != busy) {
    fail(v, "metrics",
         "bus gauge total " + std::to_string(m->bus().total_busy()) +
             " != bus busy_cycles " + std::to_string(busy));
  }
}

/// Differential #7's plain side: per-cycle ticking with the checker, tracing
/// and metrics off.
std::string plain_tick_run(const core::MachineConfig& base,
                           trace::ProgramTrace& program) {
  core::MachineConfig cfg = base;
  cfg.engine = core::EngineKind::kTick;
  core::Simulator sim(cfg, program);
  return render_result(sim.run());
}

void check_jobs_differential(OracleVerdict& v, const FuzzCase& c,
                             const core::MachineConfig& base,
                             const workload::BenchmarkProfile& profile,
                             std::uint32_t jobs) {
  core::ExperimentGrid grid;
  grid.base = base;
  grid.profiles = {profile};
  grid.schemes = {c.scheme};
  grid.consistency_models = {bus::ConsistencyModel::kSequential,
                             bus::ConsistencyModel::kWeak};
  grid.scales = {1};

  core::EngineOptions serial;
  serial.jobs = 1;
  core::EngineOptions parallel;
  parallel.jobs = jobs;
  const core::GridResult one = core::run_grid(grid, serial);
  const core::GridResult many = core::run_grid(grid, parallel);
  if (one.size() != many.size()) {
    fail(v, "jobs",
         "cell count differs: " + std::to_string(one.size()) + " vs " +
             std::to_string(many.size()));
    return;
  }
  for (std::size_t i = 0; i < one.size(); ++i) {
    if (one.results[i].error != many.results[i].error) {
      fail(v, "jobs",
           one.cells[i].label() + ": error status differs (\"" +
               one.results[i].error + "\" vs \"" + many.results[i].error +
               "\")");
      continue;
    }
    if (!one.results[i].ok()) continue;  // same failure either way
    const std::string a = render_result(one.results[i].outcome.sim);
    const std::string b = render_result(many.results[i].outcome.sim);
    if (a != b) {
      fail(v, "jobs",
           one.cells[i].label() + ": --jobs 1 vs --jobs " +
               std::to_string(jobs) + " diverge at " + first_diff(a, b));
    }
  }
}

}  // namespace

std::string OracleVerdict::failed_oracles() const {
  std::set<std::string> names;
  for (const std::string& f : failures) {
    names.insert(f.substr(0, f.find(':')));
  }
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

OracleVerdict run_oracles(const FuzzCase& c, const OracleOptions& opt) {
  OracleVerdict v;
  const workload::BenchmarkProfile profile = c.profile();
  const core::MachineConfig base = c.machine_config();
  trace::ProgramTrace program = workload::make_program_trace(profile);

  check_save_load_roundtrip(v, program);

  // Trace-side conservation: every acquire matched by a release on the same
  // lock, nothing held at end of trace, barrier sequences agree.
  program.reset_all();
  const trace::ValidationReport report = trace::validate_program(program);
  if (!report.ok()) {
    fail(v, "conservation",
         "generated trace invalid: " + report.to_string(/*max_errors=*/3));
  }

  const std::string plain = plain_tick_run(base, program);

  // Reference run: the DES core (pinned explicitly), invariant checker live,
  // lock tracing on so hand-off/acquire event counts can be conserved against
  // the stats aggregates.
  core::MachineConfig ref_cfg = base;
  ref_cfg.invariants.enabled = true;
  ref_cfg.engine = core::EngineKind::kDes;
  ref_cfg.trace.enabled = true;
  ref_cfg.trace.categories = obs::category::kLocks;
  ref_cfg.metrics.enabled = true;
  const core::ExperimentOutcome ref =
      core::run_experiment(ref_cfg, std::move(program));

  if (ref.invariants.violations > 0) {
    fail(v, "invariants",
         std::to_string(ref.invariants.violations) + " violation(s); first: " +
             (ref.invariants.samples.empty() ? "<none recorded>"
                                             : ref.invariants.samples[0]));
  }

  check_sim_conservation(v, ref.sim, ref.lock_timeline);
  check_metrics_conservation(v, ref.metrics.get());

  // Differential #7: the plain run vs the reference run.  Byte-identity
  // simultaneously proves DES equivalence and that the checker, the recorder
  // and the metrics registry never perturb a result.
  const std::string b = render_result(ref.sim);
  if (plain != b) {
    fail(v, "engine",
         "per-cycle tick vs DES results diverge at " + first_diff(plain, b));
  }

  check_jobs_differential(v, c, base, profile, opt.jobs);
  return v;
}

}  // namespace syncpat::fuzz
