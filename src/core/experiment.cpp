#include "core/experiment.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/invariant_checker.hpp"
#include "core/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "util/parse.hpp"
#include "workload/generator.hpp"

namespace syncpat::core {

ExperimentOutcome run_experiment(const MachineConfig& config,
                                 trace::ProgramTrace program) {
  // Tables 1-2 come from the events the simulator pulls, as in the paper
  // (§2.1): the trace is synthesized or read once per cell.
  const trace::IdealTap ideal(program);

  ExperimentOutcome outcome;
  MachineConfig cfg = config;
  cfg.num_procs = static_cast<std::uint32_t>(program.num_procs());
  Simulator sim(cfg, program);
  // Per-cell sinks: each cell builds its own trace document during its own
  // run, so the grid engine's job count can never reorder trace output.
  obs::ChromeTraceSink chrome(program.name, cfg.num_procs);
  obs::LockTimelineSink timeline;
  if (obs::EventRecorder* rec = sim.recorder()) {
    rec->add_sink(&chrome);
    rec->add_sink(&timeline);
  }
  outcome.sim = sim.run();
  outcome.ideal = ideal.finish();
  outcome.per_lock = sim.lock_stats().per_lock();
  if (sim.recorder() != nullptr) {
    outcome.trace_json = chrome.finish();
    outcome.lock_timeline = timeline.take(outcome.sim.run_time);
  }
  if (sim.metrics() != nullptr) {
    outcome.metrics = sim.take_metrics();
    const obs::MetricsMeta meta{outcome.sim.program, outcome.sim.scheme,
                                outcome.sim.consistency, outcome.sim.num_procs,
                                outcome.sim.run_time};
    outcome.metrics_json = obs::metrics_to_json(*outcome.metrics, meta);
  }
  if (const InvariantChecker* checker = sim.invariant_checker()) {
    outcome.invariants.enabled = true;
    outcome.invariants.checks = checker->checks();
    outcome.invariants.violations = checker->violation_count();
    outcome.invariants.samples = checker->violations();
  }
  return outcome;
}

ExperimentOutcome run_experiment(const MachineConfig& config,
                                 const workload::BenchmarkProfile& profile,
                                 std::uint64_t scale) {
  return run_experiment(config,
                        workload::make_program_trace(profile.scaled(scale)));
}

trace::IdealProgramStats run_ideal(const workload::BenchmarkProfile& profile,
                                   std::uint64_t scale) {
  const workload::BenchmarkProfile scaled = profile.scaled(scale);
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  return trace::analyze_program(program);
}

std::uint64_t scale_from_env(std::uint64_t fallback) {
  const char* env = std::getenv("SYNCPAT_SCALE");
  if (env == nullptr) return fallback;
  std::uint64_t value = 0;
  if (!util::try_parse_u64(env, value)) {
    throw std::invalid_argument(
        "SYNCPAT_SCALE must be a positive integer, got \"" + std::string(env) +
        "\"");
  }
  if (value == 0) {
    throw std::invalid_argument(
        "SYNCPAT_SCALE must be >= 1 (0 would produce an empty trace); unset "
        "it to use the default scale");
  }
  return value;
}

std::uint64_t positive_u64_from_env(const char* var, std::uint64_t fallback) {
  const char* env = std::getenv(var);
  if (env == nullptr) return fallback;
  return util::parse_positive_u64(env, var);
}

}  // namespace syncpat::core
