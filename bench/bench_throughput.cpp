// Tracked simulator-throughput baseline: simulated cycles per wall-clock
// second for the Grav / Pverify / Qsort / Pdsa profiles under sequential and
// weak consistency, with the discrete-event engine against its per-cycle
// tick oracle.
//
// Usage: bench_throughput [OUT.json].  Emits BENCH_simulator.json (default
// ./BENCH_simulator.json) so the perf trajectory is tracked in-repo; an
// option, or an argument after the path, exits 2.  Wall time covers
// Simulator::run() only (trace synthesis is timed separately and reported
// once per profile); each cell takes the best of SYNCPAT_BENCH_REPS
// repetitions (default 3) to shave scheduler noise.  The bench also cross-checks that both engines finish
// on the same cycle — a cheap tripwire for the byte-identity contract that
// tests/test_engine.cpp verifies in full.
//
// The four paper profiles are event-dense — 2-4 work cycles per reference
// and a saturated bus put a due event on 82-99% of cycles, so the DES engine
// steps nearly every cycle and lands at parity with plain per-cycle ticking.
// The engine's structural win needs sparse event streams: on the
// Grav-coarse variants (work_cycles_per_ref 100/400) it advances whole
// inter-event spans in O(1) bus/memory bulk updates, and the per-event
// (rather than per-processor-cycle) cost model is what makes the
// 64-1024-processor scaling studies tractable.  The des_stepped_cycles /
// des_spans columns record the event density behind each number.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "trace/source.hpp"
#include "util/write_file.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace syncpat;

struct Cell {
  std::string program;
  const char* consistency = "";
  core::EngineKind engine = core::EngineKind::kDes;
  std::uint64_t run_cycles = 0;
  double best_wall_ms = 0.0;
  double cycles_per_sec = 0.0;
  core::DesStats des;  // populated on des rows
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t reps_from_env() {
  // Strict like SYNCPAT_SCALE / SYNCPAT_JOBS: a malformed value is an error,
  // not a silent fall-through to the default.
  try {
    return static_cast<std::uint32_t>(
        core::positive_u64_from_env("SYNCPAT_BENCH_REPS", 3));
  } catch (const std::invalid_argument& err) {
    std::cerr << "error: " << err.what() << "\n";
    std::exit(2);
  }
}

Cell run_cell(const workload::BenchmarkProfile& scaled,
              trace::ProgramTrace& program, bus::ConsistencyModel model,
              core::EngineKind engine, std::uint32_t reps) {
  core::MachineConfig cfg;
  cfg.num_procs = scaled.num_procs;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.consistency = model;
  cfg.engine = engine;

  Cell cell;
  cell.program = scaled.name;
  cell.consistency = bus::consistency_name(model);
  cell.engine = engine;
  cell.best_wall_ms = 1e300;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    program.reset_all();
    core::Simulator sim(cfg, program);
    const double t0 = now_ms();
    const core::SimulationResult res = sim.run();
    const double wall = now_ms() - t0;
    if (wall < cell.best_wall_ms) cell.best_wall_ms = wall;
    cell.run_cycles = res.run_time;
    cell.des = sim.des_stats();
  }
  cell.cycles_per_sec =
      static_cast<double>(cell.run_cycles) / (cell.best_wall_ms / 1000.0);
  return cell;
}

void emit_json(std::ostream& out, std::uint64_t scale, std::uint32_t reps,
               const std::vector<Cell>& cells) {
  out << "{\n"
      << "  \"benchmark\": \"simulator_throughput\",\n"
      << "  \"scheme\": \"ttas\",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"wall_time\": \"best-of-reps, Simulator::run() only\",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "    {\"program\": \"%s\", \"consistency\": \"%s\", "
        "\"engine\": \"%s\", \"run_cycles\": %llu, "
        "\"best_wall_ms\": %.1f, \"cycles_per_sec\": %.4g, "
        "\"des_stepped_cycles\": %llu, \"des_spans\": %llu, "
        "\"des_span_cycles\": %llu}%s\n",
        c.program.c_str(), c.consistency, core::engine_name(c.engine),
        static_cast<unsigned long long>(c.run_cycles), c.best_wall_ms,
        c.cycles_per_sec,
        static_cast<unsigned long long>(c.des.stepped_cycles),
        static_cast<unsigned long long>(c.des.spans),
        static_cast<unsigned long long>(c.des.span_cycles),
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedup_des_vs_tick\": {\n";
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const Cell& des = cells[i];
    const Cell& tick = cells[i + 1];
    char buf[160];
    std::snprintf(buf, sizeof buf, "    \"%s/%s\": %.2f%s\n",
                  des.program.c_str(), des.consistency,
                  des.cycles_per_sec / tick.cycles_per_sec,
                  i + 2 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  },\n";
}

/// Metrics-layer overhead guard: Grav/sequential with the registry off vs on.
/// The off side is the product default (the stall ledger and lock records
/// are always on; compare BENCH_simulator.json across commits); the on side
/// adds the bus gauge and the end-of-run export snapshot, with a 25%
/// tripwire so the enabled path can't quietly grow a hot-loop regression.
/// Either way the simulation itself must not change: run_cycles are asserted
/// equal.
double bench_metrics_overhead(std::uint64_t scale, std::uint32_t reps,
                              std::ostream& out) {
  workload::BenchmarkProfile profile;
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == "Grav") profile = p;
  }
  const workload::BenchmarkProfile scaled = profile.scaled(scale);
  trace::ProgramTrace program = workload::make_program_trace(scaled);

  core::MachineConfig cfg;
  cfg.num_procs = scaled.num_procs;
  cfg.lock_scheme = sync::SchemeKind::kTtas;
  cfg.consistency = bus::ConsistencyModel::kSequential;

  double best_off = 1e300;
  double best_on = 1e300;
  std::uint64_t cycles_off = 0;
  std::uint64_t cycles_on = 0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    for (const bool enabled : {false, true}) {
      cfg.metrics.enabled = enabled;
      program.reset_all();
      core::Simulator sim(cfg, program);
      const double t0 = now_ms();
      const core::SimulationResult res = sim.run();
      const double wall = now_ms() - t0;
      if (enabled) {
        if (wall < best_on) best_on = wall;
        cycles_on = res.run_time;
      } else {
        if (wall < best_off) best_off = wall;
        cycles_off = res.run_time;
      }
    }
  }
  if (cycles_on != cycles_off) {
    std::cerr << "FATAL: enabling metrics changed Grav/sequential run time: "
              << cycles_on << " vs " << cycles_off << "\n";
    std::exit(1);
  }
  const double overhead = best_on / best_off - 1.0;
  std::cout << "metrics overhead (Grav/sequential): off " << best_off
            << " ms, on " << best_on << " ms (" << overhead * 100.0 << "%)\n";
  if (overhead > 0.25) {
    std::cerr << "FATAL: metrics-enabled overhead " << overhead * 100.0
              << "% exceeds the 25% tripwire\n";
    std::exit(1);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  \"metrics_overhead\": {\"program\": \"Grav/sequential\", "
                "\"off_ms\": %.1f, \"on_ms\": %.1f, \"overhead\": %.4f}\n",
                best_off, best_on, overhead);
  out << buf;
  return overhead;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && argv[1][0] == '-') {
    std::cerr << "error: unknown option " << argv[1] << "\nusage: " << argv[0]
              << " [OUT.json]\n";
    return 2;
  }
  if (argc > 2) {
    std::cerr << "error: unexpected argument " << argv[2]
              << " after the output path\nusage: " << argv[0]
              << " [OUT.json]\n";
    return 2;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simulator.json";
  const std::uint64_t scale = syncpat::bench::scale_or_die();
  const std::uint32_t reps = reps_from_env();

  // The four paper profiles, plus coarse-grained Grav variants (more work
  // cycles between references — the regime of coarse-grained-locking sweeps)
  // where quiet stretches dominate and span jumping pays off outright.  The
  // coarse variants run at 1/4 trace length to bound bench time.
  struct Spec {
    const char* base;
    const char* label;
    double work_cycles_per_ref;  // 0 = profile default
    std::uint64_t scale_mult;
  };
  const Spec kSpecs[] = {
      {"Grav", "Grav", 0, 1},
      {"Pverify", "Pverify", 0, 1},
      {"Qsort", "Qsort", 0, 1},
      {"Pdsa", "Pdsa", 0, 1},
      {"Grav", "Grav-coarse100", 100, 4},
      {"Grav", "Grav-coarse400", 400, 4},
  };
  const bus::ConsistencyModel kModels[] = {bus::ConsistencyModel::kSequential,
                                           bus::ConsistencyModel::kWeak};

  std::vector<Cell> cells;
  for (const Spec& spec : kSpecs) {
    const char* name = spec.label;
    workload::BenchmarkProfile profile;
    for (const auto& p : workload::paper_profiles()) {
      if (p.name == spec.base) profile = p;
    }
    if (spec.work_cycles_per_ref > 0) {
      profile.work_cycles_per_ref = spec.work_cycles_per_ref;
    }
    profile.name = spec.label;
    const workload::BenchmarkProfile scaled =
        profile.scaled(scale * spec.scale_mult);
    const double tg0 = now_ms();
    trace::ProgramTrace program = workload::make_program_trace(scaled);
    std::cout << name << ": trace synthesis " << now_ms() - tg0 << " ms\n";
    for (const bus::ConsistencyModel model : kModels) {
      const Cell des =
          run_cell(scaled, program, model, core::EngineKind::kDes, reps);
      const Cell tick =
          run_cell(scaled, program, model, core::EngineKind::kTick, reps);
      if (des.run_cycles != tick.run_cycles) {
        std::cerr << "FATAL: engine choice changed " << name << "/"
                  << des.consistency << " run time: " << des.run_cycles
                  << " vs " << tick.run_cycles << "\n";
        return 1;
      }
      std::cout << "  " << name << "/" << des.consistency << ": des "
                << des.cycles_per_sec << " cyc/s, tick " << tick.cycles_per_sec
                << " cyc/s (" << des.cycles_per_sec / tick.cycles_per_sec
                << "x)\n";
      cells.push_back(des);
      cells.push_back(tick);
    }
  }

  std::ostringstream json;
  emit_json(json, scale, reps, cells);
  bench_metrics_overhead(scale, reps, json);
  json << "}\n";
  if (!util::write_file(out_path, json.str())) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
