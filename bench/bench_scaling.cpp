// Scaling study: synchronization patterns from 16 to 4096 processors.
//
// The paper measures its six programs at P <= 16 (the Symmetry's size); the
// natural follow-up question is how each lock scheme's contention signature
// extrapolates when the machine outgrows the bus.  This bench runs one
// deliberately contended, non-partitioned workload — per-processor work held
// constant (weak scaling), two shared locks with a 90% dominant one, one
// closing barrier — across every lock scheme at P in {16, 64, 256, 1024, 4096}
// on the discrete-event engine, and emits waiters-at-transfer and
// bus-utilization curves against P.
//
// Emits BENCH_scaling.json (path via argv[1], default ./BENCH_scaling.json)
// so the curves are tracked in-repo.  `--smoke` switches to a seconds-long
// P in {4, 16, 64} sweep with a shorter trace — the tier-1 `scaling-smoke`
// ctest entry, which guards the large-P machinery (interleaved private
// segments, widened Anderson rings, clamped cold slices) end to end without
// the full study's cost.
//
// The workload is non-partitioned by design: partitioned profiles give every
// processor its own lock set, and at P = 1024 that many Anderson slot rings
// would (loudly) overflow the wide-ring address slice.  A handful of genuinely
// shared locks is both the honest contention study and the layout that scales.
//
// Shape of the committed JSON: with two genuinely shared locks the bus
// saturates for every scheme once P reaches 256 (weak scaling over a shared
// bus cannot stay flat), so the discriminating signals are waiters at
// transfer and run-time inflation.  The queue-based schemes (queuing,
// queuing-exact, anderson, ticket, mcs, clh) hold mean waiters near 1 all
// the way to P = 4096; the spinning schemes (tas, ttas, tas-backoff) climb
// to 3.7-4.5 waiters per transfer at P = 1024 and 12.3-12.7 at P = 4096,
// and plain tas pays ~8% extra run-time at both from its forced
// read-exclusive retries — the paper's §4 argument, extrapolated more than
// two orders of magnitude past the Symmetry.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "sync/scheme_factory.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace {

using namespace syncpat;

struct Point {
  std::uint32_t procs = 0;
  std::uint64_t run_time = 0;
  std::uint64_t acquisitions = 0;
  double waiters_mean = 0.0;
  double waiters_max = 0.0;
  double transfer_mean = 0.0;
  double bus_utilization = 0.0;
  double avg_utilization = 0.0;
  std::uint64_t bus_txns = 0;
  double wall_ms = 0.0;
};

struct Curve {
  const char* scheme = "";
  std::vector<Point> points;
};

/// The contended weak-scaling workload: per-processor work is constant, so a
/// perfectly scaling machine would hold run-time flat as P grows.
workload::BenchmarkProfile scaling_profile(std::uint32_t procs,
                                           std::uint64_t refs) {
  workload::BenchmarkProfile p;
  p.name = "ScaleStudy";
  p.num_procs = procs;
  p.refs_per_proc = refs;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 3.0;
  p.locking.pairs_per_proc = 2;
  p.locking.cs_work_cycles = 30.0;
  p.locking.num_locks = 2;        // genuinely shared: never partitioned
  p.locking.dominant_weight = 0.9;
  p.locking.partitioned = false;
  p.locking.cs_region_bias = 0.8;
  p.locking.barriers_per_proc = 1;
  p.seed = 0x5ca1e;
  return p;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Point run_point(sync::SchemeKind scheme, std::uint32_t procs,
                std::uint64_t refs) {
  const workload::BenchmarkProfile profile = scaling_profile(procs, refs);
  trace::ProgramTrace program = workload::make_program_trace(profile);
  core::MachineConfig cfg;
  cfg.num_procs = procs;
  cfg.lock_scheme = scheme;
  cfg.engine = core::EngineKind::kDes;

  core::Simulator sim(cfg, program);
  const double t0 = now_ms();
  const core::SimulationResult r = sim.run();
  Point pt;
  pt.wall_ms = now_ms() - t0;
  pt.procs = procs;
  pt.run_time = r.run_time;
  pt.acquisitions = r.locks.acquisitions;
  pt.waiters_mean = r.locks.waiters_at_transfer.mean();
  pt.waiters_max = r.locks.waiters_at_transfer.max();
  pt.transfer_mean = r.locks.transfer_cycles.mean();
  pt.bus_utilization = r.bus_utilization;
  pt.avg_utilization = r.avg_utilization;
  pt.bus_txns = r.traffic.total();
  return pt;
}

void emit_json(std::ostream& out, bool smoke,
               const std::vector<std::uint32_t>& procs, std::uint64_t refs,
               const std::vector<Curve>& curves) {
  out << "{\n"
      << "  \"benchmark\": \"scaling_curves\",\n"
      << "  \"engine\": \"des\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"workload\": {\"refs_per_proc\": " << refs
      << ", \"lock_pairs_per_proc\": 2, \"num_locks\": 2, "
         "\"dominant_weight\": 0.9, \"partitioned\": false, "
         "\"barriers_per_proc\": 1, \"scaling\": \"weak\"},\n"
      << "  \"procs\": [";
  for (std::size_t i = 0; i < procs.size(); ++i) {
    out << procs[i] << (i + 1 < procs.size() ? ", " : "");
  }
  out << "],\n  \"curves\": [\n";
  for (std::size_t c = 0; c < curves.size(); ++c) {
    out << "    {\"scheme\": \"" << curves[c].scheme << "\", \"points\": [\n";
    for (std::size_t i = 0; i < curves[c].points.size(); ++i) {
      const Point& p = curves[c].points[i];
      char buf[512];
      std::snprintf(
          buf, sizeof buf,
          "      {\"procs\": %u, \"run_time\": %llu, "
          "\"acquisitions\": %llu, \"waiters_at_transfer_mean\": %.4f, "
          "\"waiters_at_transfer_max\": %.0f, \"transfer_cycles_mean\": %.2f, "
          "\"bus_utilization\": %.4f, \"proc_utilization\": %.4f, "
          "\"bus_txns\": %llu, \"wall_ms\": %.1f}%s\n",
          p.procs, static_cast<unsigned long long>(p.run_time),
          static_cast<unsigned long long>(p.acquisitions), p.waiters_mean,
          p.waiters_max, p.transfer_mean, p.bus_utilization,
          p.avg_utilization, static_cast<unsigned long long>(p.bus_txns),
          p.wall_ms, i + 1 < curves[c].points.size() ? "," : "");
      out << buf;
    }
    out << "    ]}" << (c + 1 < curves.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scaling.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::vector<std::uint32_t> procs =
      smoke ? std::vector<std::uint32_t>{4, 16, 64}
            : std::vector<std::uint32_t>{16, 64, 256, 1024, 4096};
  const std::uint64_t refs = smoke ? 150 : 300;

  std::vector<Curve> curves;
  for (const sync::SchemeKind scheme : sync::all_scheme_kinds()) {
    Curve curve;
    curve.scheme = sync::scheme_kind_name(scheme);
    for (const std::uint32_t p : procs) {
      const Point pt = run_point(scheme, p, refs);
      std::fprintf(stderr, "%-14s P=%-5u run_time=%-12llu waiters=%-8.2f "
                   "bus=%.1f%% (%.0f ms)\n",
                   curve.scheme, p,
                   static_cast<unsigned long long>(pt.run_time),
                   pt.waiters_mean, pt.bus_utilization * 100.0, pt.wall_ms);
      curve.points.push_back(pt);
    }
    curves.push_back(std::move(curve));
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  emit_json(out, smoke, procs, refs, curves);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
