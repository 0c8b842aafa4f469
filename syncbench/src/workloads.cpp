#include "workloads.hpp"

#include <stdexcept>

#include "workload/profiles.hpp"

namespace syncbench {

using namespace syncpat;

namespace {

// Trace-length scale of the paper profiles: 1/64 of the paper's references
// keeps the 24-cell suite near one second per pass on two workers while every
// profile still runs thousands of lock hand-offs.
constexpr std::uint64_t kPaperScale = 64;
// The coarse Grav variants run at 1/32 of the paper's length, the scale of
// their BENCH_simulator.json rows.
constexpr std::uint64_t kCoarseScale = 32;
// Length of the large-P study profile.  bench_scaling runs 300 references
// and 2 lock pairs per processor (8-10 s per P = 1024 cell); 150 and 1 keep
// a cell near 4-5 s with the bus still saturated.  Shorter traces make ttas
// arrivals at the lock dense enough to tip some seeds into spinning storms
// (at 100 references, 1 seed in 12 ran 6x the simulated cycles of the rest;
// at 150, 16 of 16 seeds ran within 0.3% of each other).
constexpr std::uint64_t kLargePRefs = 150;
constexpr std::uint64_t kLargePPairs = 1;

workload::BenchmarkProfile paper_profile(const std::string& name) {
  for (const workload::BenchmarkProfile& p : workload::paper_profiles()) {
    if (p.name == name) return p;
  }
  throw std::logic_error("no paper profile named " + name);
}

/// bench_scaling.cpp's contended weak-scaling profile: two genuinely shared
/// locks (one takes 90% of acquisitions) and one closing barrier.
workload::BenchmarkProfile scale_study_profile() {
  workload::BenchmarkProfile p;
  p.name = "ScaleStudy";
  p.refs_per_proc = kLargePRefs;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 3.0;
  p.locking.pairs_per_proc = kLargePPairs;
  p.locking.cs_work_cycles = 30.0;
  p.locking.num_locks = 2;
  p.locking.dominant_weight = 0.9;
  p.locking.partitioned = false;
  p.locking.cs_region_bias = 0.8;
  p.locking.barriers_per_proc = 1;
  return p;
}

workload::BenchmarkProfile coarse_grav(double work_cycles_per_ref,
                                       const char* label) {
  workload::BenchmarkProfile p = paper_profile("Grav");
  p.name = label;
  p.work_cycles_per_ref = work_cycles_per_ref;
  return p;
}

core::ExperimentGrid grid_of(std::vector<workload::BenchmarkProfile> profiles,
                             std::vector<sync::SchemeKind> schemes,
                             std::vector<bus::ConsistencyModel> models,
                             std::uint64_t scale) {
  core::ExperimentGrid grid;
  grid.base.engine = core::EngineKind::kDes;
  grid.profiles = std::move(profiles);
  grid.schemes = std::move(schemes);
  grid.consistency_models = std::move(models);
  grid.scales = {scale};
  return grid;
}

constexpr auto kSeq = bus::ConsistencyModel::kSequential;
constexpr auto kWeak = bus::ConsistencyModel::kWeak;
constexpr auto kQueuing = sync::SchemeKind::kQueuing;
constexpr auto kTtas = sync::SchemeKind::kTtas;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper-suite", "large-p",
                                                  "coarse-grain", "observed"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper-suite") {
    w.grids.push_back(grid_of(workload::paper_profiles(), {kQueuing, kTtas},
                              {kSeq, kWeak}, kPaperScale));
    w.paper_tables = true;
  } else if (name == "large-p") {
    core::ExperimentGrid round_robin =
        grid_of({scale_study_profile()}, {kTtas, kQueuing}, {kSeq}, 1);
    round_robin.proc_counts = {1024};
    core::ExperimentGrid fcfs =
        grid_of({scale_study_profile()}, {kTtas}, {kSeq}, 1);
    fcfs.proc_counts = {256};
    fcfs.base.bus_discipline = bus::DisciplineKind::kFcfs;
    w.grids = {round_robin, fcfs};
  } else if (name == "coarse-grain") {
    w.grids.push_back(grid_of({coarse_grav(100, "Grav-coarse100"),
                               coarse_grav(400, "Grav-coarse400")},
                              {kTtas}, {kSeq, kWeak}, kCoarseScale));
  } else if (name == "observed") {
    core::ExperimentGrid grid =
        grid_of({paper_profile("Grav"), paper_profile("Pdsa")},
                {kQueuing, kTtas}, {kSeq}, kPaperScale);
    grid.base.metrics.enabled = true;
    grid.base.trace.enabled = true;
    w.grids.push_back(grid);
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  for (core::ExperimentGrid& grid : w.grids) {
    for (workload::BenchmarkProfile& p : grid.profiles) p.seed = seed;
  }
  return w;
}

}  // namespace syncbench
