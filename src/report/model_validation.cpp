#include "report/model_validation.hpp"

#include <algorithm>
#include <cmath>

#include "core/experiment.hpp"
#include "fuzz/fuzz_case.hpp"
#include "model/predictor.hpp"
#include "sync/scheme_factory.hpp"
#include "util/format.hpp"

namespace syncpat::report {
namespace {

double median(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile_sorted(std::vector<double> v, double p) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string pct_or_dash(double v) {
  return v < 0.0 ? "-" : util::percent(v, 1);
}

}  // namespace

std::vector<SchemeErrorSummary> ModelValidation::per_scheme() const {
  std::vector<SchemeErrorSummary> out;
  for (const sync::SchemeKind kind : sync::all_scheme_kinds()) {
    const std::string name = sync::scheme_kind_name(kind);
    std::vector<double> all, small_p, medium_p, large_p;
    for (const ModelCaseResult& c : cases) {
      if (c.scheme != name) continue;
      all.push_back(c.rel_error);
      if (c.procs <= 4) small_p.push_back(c.rel_error);
      else if (c.procs <= 12) medium_p.push_back(c.rel_error);
      else large_p.push_back(c.rel_error);
    }
    if (all.empty()) continue;
    SchemeErrorSummary s;
    s.scheme = name;
    s.cases = all.size();
    s.median_error = median(all);
    s.p90_error = quantile_sorted(all, 0.9);
    s.median_small_p = median(small_p);
    s.median_medium_p = median(medium_p);
    s.median_large_p = median(large_p);
    out.push_back(std::move(s));
  }
  return out;
}

Table ModelValidation::table() const {
  Table t("Model validation: predicted vs simulated run time (seed " +
          std::to_string(master_seed) + ", " + std::to_string(requested) +
          " cases)");
  t.columns({"Scheme", "Cases", "Median err", "P90 err", "P2-4", "P5-12",
             "P16+"});
  for (const SchemeErrorSummary& s : per_scheme()) {
    t.add_row({s.scheme, std::to_string(s.cases),
               util::percent(s.median_error, 1), util::percent(s.p90_error, 1),
               pct_or_dash(s.median_small_p), pct_or_dash(s.median_medium_p),
               pct_or_dash(s.median_large_p)});
  }
  t.note(std::to_string(cases.size()) + " cases scored, " +
             std::to_string(skipped) +
             " skipped (no lock pairs or single processor)");
  return t;
}

ModelValidation validate_model(std::uint64_t master_seed,
                               std::uint64_t num_cases) {
  ModelValidation v;
  v.master_seed = master_seed;
  v.requested = num_cases;
  for (std::uint64_t i = 0; i < num_cases; ++i) {
    const fuzz::FuzzCase c = fuzz::FuzzCase::generate(master_seed, i);
    if (c.lock_pairs == 0 || c.num_procs < 2) {
      ++v.skipped;
      continue;
    }

    // The case itself, simulated (DES, no instrumentation).
    const core::SimulationResult r =
        core::run_experiment(c.machine_config(), c.profile()).sim;

    // P = 1 calibration: the same per-processor load, alone on the machine.
    workload::BenchmarkProfile solo = c.profile();
    solo.num_procs = 1;
    const core::ExperimentOutcome solo_run =
        core::run_experiment(c.machine_config(), solo);
    const core::SimulationResult& r1 = solo_run.sim;

    model::Calibration calib;
    calib.run_cycles = r1.run_time;
    calib.acquisitions = r1.locks.acquisitions;
    calib.hold_mean = r1.locks.hold_cycles.mean();
    calib.bus_busy_cycles =
        r1.bus_utilization * static_cast<double>(r1.run_time);
    if (r1.locks.acquisitions > 0) {
      std::uint64_t hottest = 0;
      for (const auto& [line, agg] : solo_run.per_lock) {
        hottest = std::max(hottest, agg.acquisitions);
      }
      calib.dominant_fraction = static_cast<double>(hottest) /
                                static_cast<double>(r1.locks.acquisitions);
    }
    calib.shared_writes_per_proc = static_cast<double>(c.refs_per_proc) *
                                   c.data_ref_fraction *
                                   (1.0 - c.private_fraction) *
                                   c.write_fraction;
    const model::Prediction p = model::predict(c.machine_config(), calib);

    ModelCaseResult res;
    res.index = i;
    res.scheme = sync::scheme_kind_name(c.scheme);
    res.procs = c.num_procs;
    res.sim_run_time = r.run_time;
    res.predicted_run_time = p.run_time;
    res.rel_error =
        r.run_time > 0
            ? std::abs(p.run_time - static_cast<double>(r.run_time)) /
                  static_cast<double>(r.run_time)
            : 0.0;
    res.saturated = p.saturated;
    res.sim_waiters = r.locks.waiters_at_transfer.mean();
    res.pred_waiters = p.expected_waiters;
    v.cases.push_back(std::move(res));
  }
  return v;
}

}  // namespace syncpat::report
