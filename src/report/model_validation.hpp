// Model-vs-simulator validation over the fuzz corpus.
//
// Replays deterministically generated fuzz configurations through both the
// analytic predictor (src/model/) and the simulator, and reports the
// relative run-time error per scheme and processor-count band.  This is the
// predictor's ground truth: the `model-smoke` tier-1 test pins the median
// error per scheme against a bound, and `make bench-model` regenerates the
// tracked BENCH_model.json from the same replay.
//
// Each scored case costs two simulations: the case itself (DES engine) and
// a P = 1 calibration run of the same per-processor workload, from which
// the predictor reads C (critical-section cycles) and the serial run time
// (Aksenov et al.'s single-thread-measurement methodology).  Cases with no
// lock pairs or a single processor are skipped — there is nothing for a
// lock-throughput model to predict — and the skip count is reported so a
// corpus slice never silently shrinks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report/table.hpp"

namespace syncpat::report {

struct ModelCaseResult {
  std::uint64_t index = 0;
  std::string scheme;
  std::uint32_t procs = 0;
  std::uint64_t sim_run_time = 0;
  double predicted_run_time = 0.0;
  double rel_error = 0.0;       // |predicted - sim| / sim
  bool saturated = false;       // the predictor's serial bound decided
  double sim_waiters = 0.0;     // mean waiters at transfer, simulated
  double pred_waiters = 0.0;    // predictor's expected waiters
};

struct SchemeErrorSummary {
  std::string scheme;
  std::uint64_t cases = 0;
  double median_error = 0.0;
  double p90_error = 0.0;
  double median_small_p = -1.0;   // P in [2, 4]; -1 when no such case
  double median_medium_p = -1.0;  // P in [5, 12]
  double median_large_p = -1.0;   // P >= 16
};

struct ModelValidation {
  std::vector<ModelCaseResult> cases;
  std::uint64_t skipped = 0;  // lock-free / single-processor cases
  std::uint64_t master_seed = 0;
  std::uint64_t requested = 0;

  /// Per-scheme error summaries, scheme name order, schemes with >= 1 case.
  [[nodiscard]] std::vector<SchemeErrorSummary> per_scheme() const;
  /// The scheme x P-band error table rendered for humans.
  [[nodiscard]] Table table() const;
};

/// Replay `num_cases` corpus configs from `master_seed` (fuzz::FuzzCase
/// generation, indices 0..num_cases-1) through predictor and simulator.
[[nodiscard]] ModelValidation validate_model(std::uint64_t master_seed,
                                             std::uint64_t num_cases);

}  // namespace syncpat::report
