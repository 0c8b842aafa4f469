// Analytic-model validation driver: replay a fuzz-corpus slice through the
// closed-form throughput predictor (src/model/) and the simulator, print the
// per-scheme relative-error table, and optionally export BENCH_model.json.
//
//   syncpat_predict [--seed S] [--cases N] [--json FILE]
//                   [--max-median-error F] [--min-cases K]
//
//     --seed S              corpus master seed (default 24245, the tier-1
//                           fuzz seed)
//     --cases N             corpus indices 0..N-1 (default 200)
//     --json FILE           write the per-scheme summary as JSON (the
//                           tracked BENCH_model.json format)
//     --max-median-error F  exit 1 unless every scheme with at least
//                           --min-cases scored cases has median relative
//                           error <= F (e.g. 0.35 = 35%); this is the
//                           model-smoke regression gate
//     --min-cases K         schemes with fewer scored cases than K are
//                           reported but not gated (default 3)
//     --verbose             print every scored case (signed error, bounds)
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report/model_validation.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

using syncpat::report::ModelValidation;
using syncpat::report::SchemeErrorSummary;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed S] [--cases N] [--json FILE]\n"
               "  [--max-median-error F] [--min-cases K]\n";
  std::exit(2);
}

void write_json(const ModelValidation& v, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
  out << "{\n";
  out << "  \"benchmark\": \"model_validation\",\n";
  out << "  \"master_seed\": " << v.master_seed << ",\n";
  out << "  \"cases_requested\": " << v.requested << ",\n";
  out << "  \"cases_scored\": " << v.cases.size() << ",\n";
  out << "  \"cases_skipped\": " << v.skipped << ",\n";
  out << "  \"schemes\": [\n";
  const auto schemes = v.per_scheme();
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const SchemeErrorSummary& s = schemes[i];
    out << "    {\"scheme\": \"" << s.scheme << "\", \"cases\": " << s.cases
        << ", \"median_rel_error\": " << syncpat::util::fixed(s.median_error, 4)
        << ", \"p90_rel_error\": " << syncpat::util::fixed(s.p90_error, 4)
        << "}" << (i + 1 < schemes.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 24245;
  std::uint64_t cases = 200;
  std::uint64_t min_cases = 3;
  double max_median_error = -1.0;
  bool verbose = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--seed") seed = syncpat::util::parse_u64(value(), arg);
      else if (arg == "--cases")
        cases = syncpat::util::parse_u64(value(), arg);
      else if (arg == "--min-cases")
        min_cases = syncpat::util::parse_u64(value(), arg);
      else if (arg == "--json") json_path = value();
      else if (arg == "--verbose") verbose = true;
      else if (arg == "--max-median-error") {
        // The whole string must parse, and a NaN bound would turn the
        // gate below off.
        const std::string text = value();
        const char* end = text.data() + text.size();
        const auto [ptr, ec] =
            std::from_chars(text.data(), end, max_median_error);
        if (ec != std::errc{} || ptr != end ||
            !std::isfinite(max_median_error) || max_median_error <= 0.0) {
          std::cerr << "error: --max-median-error must be a positive finite "
                       "number, got \"" << text << "\"\n";
          return 2;
        }
      }
      else usage(argv[0]);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  const ModelValidation v =
      syncpat::report::validate_model(seed, cases);
  v.table().print(std::cout);

  if (verbose) {
    for (const auto& c : v.cases) {
      const double signed_err =
          (c.predicted_run_time - static_cast<double>(c.sim_run_time)) /
          static_cast<double>(c.sim_run_time);
      std::cout << "case " << c.index << " " << c.scheme << " P=" << c.procs
                << " sim=" << c.sim_run_time
                << " pred=" << syncpat::util::fixed(c.predicted_run_time, 0)
                << " err=" << syncpat::util::percent(signed_err, 1)
                << (c.saturated ? " [saturated]" : "")
                << " waiters sim=" << syncpat::util::fixed(c.sim_waiters, 2)
                << " pred=" << syncpat::util::fixed(c.pred_waiters, 2)
                << "\n";
    }
  }

  if (!json_path.empty()) {
    write_json(v, json_path);
    std::cout << "wrote " << json_path << "\n";
  }

  if (max_median_error > 0.0) {
    bool failed = false;
    for (const SchemeErrorSummary& s : v.per_scheme()) {
      if (s.cases < min_cases) continue;
      if (s.median_error > max_median_error) {
        std::cerr << "FATAL: scheme " << s.scheme << " median error "
                  << syncpat::util::percent(s.median_error, 1)
                  << " exceeds the pinned bound "
                  << syncpat::util::percent(max_median_error, 1) << " over "
                  << s.cases << " cases\n";
        failed = true;
      }
    }
    if (failed) return 1;
    std::cout << "model-smoke: every gated scheme within "
              << syncpat::util::percent(max_median_error, 1) << "\n";
  }
  return 0;
}
