// syncpat_fuzz — deterministic differential fuzzing harness.
//
// Generates seeded random machine/workload/lock-scheme combinations and runs
// each under a battery of oracles (invariant checker, engine and --jobs
// differentials, trace round-trip, conservation and metrics identities).
// The cases run on --jobs workers; the report follows in case order.
// Failing cases are automatically shrunk to a minimal repro file that
// `syncpat_fuzz --repro <file>` replays exactly.
//
//   syncpat_fuzz [--seed N] [--cases N] [--repro-dir DIR] [--no-shrink]
//                [--verbose] [--jobs N]
//   syncpat_fuzz --repro FILE
//
// Exit status: 0 when all cases pass, 1 when any oracle fails, 2 on usage
// errors.  The report is byte-identical for identical seed + case count.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "fuzz/harness.hpp"
#include "util/parse.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: syncpat_fuzz [options]\n"
         "  --seed N        master seed (default 0x5eed)\n"
         "  --cases N       number of cases to run (default 200)\n"
         "  --repro FILE    replay a serialized repro case and exit\n"
         "  --repro-dir DIR where to write fuzz-repro-<n>.case files "
         "(default .)\n"
         "  --no-shrink     report failures without shrinking them\n"
         "  --verbose       print a line for every passing case too\n"
         "  --jobs N        workers for the batch of cases and for the "
         "--jobs\n"
         "                  differential (default 3)\n"
         "  --inject-failure  test hook: synthetic oracle that fails cases\n"
         "                    with >= 2 procs and >= 400 refs (shrinker "
         "exercise)\n";
}

std::uint64_t numeric(const std::string& flag, const std::string& text) {
  try {
    return syncpat::util::parse_u64(text, flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace syncpat;

  fuzz::HarnessOptions opt;
  std::string repro_path;
  bool inject_failure = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = numeric("--seed", value("--seed"));
    } else if (arg == "--cases") {
      opt.cases = numeric("--cases", value("--cases"));
    } else if (arg == "--repro") {
      repro_path = value("--repro");
    } else if (arg == "--repro-dir") {
      opt.repro_dir = value("--repro-dir");
    } else if (arg == "--no-shrink") {
      opt.shrink_failures = false;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--jobs") {
      const std::uint64_t jobs = numeric("--jobs", value("--jobs"));
      if (jobs == 0 || jobs > 64) {
        std::cerr << "error: --jobs must be in [1, 64], got " << jobs << "\n";
        return 2;
      }
      opt.oracles.jobs = static_cast<std::uint32_t>(jobs);
    } else if (arg == "--inject-failure") {
      inject_failure = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "error: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (inject_failure) {
    opt.injected_oracle = [](const fuzz::FuzzCase& c) {
      fuzz::OracleVerdict v;
      if (c.num_procs >= 2 && c.refs_per_proc >= 400) {
        v.failures.push_back("injected: synthetic failure (procs >= 2, refs >= 400)");
      }
      return v;
    };
  }

  try {
    if (!repro_path.empty()) {
      return fuzz::replay_repro(repro_path, opt, std::cout);
    }
    const fuzz::HarnessReport report = fuzz::run_fuzz(opt, std::cout);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
