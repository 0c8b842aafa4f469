// Trace-file walkthrough: generate a calibrated benchmark model, save it as
// a binary trace in the working directory, and re-analyze the loaded file.
// The written <profile>.sptrace is what `syncpat_cli --program FILE` reads.
//
//   ./trace_tools [profile-name] [scale]   (default: Pdsa at 1/64 length)
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "trace/analyzer.hpp"
#include "trace/io.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

int main(int argc, char** argv) {
  using namespace syncpat;

  const std::string wanted = argc > 1 ? argv[1] : "Pdsa";
  std::uint64_t scale = 64;
  try {
    if (argc > 2) scale = util::parse_positive_u64(argv[2], "scale");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  workload::BenchmarkProfile profile;
  bool found = false;
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == wanted) {
      profile = p;
      found = true;
    }
  }
  if (!found) {
    std::cerr << "error: unknown profile '" << wanted
              << "' (try Grav, Pdsa, FullConn, Pverify, Qsort, Topopt)\n";
    return 2;
  }

  std::cout << "Generating " << profile.name << " at 1/" << scale
            << " of paper trace length...\n";
  trace::ProgramTrace program =
      workload::make_program_trace(profile.scaled(scale));

  const std::string path = profile.name + ".sptrace";
  trace::ProgramTrace loaded;
  try {
    trace::save_program_trace(path, program);
    std::cout << "  wrote " << path << "\n";
    loaded = trace::load_program_trace(path);
  } catch (const trace::TraceIoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // Run the ideal analysis on the reloaded file.
  const trace::IdealProgramStats stats = trace::analyze_program(loaded);
  std::cout << "\nIdeal analysis of the reloaded trace:\n"
            << "  procs        : " << stats.num_procs << "\n  refs/proc    : "
            << util::with_commas(static_cast<std::uint64_t>(stats.avg_refs_all()))
            << "\n  lock pairs   : " << util::fixed(stats.avg_lock_pairs(), 1)
            << "\n  time in locks: "
            << util::percent(stats.held_time_fraction(), 1) << "%\n";
  return 0;
}
