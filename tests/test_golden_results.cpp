// Golden-results regression test: Table 3/5 headline numbers (all six paper
// benchmarks under every lock scheme) at a fixed scale, snapshotted as JSON
// in tests/golden/.  Any drift in simulated cycle counts, lock statistics,
// bus traffic or lock-stall cycles fails the test, and the failure names the
// rows that differ.
//
// To update the snapshot after an intentional behavior change, run with
// SYNCPAT_UPDATE_GOLDEN=1 and --gtest_filter='*GoldenResults.*', then review
// the diff and commit it (see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment_engine.hpp"
#include "sync/scheme_factory.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

constexpr std::uint64_t kGoldenScale = 64;

std::string golden_path() {
  return std::string(SYNCPAT_GOLDEN_DIR) + "/table3_5_scale64.json";
}

/// Integer metrics only: the simulation is fully integer-deterministic, so
/// exact string equality is the right comparison.
std::string render_snapshot(const core::GridResult& grid) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"scale\": " << kGoldenScale << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::SimulationResult& sim = grid.results[i].outcome.sim;
    std::uint64_t stall_lock = 0;
    for (const core::ProcResult& proc : sim.per_proc) {
      stall_lock += proc.stall_lock;
    }
    out << "    {\"label\": \"" << grid.cells[i].label() << "\", "
        << "\"run_time\": " << sim.run_time << ", "
        << "\"acquisitions\": " << sim.locks.acquisitions << ", "
        << "\"transfers\": " << sim.locks.transfers << ", "
        << "\"bus_txns\": " << sim.traffic.total() << ", "
        << "\"barriers\": " << sim.barriers_completed << ", "
        << "\"lock_ops\": " << sim.traffic.lock_ops << ", "
        << "\"upgrades\": " << sim.traffic.upgrades << ", "
        << "\"stall_lock\": " << stall_lock << "}"
        << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  for (std::size_t nl; (nl = text.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    lines.push_back(text.substr(begin, nl - begin));
  }
  lines.push_back(text.substr(begin));
  return lines;
}

/// A snapshot line's cell label, or the line itself when it has none.
std::string row_label(const std::string& line) {
  const std::string key = "\"label\": \"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return line;
  const std::size_t begin = at + key.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

std::size_t count_rows(const std::vector<std::string>& lines) {
  return static_cast<std::size_t>(
      std::count_if(lines.begin(), lines.end(), [](const std::string& line) {
        return line.find("\"label\": ") != std::string::npos;
      }));
}

/// Names each line on which the snapshots differ — its label, then the
/// expected and the actual line — and any difference in row count, instead
/// of printing both snapshots whole.
std::string describe_drift(const std::string& expected,
                           const std::string& actual) {
  const std::vector<std::string> want = split_lines(expected);
  const std::vector<std::string> got = split_lines(actual);
  const std::string none = "(no line)";
  std::ostringstream out;
  if (count_rows(want) != count_rows(got)) {
    out << "row count: expected " << count_rows(want) << ", actual "
        << count_rows(got) << "\n";
  }
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : none;
    const std::string& g = i < got.size() ? got[i] : none;
    if (w == g) continue;
    out << row_label(i < want.size() ? w : g) << "\n  expected: " << w
        << "\n  actual:   " << g << "\n";
  }
  return out.str();
}

// Parameterized over the execution engine: the same committed snapshot must
// hold for the discrete-event core and the legacy tick loop — one golden
// file, two engines, any divergence is a correctness bug in one of them.
class GoldenResults : public ::testing::TestWithParam<core::EngineKind> {};

INSTANTIATE_TEST_SUITE_P(Engines, GoldenResults,
                         ::testing::Values(core::EngineKind::kDes,
                                           core::EngineKind::kTick),
                         [](const auto& info) {
                           return std::string(core::engine_name(info.param));
                         });

TEST_P(GoldenResults, Table3And5HeadlineNumbers) {
  core::ExperimentGrid grid;
  grid.base.engine = GetParam();
  grid.profiles = workload::paper_profiles();
  grid.schemes = sync::all_scheme_kinds();
  grid.scales = {kGoldenScale};

  const core::GridResult result = core::run_grid(grid);
  for (std::size_t i = 0; i < result.size(); ++i) {
    ASSERT_TRUE(result.results[i].ok())
        << result.cells[i].label() << ": " << result.results[i].error;
  }
  const std::string actual = render_snapshot(result);

  if (std::getenv("SYNCPAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path()
                 << "; review and commit the diff";
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << golden_path()
      << " — regenerate with SYNCPAT_UPDATE_GOLDEN=1 (see EXPERIMENTS.md)";
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    ADD_FAILURE() << "simulated results drifted from the committed snapshot:\n"
                  << describe_drift(expected.str(), actual)
                  << "if the change is intentional, regenerate with "
                     "SYNCPAT_UPDATE_GOLDEN=1 (see EXPERIMENTS.md)";
  }
}

}  // namespace
}  // namespace syncpat
