// Correctness gate for benchmark cells.  A cell fails when it returned an
// error, when its result breaks a conservation identity of fuzz oracle #5
// that SimulationResult can show, or when a digest is recorded for its seed
// and the hash of fuzz::render_result differs from it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "core/experiment_engine.hpp"

namespace syncbench {

/// First broken identity, or empty when the result conserves:
///  * per processor, work + stalls == completion_cycle;
///  * run_time == the largest completion_cycle;
///  * transfers <= acquisitions, and ProcResult count == num_procs.
[[nodiscard]] std::string conservation_error(
    const syncpat::core::SimulationResult& r);

/// FNV-1a 64 of fuzz::render_result (every field, doubles as hexfloats).
[[nodiscard]] std::uint64_t result_digest(
    const syncpat::core::SimulationResult& r);

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Recorded per-cell digests, one per line:
///   <workload> <seed> <cell label> <16 hex digits>
/// Blank lines and lines starting with '#' are ignored.
class DigestBook {
 public:
  /// Throws std::runtime_error when the file is unreadable or malformed.
  void load(const std::string& path);
  [[nodiscard]] std::optional<std::uint64_t> expected(
      const std::string& workload, std::uint64_t seed,
      const std::string& label) const;
  /// True when any digest is recorded for this workload and seed.
  [[nodiscard]] bool covers(const std::string& workload,
                            std::uint64_t seed) const;

 private:
  std::map<std::tuple<std::string, std::uint64_t, std::string>, std::uint64_t>
      digests_;
};

/// Outcome of checking one cell.
struct CellCheck {
  bool ok = true;
  std::string reason;        // empty when ok
  std::uint64_t digest = 0;  // 0 when the cell errored
};

[[nodiscard]] CellCheck check_cell(const std::string& label,
                                   const syncpat::core::CellResult& result,
                                   const DigestBook& book,
                                   const std::string& workload,
                                   std::uint64_t seed);

}  // namespace syncbench
