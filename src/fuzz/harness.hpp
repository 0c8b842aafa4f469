// The fuzzing run loop: generate -> oracle battery -> (on failure) shrink ->
// serialize a minimal repro.
//
// Determinism contract: with the same seed and case count, the harness
// produces a byte-identical case sequence AND a byte-identical report on the
// given stream — no wall-clock, no paths that vary per machine beyond the
// caller-chosen repro directory.  That is what lets CI pin a fuzz run the
// way it pins a golden table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"

namespace syncpat::fuzz {

struct HarnessOptions {
  std::uint64_t seed = 0x5eed;
  std::uint64_t cases = 200;
  OracleOptions oracles;
  /// Shrink failures and write "<repro_dir>/fuzz-repro-<index>.case".
  bool shrink_failures = true;
  std::string repro_dir = ".";
  /// Report each clean case as a line too (default: failures + summary only).
  bool verbose = false;
  /// Test hook: replaces run_oracles entirely (the shrinker test injects a
  /// deterministic synthetic failure through this).  Null = real battery.
  /// Called from several threads at once.
  Oracle injected_oracle;
};

struct FailureRecord {
  FuzzCase original;
  FuzzCase minimal;        // == original when shrinking is off
  OracleVerdict verdict;   // of the minimal case
  std::string repro_path;  // empty when no file was written
};

struct HarnessReport {
  std::uint64_t cases_run = 0;
  std::vector<FailureRecord> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the batch: every case's oracles on core::parallel_for with
/// opt.oracles.jobs workers, then, in case order, the deterministic report
/// to `out`, shrinking failures one at a time.  A case whose oracles threw
/// rethrows here once the report reaches it.
HarnessReport run_fuzz(const HarnessOptions& opt, std::ostream& out);

/// Replays a serialized case under the same oracle battery, printing the
/// verdict.  Returns 0 when the case passes, 1 when it (still) fails —
/// mirroring the harness so a repro file is a self-contained regression
/// test.  Throws std::invalid_argument / std::ios failures on unreadable or
/// malformed files.
int replay_repro(const std::string& path, const HarnessOptions& opt,
                 std::ostream& out);

}  // namespace syncpat::fuzz
