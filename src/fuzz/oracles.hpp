// The oracle battery: every property a randomized case is checked against.
//
// Each oracle is a universally-quantified correctness statement — it must
// hold for EVERY machine configuration and workload, not just the paper's
// table cells.  Numbered as the docs cite them (#2, a differential for a
// since-deleted tick-engine mode, is retired; the others keep their numbers):
//
//   #1 invariants        the runtime invariant checker (MESI coherence, one
//                        transaction per line, lock mutual exclusion, FIFO
//                        hand-off) reports zero violations on the DES core;
//   #3 jobs              the experiment engine returns byte-identical cell
//                        results with 1 worker and with N workers;
//   #4 trace-roundtrip   a generated trace survives save -> load -> save with
//                        identical events and identical bytes;
//   #5 conservation      acquires == releases per lock and no lock held at
//                        end (trace validator), traced hand-off events == the
//                        Transfers aggregate, per-processor
//                        work + stalls == completion cycle (and so the stall
//                        ledger's sum, booked by the same charge calls), and
//                        run_time == max completion cycle;
//   #6 metrics           the metrics registry's windowed bus gauge equals its
//                        bus.busy_cycles counter, the bus's own tick-by-tick
//                        count;
//   #7 engine            the reference run — core::run_experiment on the DES
//                        core with the checker, lock tracing and metrics
//                        attached — and a plain per-cycle tick run produce
//                        byte-identical SimulationResults (render_result
//                        string equality), proving DES equivalence and that
//                        no observer perturbs a result.
//
// run_oracles never throws on a *failing* oracle — failures come back as
// structured text so the harness can shrink and serialize the case.  It does
// propagate exceptions from genuinely broken setups (e.g. a hand-edited
// repro with a config the simulator rejects).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"

namespace syncpat::fuzz {

/// Every oracle always runs; only the jobs differential takes a parameter.
struct OracleOptions {
  /// Worker count for the parallel side of the jobs differential, and for
  /// the harness's batch of cases.
  std::uint32_t jobs = 3;
};

struct OracleVerdict {
  /// "oracle-name: detail", one entry per failed property.
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// Comma-separated failing oracle names (stable across runs, used by the
  /// report and by repro replay equivalence checks).
  [[nodiscard]] std::string failed_oracles() const;
};

[[nodiscard]] OracleVerdict run_oracles(const FuzzCase& c,
                                        const OracleOptions& opt = {});

}  // namespace syncpat::fuzz
