// Exhaustive textual rendering of a SimulationResult for byte-identity
// differentials (DES vs per-cycle tick, --jobs 1-vs-N, traced vs untraced).
//
// Every field is included — RunningStat moments too, which would expose a
// single reordered or double-counted sample — and doubles are printed as
// hexfloats, so string equality means bit-for-bit identical accumulation
// order.  Shared by the fuzzing oracles and the differential regression
// tests so they can never drift apart in what they compare.
#pragma once

#include <string>

#include "core/results.hpp"

namespace syncpat::fuzz {

[[nodiscard]] std::string render_result(const core::SimulationResult& r);

}  // namespace syncpat::fuzz
