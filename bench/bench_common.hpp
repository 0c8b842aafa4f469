// Shared helpers for the benches.
//
// Benches that run the paper's workloads read the SYNCPAT_SCALE environment
// variable through scale_or_die: traces are 1/scale the paper's length, and
// count-like columns are scaled back up for display.  SYNCPAT_SCALE=1
// reproduces paper-length traces.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/machine_config.hpp"
#include "workload/profiles.hpp"

namespace syncpat::bench {

inline constexpr std::uint64_t kDefaultScale = 8;

/// scale_from_env with bench-friendly error reporting (exit 2, not a throw).
inline std::uint64_t scale_or_die(std::uint64_t fallback = kDefaultScale) {
  try {
    return core::scale_from_env(fallback);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

inline void print_scale_banner(std::uint64_t scale) {
  std::cout << "[trace scale 1/" << scale
            << " of paper length; set SYNCPAT_SCALE=1 for full length]\n\n";
}

}  // namespace syncpat::bench
