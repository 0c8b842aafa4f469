// Unit-cost probes: timed loops over one layer's public hot-path function,
// each at the paper's machine size (P = 12), at the large-P workload's fcfs
// size (P = 256) and at the large-P study size (P = 1024), where
// per-processor state no longer fits the host's caches.
//
//  * Cache::snoop on a line no cache holds (a broadcast snoop miss), walked
//    across all P caches in id order as Simulator::snoop_others does;
//  * Cache::access read hits on warmed caches, processors interleaved;
//  * ServiceDiscipline::scan_order over P + 1 ports, for each discipline;
//  * EventQueue schedule + take_due with P sources, a few cycles ahead.
//
// Each figure is the median of several batches, in ns per call.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "bus/service_discipline.hpp"
#include "spans.hpp"

namespace syncbench {

inline constexpr std::array<std::uint32_t, 3> kProbeProcs = {12, 256, 1024};

struct UnitCosts {
  // Indexed like kProbeProcs.
  using PerSize = std::array<double, kProbeProcs.size()>;
  PerSize snoop_miss_ns{};
  PerSize access_ns{};
  PerSize event_queue_op_ns{};
  std::array<PerSize, syncpat::bus::kNumDisciplines> scan_order_ns{};

  /// Index of the probe size closest to `procs` on a log scale.
  [[nodiscard]] static std::size_t size_index(std::uint32_t procs) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kProbeProcs.size(); ++i) {
      if (std::fabs(std::log(static_cast<double>(procs) / kProbeProcs[i])) <
          std::fabs(std::log(static_cast<double>(procs) / kProbeProcs[best]))) {
        best = i;
      }
    }
    return best;
  }
};

/// Runs every probe, one span per probe under the innermost open span.
[[nodiscard]] UnitCosts measure_unit_costs(SpanRecorder& spans);

}  // namespace syncbench
