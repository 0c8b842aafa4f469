// In-memory per-lock hand-off timeline: the data behind the §2.3-style
// attribution report (transfer latency over time, waiters at transfer by
// phase).  Unlike LockStatsCollector's end-of-run aggregates, every hand-off
// keeps its cycle stamp, so the report layer can split the run into phases.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/event_recorder.hpp"

namespace syncpat::obs {

struct LockTimeline {
  struct Transfer {
    std::uint64_t release_cycle = 0;
    std::uint64_t latency = 0;  // release -> next acquire, cycles
    std::uint64_t waiters_left = 0;
    bool latency_known = false;  // false only for a hand-off still in flight
                                 // when the run ended
  };
  struct PerLock {
    std::uint64_t acquisitions = 0;
    std::uint64_t handoffs = 0;
    std::vector<Transfer> transfers;  // in release order
  };

  // std::map: deterministic iteration for byte-identical reports.
  std::map<std::uint32_t, PerLock> locks;
  std::uint64_t run_cycles = 0;

  [[nodiscard]] std::uint64_t total_handoffs() const {
    std::uint64_t total = 0;
    for (const auto& [line, lock] : locks) total += lock.handoffs;
    return total;
  }
};

class LockTimelineSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override;

  /// Moves the timeline out, stamping the run length (used by the phase
  /// windows of the report).
  [[nodiscard]] LockTimeline take(std::uint64_t run_cycles);

 private:
  LockTimeline timeline_;
};

}  // namespace syncpat::obs
