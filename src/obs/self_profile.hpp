// Host-side engine self-profiler: the simulator's *wall-clock* time (not
// simulated cycles) in the engine loop — either engine, timed at one site in
// Simulator::run().
//
// Null-unless-attached like every other observer: the Simulator holds a raw
// SelfProfiler pointer and reads the clock only when one is attached, so
// un-profiled runs don't even execute the timestamp calls.
//
// The profiler observes the host, never the simulation: attaching it cannot
// change any simulated result (MetricsSelfProfile pins this on both engines).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace syncpat::obs {

class SelfProfiler {
 public:
  enum class Phase : std::uint8_t {
    kEventLoop = 0,  // the engine loop: run_des() or the per-cycle step() loop
  };
  static constexpr std::size_t kNumPhases = 1;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct Snapshot {
    std::array<std::int64_t, kNumPhases> ns{};
    std::array<std::uint64_t, kNumPhases> calls{};
  };

  /// Charges one timed call of `ns` nanoseconds to a phase.
  void charge(Phase p, std::int64_t ns) {
    totals_.ns[static_cast<std::size_t>(p)] += ns;
    ++totals_.calls[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] Snapshot snapshot() const { return totals_; }

 private:
  Snapshot totals_;
};

}  // namespace syncpat::obs
