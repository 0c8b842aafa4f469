// Host-side engine self-profiler: attributes the simulator's *wall-clock*
// time (not simulated cycles) to engine phases — the engine loop (either
// engine, timed at one site in Simulator::run()) vs invariant checking vs
// trace emission.
//
// Null-unless-attached like every other observer: the Simulator holds a raw
// SelfProfiler pointer and reads the clock only when one is attached, so
// un-profiled runs don't even execute the timestamp calls.
// Timestamps use steady_clock; the constructor measures the clock-read cost
// so reports can show how much of the attributed time is timer overhead.
//
// The profiler observes the host, never the simulation: attaching it cannot
// change any simulated result (the bench asserts run_cycles match).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace syncpat::obs {

class SelfProfiler {
 public:
  enum class Phase : std::uint8_t {
    kEventLoop = 0,   // the engine loop: run_des() or the per-cycle step() loop
    kInvariantCheck,  // invariant checker per-cycle and end-of-run sweeps
    kTraceEmit,       // event recorder flush / sink finalization
  };
  static constexpr std::size_t kNumPhases = 3;

  [[nodiscard]] static const char* phase_name(Phase p);

  /// Calibrates the steady_clock read cost (median of a sample burst).
  SelfProfiler();

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Charges `ns` (may be negative: compensating entries subtract nested
  /// phases from their parent) and `calls` samples to a phase.
  void charge(Phase p, std::int64_t ns, std::uint64_t calls = 1) {
    ns_[static_cast<std::size_t>(p)] += ns;
    calls_[static_cast<std::size_t>(p)] += calls;
  }

  struct Snapshot {
    std::array<std::int64_t, kNumPhases> ns{};
    std::array<std::uint64_t, kNumPhases> calls{};
    std::int64_t timer_overhead_ns_per_sample = 0;

    [[nodiscard]] std::int64_t total_ns() const {
      std::int64_t sum = 0;
      for (const std::int64_t v : ns) sum += v;
      return sum;
    }
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// Multi-line phase breakdown for terminal output.
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<std::int64_t, kNumPhases> ns_{};
  std::array<std::uint64_t, kNumPhases> calls_{};
  std::int64_t timer_overhead_ns_ = 0;
};

}  // namespace syncpat::obs
