#include "obs/self_profile.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace syncpat::obs {

const char* SelfProfiler::phase_name(Phase p) {
  switch (p) {
    case Phase::kEventLoop: return "event_loop";
    case Phase::kInvariantCheck: return "invariant_check";
    case Phase::kTraceEmit: return "trace_emit";
  }
  return "?";
}

SelfProfiler::SelfProfiler() {
  // Median of a burst of back-to-back clock reads: each iteration's delta is
  // one clock-read cost (plus loop noise the median discards).
  constexpr int kSamples = 101;
  std::array<std::int64_t, kSamples> deltas{};
  std::int64_t prev = now_ns();
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t t = now_ns();
    deltas[i] = t - prev;
    prev = t;
  }
  std::sort(deltas.begin(), deltas.end());
  timer_overhead_ns_ = deltas[kSamples / 2];
}

SelfProfiler::Snapshot SelfProfiler::snapshot() const {
  Snapshot s;
  s.ns = ns_;
  s.calls = calls_;
  s.timer_overhead_ns_per_sample = timer_overhead_ns_;
  return s;
}

std::string SelfProfiler::to_string() const {
  const Snapshot s = snapshot();
  const std::int64_t total = s.total_ns();
  std::string out = "engine self-profile (wall-clock):\n";
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const double frac =
        total > 0 ? static_cast<double>(s.ns[i]) / static_cast<double>(total)
                  : 0.0;
    std::string line = "  ";
    line += phase_name(static_cast<Phase>(i));
    line.resize(std::max<std::size_t>(line.size() + 2, 20), ' ');
    out += line;
    out += util::with_commas(s.ns[i] / 1000) + " us  (" +
           util::percent(frac, 1) + ", " + util::with_commas(s.calls[i]) +
           " calls)\n";
  }
  out += "  timer overhead ~" + util::with_commas(timer_overhead_ns_) +
         " ns/sample\n";
  return out;
}

}  // namespace syncpat::obs
