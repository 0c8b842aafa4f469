// Chrome trace-event JSON exporter (the `chrome://tracing` / Perfetto
// format): one track per processor, one per lock word, one for the bus, and
// one machine-wide track for barriers.  Two
// counter ("ph":"C") series ride along: windowed bus-busy cycles on the bus
// track and a live waiter count per lock word, so the viewer graphs
// contention over time next to the spans that caused it.
//
// Cycles are written as microsecond timestamps (1 cycle == 1 us), so the
// viewer's time axis reads directly in simulated cycles.  Output is fully
// deterministic: span/instant entries are appended in simulation order and
// the per-track metadata is emitted in sorted order at finish().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/event_recorder.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"

namespace syncpat::obs {

class ChromeTraceSink final : public TraceSink {
 public:
  /// `process_label` names the trace in the viewer (e.g. "Grav/queuing");
  /// `num_procs` pre-registers the processor tracks so they appear in order
  /// even if a processor never logs an event.
  ChromeTraceSink(std::string process_label, std::uint32_t num_procs);

  void on_event(const TraceEvent& event) override;

  /// The complete JSON document.  Call after EventRecorder::flush().
  [[nodiscard]] std::string finish() const;

 private:
  struct OpenHold {
    std::uint64_t since = 0;
    std::int32_t proc = -1;
  };
  /// One lock word's track: its label, cached because every lock event
  /// writes it, the live waiter count (sampled inline at every kAcquireBegin
  /// / kAcquired) and the open "held by" span.
  struct LockTrack {
    std::string label;
    std::uint64_t waiters = 0;
    std::optional<OpenHold> hold;
  };

  LockTrack& track(std::uint32_t line);
  void close_hold(std::uint32_t line, LockTrack& lock, std::uint64_t now);
  void waiter_sample(const LockTrack& lock, std::uint64_t cycle);

  std::string process_label_;
  std::uint32_t num_procs_;
  JsonBuffer body_;  // comma-joined event objects, simulation order
  std::map<std::uint32_t, LockTrack> locks_;         // every lock seen
  std::map<std::int32_t, std::uint64_t> wait_open_;  // proc -> acquire begin
  // Windowed bus-busy cycles, emitted as one "ph":"C" sample per window at
  // finish().
  BusWindowGauge bus_gauge_;
  std::uint64_t last_cycle_ = 0;  // max event end seen, bounds the gauge
};

/// `base` with `label` spliced in before the extension ("out.json" +
/// "Grav/queuing" -> "out.Grav-queuing.json"); slashes and spaces in the
/// label become '-' so the result is a single path component.
[[nodiscard]] std::string trace_out_path(const std::string& base,
                                         const std::string& label);

}  // namespace syncpat::obs
