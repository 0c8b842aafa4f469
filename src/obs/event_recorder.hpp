// Event recorder: the single choke point every instrumentation site feeds.
//
// Events are staged in one batch, reserved once, and handed to the
// registered sinks in emission order when the batch is full and at flush(),
// so the steady-state emit path is a size check and a store.  Nothing is ever
// dropped.  Sinks are non-owning and must outlive the recorder's last flush().
#pragma once

#include <cstddef>
#include <vector>

#include "obs/trace_event.hpp"

namespace syncpat::obs {

class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void on_event(const TraceEvent& event) = 0;
};

class EventRecorder {
 public:
  /// Events staged before the batch is handed to the sinks.
  static constexpr std::size_t kBatchEvents = 4096;

  explicit EventRecorder(const TraceConfig& config)
      : categories_(config.categories) {
    batch_.reserve(kBatchEvents);
  }

  /// Category filter, checked by the instrumentation sites before building
  /// an event at all.
  [[nodiscard]] bool wants(std::uint32_t cat) const {
    return (categories_ & cat) != 0;
  }

  void add_sink(TraceSink* sink) { sinks_.push_back(sink); }

  void emit(const TraceEvent& event) {
    if (batch_.size() == kBatchEvents) flush();
    batch_.push_back(event);
  }

  /// Hands every staged event to the sinks, in emission order.
  void flush() {
    for (const TraceEvent& event : batch_) {
      for (TraceSink* sink : sinks_) sink->on_event(event);
    }
    batch_.clear();
  }

 private:
  std::uint32_t categories_;
  std::vector<TraceEvent> batch_;
  std::vector<TraceSink*> sinks_;
};

}  // namespace syncpat::obs
