// Streaming trace sources.
//
// Paper-scale traces run to millions of references per processor, so nothing
// in the pipeline requires a materialized trace: the simulator, the ideal
// analyzer, and the trace writers all consume a TraceSource one event at a
// time.  An experiment pulls each event once: the ideal analyzer rides along
// with the simulator as a pass-through (trace::IdealTap).  Vector-backed
// sources exist for tests and file loads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace syncpat::trace {

/// One processor's event stream.  reset() rewinds to the beginning, so one
/// trace can be consumed more than once (a standalone ideal pass, a trace
/// writer, a simulation); the Simulator resets every source before it runs.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills `out` with the next event and returns true, or returns false at
  /// end of trace.
  virtual bool next(Event& out) = 0;
  virtual void reset() = 0;
};

/// Vector-backed source.
class VectorTraceSource final : public TraceSource {
 public:
  VectorTraceSource() = default;
  explicit VectorTraceSource(std::vector<Event> events)
      : events_(std::move(events)) {}

  bool next(Event& out) override {
    if (pos_ >= events_.size()) return false;
    out = events_[pos_++];
    return true;
  }

  void reset() override { pos_ = 0; }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::vector<Event>& events() { return events_; }

 private:
  std::vector<Event> events_;
  std::size_t pos_ = 0;
};

/// A whole traced program: one source per processor plus a name.
struct ProgramTrace {
  std::string name;
  std::vector<std::unique_ptr<TraceSource>> per_proc;

  [[nodiscard]] std::size_t num_procs() const { return per_proc.size(); }
  void reset_all() {
    for (auto& s : per_proc) s->reset();
  }
};

/// Drains a source into a vector (test/tool helper; not for paper-scale use).
[[nodiscard]] inline std::vector<Event> collect(TraceSource& source) {
  std::vector<Event> out;
  Event e;
  while (source.next(e)) out.push_back(e);
  return out;
}

}  // namespace syncpat::trace
