// In-memory span recorder for the benchmark's traced run.
//
// A span marks one call from the benchmark into a simulator layer: a name
// ("core.run"), its start and end on steady_clock, and the span that caused
// it.  Spans nest through an explicit stack (the traced run is single
// threaded), stay in memory while the run measures, and are written out once
// at the end as Chrome trace-event JSON.  A layer's self time is its span
// durations minus the parts covered by child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace syncbench {

[[nodiscard]] std::int64_t now_ns();

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index of the causing span; -1 for a top-level span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
  };

  /// Opens a span as a child of the innermost open one.
  int begin(std::string name);
  void end(int id);
  /// Records an already-measured interval as a child of `parent` (used for
  /// the simulator's own SelfProfiler phases inside a core.run span).
  void add_child(int parent, std::string name, std::int64_t start_ns,
                 std::int64_t end_ns);

  /// RAII guard: begin() on construction, end() on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name)
        : rec_(rec), id_(rec.begin(std::move(name))) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanRecorder& rec_;
    int id_;
  };

  /// Total duration of a span name, in ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Self time per span name, in ms (duration minus child durations).
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Sum of top-level span durations, in ms.
  [[nodiscard]] double top_level_ms() const;
  /// Writes every span as Chrome trace-event JSON ("X" events, one track).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace syncbench
