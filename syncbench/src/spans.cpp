#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace syncbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::add_child(int parent, std::string name,
                             std::int64_t start_ns, std::int64_t end_ns) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
}

double SpanRecorder::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.duration_ns();
  }
  return static_cast<double>(ns) / 1e6;
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

double SpanRecorder::top_level_ms() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.duration_ns();
  }
  return static_cast<double>(ns) / 1e6;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace syncbench
