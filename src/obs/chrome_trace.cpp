#include "obs/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "bus/transaction.hpp"
#include "cache/cache.hpp"
#include "trace/address_map.hpp"

namespace syncpat::obs {

namespace {

using trace::AddressMap;

// Track (pid) layout: one process per hardware layer so the viewer groups
// them; sort indices keep the order stable.
constexpr int kPidProcs = 1;
constexpr int kPidLocks = 2;
constexpr int kPidBus = 3;
constexpr int kPidMachine = 4;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
    out.push_back(c);
  }
  return out;
}

std::string complete_span(const char* name, const char* cat, int pid,
                          std::uint64_t tid, std::uint64_t ts,
                          std::uint64_t dur, const std::string& args) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
                ",\"dur\":%" PRIu64 ",\"pid\":%d,\"tid\":%" PRIu64
                ",\"args\":{%s}}",
                name, cat, ts, dur, pid, tid, args.c_str());
  return buf;
}

std::string instant(const char* name, const char* cat, int pid,
                    std::uint64_t tid, std::uint64_t ts,
                    const std::string& args) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                "\"ts\":%" PRIu64 ",\"pid\":%d,\"tid\":%" PRIu64
                ",\"args\":{%s}}",
                name, cat, ts, pid, tid, args.c_str());
  return buf;
}

std::string counter_sample(const char* name, const char* cat, int pid,
                           std::uint64_t ts, const char* key,
                           std::uint64_t value) {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%" PRIu64
                ",\"pid\":%d,\"args\":{\"%s\":%" PRIu64 "}}",
                name, cat, ts, pid, key, value);
  return buf;
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::string process_label,
                                 std::uint32_t num_procs)
    : process_label_(std::move(process_label)),
      num_procs_(num_procs),
      bus_gauge_(MetricsConfig{}.bus_window_cycles) {}

void ChromeTraceSink::append_event(const std::string& json_object) {
  if (!body_.empty()) body_ += ",\n";
  body_ += json_object;
}

void ChromeTraceSink::close_hold(std::uint32_t line, std::uint64_t now) {
  const auto it = hold_open_.find(line);
  if (it == hold_open_.end()) return;
  char name[48];
  std::snprintf(name, sizeof name, "held by p%d", it->second.proc);
  char args[48];
  std::snprintf(args, sizeof args, "\"proc\":%d", it->second.proc);
  append_event(complete_span(name, "locks", kPidLocks, line, it->second.since,
                             now - it->second.since, args));
  hold_open_.erase(it);
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  char name[64];
  char args[96];
  if (ev.cycle > last_cycle_) last_cycle_ = ev.cycle;
  switch (ev.kind) {
    case EventKind::kAcquireBegin:
      wait_open_[ev.proc] = ev.cycle;
      locks_seen_.insert(ev.line);
      std::snprintf(name, sizeof name, "waiters %s",
                    AddressMap::lock_label(ev.line).c_str());
      append_event(counter_sample(name, "locks", kPidLocks, ev.cycle, "waiters",
                                  ++waiters_live_[ev.line]));
      break;
    case EventKind::kAcquired: {
      locks_seen_.insert(ev.line);
      if (const auto it = wait_open_.find(ev.proc); it != wait_open_.end()) {
        std::snprintf(name, sizeof name, "wait %s",
                      AddressMap::lock_label(ev.line).c_str());
        std::snprintf(args, sizeof args, "\"line\":\"0x%08x\"", ev.line);
        append_event(complete_span(name, "locks", kPidProcs,
                                   static_cast<std::uint64_t>(ev.proc),
                                   it->second, ev.cycle - it->second, args));
        wait_open_.erase(it);
      }
      hold_open_[ev.line] = OpenHold{ev.cycle, ev.proc};
      if (std::uint64_t& w = waiters_live_[ev.line]; w > 0) {
        std::snprintf(name, sizeof name, "waiters %s",
                      AddressMap::lock_label(ev.line).c_str());
        append_event(
            counter_sample(name, "locks", kPidLocks, ev.cycle, "waiters", --w));
      }
      break;
    }
    case EventKind::kReleaseBegin:
    case EventKind::kReleased:
      locks_seen_.insert(ev.line);
      close_hold(ev.line, ev.cycle);
      break;
    case EventKind::kHandoff:
      locks_seen_.insert(ev.line);
      close_hold(ev.line, ev.cycle);
      std::snprintf(args, sizeof args, "\"waiters_left\":%llu",
                    static_cast<unsigned long long>(ev.a));
      append_event(
          instant("handoff", "locks", kPidLocks, ev.line, ev.cycle, args));
      break;
    case EventKind::kTransferDone:
      locks_seen_.insert(ev.line);
      append_event(complete_span("transfer", "locks", kPidLocks, ev.line,
                                 ev.cycle - ev.b, ev.b, ""));
      break;
    case EventKind::kSpinInvalidated:
      std::snprintf(args, sizeof args, "\"line\":\"0x%08x\"", ev.line);
      append_event(instant("spin invalidated", "locks", kPidProcs,
                           static_cast<std::uint64_t>(ev.proc), ev.cycle,
                           args));
      break;
    case EventKind::kBusGrant: {
      bus_gauge_.add(ev.cycle, ev.b);
      if (ev.cycle + ev.b > last_cycle_) last_cycle_ = ev.cycle + ev.b;
      const auto kind = static_cast<bus::TxnKind>(ev.a & 0xff);
      std::snprintf(name, sizeof name, "%s%s", bus::txn_kind_name(kind),
                    (ev.a & 0x100) != 0 ? " resp" : "");
      std::snprintf(args, sizeof args, "\"proc\":%d,\"line\":\"0x%08x\"",
                    ev.proc, ev.line);
      append_event(
          complete_span(name, "bus", kPidBus, 0, ev.cycle, ev.b, args));
      break;
    }
    case EventKind::kBusComplete:
      std::snprintf(name, sizeof name, "%s 0x%08x",
                    bus::txn_kind_name(static_cast<bus::TxnKind>(ev.b)),
                    ev.line);
      std::snprintf(args, sizeof args, "\"line\":\"0x%08x\"", ev.line);
      append_event(complete_span(name, "bus", kPidProcs,
                                 static_cast<std::uint64_t>(ev.proc),
                                 ev.cycle - ev.a, ev.a, args));
      break;
    case EventKind::kMesiTransition:
      std::snprintf(
          name, sizeof name, "%s->%s",
          cache::state_name(static_cast<cache::LineState>(ev.a)),
          cache::state_name(static_cast<cache::LineState>(ev.b)));
      std::snprintf(args, sizeof args, "\"line\":\"0x%08x\"", ev.line);
      append_event(instant(name, "coherence", kPidProcs,
                           static_cast<std::uint64_t>(ev.proc), ev.cycle,
                           args));
      break;
    case EventKind::kBarrierArrive:
      std::snprintf(name, sizeof name, "barrier arrive p%d", ev.proc);
      std::snprintf(args, sizeof args,
                    "\"line\":\"0x%08x\",\"already_waiting\":%llu", ev.line,
                    static_cast<unsigned long long>(ev.a));
      append_event(
          instant(name, "barriers", kPidMachine, 0, ev.cycle, args));
      break;
    case EventKind::kBarrierRelease:
      std::snprintf(args, sizeof args,
                    "\"line\":\"0x%08x\",\"released\":%llu", ev.line,
                    static_cast<unsigned long long>(ev.a));
      append_event(instant("barrier release", "barriers", kPidMachine, 0,
                           ev.cycle, args));
      break;
  }
}

std::string ChromeTraceSink::finish() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const std::string label = json_escape(process_label_);
  char buf[256];
  const struct {
    int pid;
    const char* suffix;
  } kProcesses[] = {{kPidProcs, "processors"},
                    {kPidLocks, "locks"},
                    {kPidBus, "bus"},
                    {kPidMachine, "machine"}};
  for (const auto& p : kProcesses) {
    // The label is appended directly: it may be a trace-file path of any
    // length, too long for buf.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(p.pid) + ",\"args\":{\"name\":\"" + label + " " +
           p.suffix + "\"}},\n";
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"sort_index\":%d}},\n",
                  p.pid, p.pid);
    out += buf;
  }
  for (std::uint32_t p = 0; p < num_procs_; ++p) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%u,\"args\":{\"name\":\"proc %u\"}},\n",
                  kPidProcs, p, p);
    out += buf;
  }
  for (const std::uint32_t line : locks_seen_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}},\n",
                  kPidLocks, line, AddressMap::lock_label(line).c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                "\"args\":{\"name\":\"bus\"}},\n",
                kPidBus);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                "\"args\":{\"name\":\"machine\"}}",
                kPidMachine);
  out += buf;
  if (!body_.empty()) {
    out += ",\n";
    out += body_;
  }
  // Bus-busy counter series: one sample per gauge window, stamped at the
  // window's start cycle.  The gauge is copied so finish() stays const and
  // repeatable; finalize() clips the final tenure at the last event cycle.
  BusWindowGauge gauge = bus_gauge_;
  gauge.finalize(last_cycle_);
  for (std::size_t i = 0; i < gauge.windows().size(); ++i) {
    out += ",\n";
    out += counter_sample("bus busy cycles", "bus", kPidBus,
                          static_cast<std::uint64_t>(i) * gauge.window_cycles(),
                          "busy", gauge.windows()[i]);
  }
  out += "\n]}\n";
  return out;
}

std::string trace_out_path(const std::string& base, const std::string& label) {
  std::string clean;
  clean.reserve(label.size());
  for (const char c : label) {
    clean.push_back(c == '/' || c == ' ' ? '-' : c);
  }
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "." + clean;
  }
  return base.substr(0, dot) + "." + clean + base.substr(dot);
}

}  // namespace syncpat::obs
