#include "obs/chrome_trace.hpp"

#include <string_view>

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

// Room reserved per event object, separator included: its fixed fragments,
// integers and hex line address take at most 184 bytes (a barrier arrival).
// Names of outside length (lock labels, transaction and MESI state names)
// are reserved on top.
constexpr std::size_t kEventBytes = 256;

/// Starts an event object in `buf`: the separator unless it is the first,
/// then the opening of its name, which the caller writes next.
JsonCursor open_event(JsonBuffer& buf, std::size_t name_bytes) {
  const bool first = buf.empty();
  JsonCursor c = buf.reserve(kEventBytes + name_bytes);
  if (!first) c.put(",\n");
  c.put("{\"name\":\"");
  return c;
}

/// Closes the name, then a complete span's fields up to its args.
void span_fields(JsonCursor& c, std::string_view cat, int pid,
                 std::uint64_t tid, std::uint64_t ts, std::uint64_t dur) {
  c.put("\",\"cat\":\"").put(cat).put("\",\"ph\":\"X\",\"ts\":").num(ts);
  c.put(",\"dur\":").num(dur).put(",\"pid\":").num(pid);
  c.put(",\"tid\":").num(tid).put(",\"args\":{");
}

/// Closes the name, then an instant's fields up to its args.
void instant_fields(JsonCursor& c, std::string_view cat, int pid,
                    std::uint64_t tid, std::uint64_t ts) {
  c.put("\",\"cat\":\"").put(cat).put("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
  c.num(ts).put(",\"pid\":").num(pid).put(",\"tid\":").num(tid);
  c.put(",\"args\":{");
}

/// Closes the name, then a counter sample's fields up to its args.
void counter_fields(JsonCursor& c, std::string_view cat, int pid,
                    std::uint64_t ts) {
  c.put("\",\"cat\":\"").put(cat).put("\",\"ph\":\"C\",\"ts\":").num(ts);
  c.put(",\"pid\":").num(pid).put(",\"args\":{");
}

/// Closes the args and the object, and keeps what was written.
void close_event(JsonBuffer& buf, JsonCursor& c) {
  c.put("}}");
  buf.commit(c);
}

void line_arg(JsonCursor& c, std::uint32_t line) {
  c.put("\"line\":\"").hex8(line).put("\"");
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::string process_label,
                                 std::uint32_t num_procs)
    : process_label_(std::move(process_label)),
      num_procs_(num_procs),
      bus_gauge_(MetricsConfig{}.bus_window_cycles) {}

ChromeTraceSink::LockTrack& ChromeTraceSink::track(std::uint32_t line) {
  const auto [it, inserted] = locks_.try_emplace(line);
  if (inserted) it->second.label = AddressMap::lock_label(line);
  return it->second;
}

void ChromeTraceSink::close_hold(std::uint32_t line, LockTrack& lock,
                                 std::uint64_t now) {
  if (!lock.hold) return;
  const OpenHold hold = *lock.hold;
  JsonCursor c = open_event(body_, 0);
  c.put("held by p").num(hold.proc);
  span_fields(c, "locks", kPidLocks, line, hold.since, now - hold.since);
  c.put("\"proc\":").num(hold.proc);
  close_event(body_, c);
  lock.hold.reset();
}

void ChromeTraceSink::waiter_sample(const LockTrack& lock,
                                    std::uint64_t cycle) {
  JsonCursor c = open_event(body_, lock.label.size());
  c.put("waiters ").put(lock.label);
  counter_fields(c, "locks", kPidLocks, cycle);
  c.put("\"waiters\":").num(lock.waiters);
  close_event(body_, c);
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  if (ev.cycle > last_cycle_) last_cycle_ = ev.cycle;
  switch (ev.kind) {
    case EventKind::kAcquireBegin: {
      wait_open_[ev.proc] = ev.cycle;
      LockTrack& lock = track(ev.line);
      ++lock.waiters;
      waiter_sample(lock, ev.cycle);
      break;
    }
    case EventKind::kAcquired: {
      LockTrack& lock = track(ev.line);
      if (const auto it = wait_open_.find(ev.proc); it != wait_open_.end()) {
        JsonCursor c = open_event(body_, lock.label.size());
        c.put("wait ").put(lock.label);
        span_fields(c, "locks", kPidProcs, static_cast<std::uint64_t>(ev.proc), it->second,
                    ev.cycle - it->second);
        line_arg(c, ev.line);
        close_event(body_, c);
        wait_open_.erase(it);
      }
      lock.hold = OpenHold{ev.cycle, ev.proc};
      if (lock.waiters > 0) {
        --lock.waiters;
        waiter_sample(lock, ev.cycle);
      }
      break;
    }
    case EventKind::kReleaseBegin:
    case EventKind::kReleased:
      close_hold(ev.line, track(ev.line), ev.cycle);
      break;
    case EventKind::kHandoff: {
      close_hold(ev.line, track(ev.line), ev.cycle);
      JsonCursor c = open_event(body_, 0);
      c.put("handoff");
      instant_fields(c, "locks", kPidLocks, ev.line, ev.cycle);
      c.put("\"waiters_left\":").num(ev.a);
      close_event(body_, c);
      break;
    }
    case EventKind::kTransferDone: {
      track(ev.line);  // the lock gets its thread track
      JsonCursor c = open_event(body_, 0);
      c.put("transfer");
      span_fields(c, "locks", kPidLocks, ev.line, ev.cycle - ev.b, ev.b);
      close_event(body_, c);
      break;
    }
    case EventKind::kSpinInvalidated: {
      JsonCursor c = open_event(body_, 0);
      c.put("spin invalidated");
      instant_fields(c, "locks", kPidProcs, static_cast<std::uint64_t>(ev.proc), ev.cycle);
      line_arg(c, ev.line);
      close_event(body_, c);
      break;
    }
    case EventKind::kBusGrant: {
      bus_gauge_.add(ev.cycle, ev.b);
      if (ev.cycle + ev.b > last_cycle_) last_cycle_ = ev.cycle + ev.b;
      const std::string_view kind =
          bus::txn_kind_name(static_cast<bus::TxnKind>(ev.a & 0xff));
      JsonCursor c = open_event(body_, kind.size());
      c.put(kind);
      if ((ev.a & 0x100) != 0) c.put(" resp");
      span_fields(c, "bus", kPidBus, 0, ev.cycle, ev.b);
      c.put("\"proc\":").num(ev.proc).put(",");
      line_arg(c, ev.line);
      close_event(body_, c);
      break;
    }
    case EventKind::kBusComplete: {
      const std::string_view kind =
          bus::txn_kind_name(static_cast<bus::TxnKind>(ev.b));
      JsonCursor c = open_event(body_, kind.size());
      c.put(kind).put(" ").hex8(ev.line);
      span_fields(c, "bus", kPidProcs, static_cast<std::uint64_t>(ev.proc), ev.cycle - ev.a,
                  ev.a);
      line_arg(c, ev.line);
      close_event(body_, c);
      break;
    }
    case EventKind::kMesiTransition: {
      const std::string_view from =
          cache::state_name(static_cast<cache::LineState>(ev.a));
      const std::string_view to =
          cache::state_name(static_cast<cache::LineState>(ev.b));
      JsonCursor c = open_event(body_, from.size() + to.size());
      c.put(from).put("->").put(to);
      instant_fields(c, "coherence", kPidProcs, static_cast<std::uint64_t>(ev.proc), ev.cycle);
      line_arg(c, ev.line);
      close_event(body_, c);
      break;
    }
    case EventKind::kBarrierArrive: {
      JsonCursor c = open_event(body_, 0);
      c.put("barrier arrive p").num(ev.proc);
      instant_fields(c, "barriers", kPidMachine, 0, ev.cycle);
      line_arg(c, ev.line);
      c.put(",\"already_waiting\":").num(ev.a);
      close_event(body_, c);
      break;
    }
    case EventKind::kBarrierRelease: {
      JsonCursor c = open_event(body_, 0);
      c.put("barrier release");
      instant_fields(c, "barriers", kPidMachine, 0, ev.cycle);
      line_arg(c, ev.line);
      c.put(",\"released\":").num(ev.a);
      close_event(body_, c);
      break;
    }
  }
}

std::string ChromeTraceSink::finish() const {
  // The document is the track metadata, the event body, then the bus-busy
  // counter series; head and tail are written first so that the document is
  // allocated once.
  const std::string label = json_escape(process_label_);
  JsonBuffer head;
  JsonCursor c = head.reserve(64);
  c.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  head.commit(c);
  const struct {
    int pid;
    std::string_view suffix;
  } kProcesses[] = {{kPidProcs, "processors"},
                    {kPidLocks, "locks"},
                    {kPidBus, "bus"},
                    {kPidMachine, "machine"}};
  for (const auto& p : kProcesses) {
    c = head.reserve(2 * kEventBytes + label.size());
    c.put("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":").num(p.pid);
    c.put(",\"args\":{\"name\":\"").put(label).put(" ").put(p.suffix);
    c.put("\"}},\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":");
    c.num(p.pid).put(",\"args\":{\"sort_index\":").num(p.pid).put("}},\n");
    head.commit(c);
  }
  // Opens a thread_name record; the caller writes the name and closes it.
  const auto thread_name = [&head](int pid, std::uint64_t tid,
                                   std::size_t name_bytes) {
    JsonCursor t = head.reserve(kEventBytes + name_bytes);
    t.put("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(pid);
    t.put(",\"tid\":").num(tid).put(",\"args\":{\"name\":\"");
    return t;
  };
  for (std::uint32_t p = 0; p < num_procs_; ++p) {
    c = thread_name(kPidProcs, p, 0);
    c.put("proc ").num(p).put("\"}},\n");
    head.commit(c);
  }
  for (const auto& [line, lock] : locks_) {
    c = thread_name(kPidLocks, line, lock.label.size());
    c.put(lock.label).put("\"}},\n");
    head.commit(c);
  }
  c = thread_name(kPidBus, 0, 0);
  c.put("bus\"}},\n");
  head.commit(c);
  c = thread_name(kPidMachine, 0, 0);
  c.put("machine\"}}");
  head.commit(c);

  // Bus-busy counter series: one sample per gauge window, stamped at the
  // window's start cycle.  The gauge is copied so finish() stays const and
  // repeatable; finalize() clips the final tenure at the last event cycle.
  BusWindowGauge gauge = bus_gauge_;
  gauge.finalize(last_cycle_);
  JsonBuffer tail;
  for (std::size_t i = 0; i < gauge.windows().size(); ++i) {
    c = tail.reserve(kEventBytes);
    c.put(",\n{\"name\":\"bus busy cycles");
    counter_fields(c, "bus", kPidBus,
                   static_cast<std::uint64_t>(i) * gauge.window_cycles());
    c.put("\"busy\":").num(gauge.windows()[i]);
    close_event(tail, c);
  }
  c = tail.reserve(8);
  c.put("\n]}\n");
  tail.commit(c);

  std::string out;
  out.reserve(head.size() + 2 + body_.size() + tail.size());
  head.append_to(out);
  if (!body_.empty()) {
    out += ",\n";
    body_.append_to(out);
  }
  tail.append_to(out);
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
