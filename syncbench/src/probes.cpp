#include "probes.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/event_queue.hpp"
#include "util/rng.hpp"

namespace syncbench {

using namespace syncpat;

namespace {

constexpr int kBatches = 5;
// Calls per batch: enough for ~10-30 ms per batch at the measured costs.
constexpr std::uint64_t kCallsPerBatch = 1u << 21;
// Fresh cache allocations per size.  Where P caches' line arrays land in
// memory decides how their same-set lines collide in the host's caches: at
// P = 1024 one layout costs ~15-20 ns per snoop miss and another ~40 ns, so
// one allocation is a coin toss.  The cache probes pool their batches over
// several layouts.
constexpr int kCacheLayouts = 3;

/// Keeps probe results observable so the loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

/// Appends kBatches timings of `batch` (which returns its call count), in ns
/// per call.
template <typename Batch>
void time_batches(std::vector<double>& per_call, Batch&& batch) {
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t calls = batch();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename Batch>
double median_ns_per_call(Batch&& batch) {
  std::vector<double> per_call;
  time_batches(per_call, batch);
  return median(std::move(per_call));
}

std::vector<std::uint32_t> random_values(std::size_t n, std::uint32_t bound,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t& v : out) {
    v = static_cast<std::uint32_t>(rng.next_u64() % bound);
  }
  return out;
}

/// P default-geometry caches with every way filled (Shared), so a probe sees
/// the line arrays of a machine in steady state.
std::vector<cache::Cache> warmed_caches(std::uint32_t procs) {
  const cache::CacheConfig cfg;
  std::vector<cache::Cache> caches(procs, cache::Cache(cfg));
  const std::uint32_t sets = cfg.num_sets();
  for (cache::Cache& c : caches) {
    for (std::uint32_t way = 0; way < cfg.associativity; ++way) {
      for (std::uint32_t set = 0; set < sets; ++set) {
        const std::uint32_t line = (way * sets + set) * cfg.line_bytes;
        (void)c.allocate(line);
        c.fill(line, cache::LineState::kShared);
      }
    }
  }
  return caches;
}

void probe_caches(std::size_t idx, UnitCosts& out, SpanRecorder& spans) {
  const std::uint32_t procs = kProbeProcs[idx];
  const std::string suffix = ".p" + std::to_string(procs);
  const cache::CacheConfig cfg;
  const std::uint32_t sets = cfg.num_sets();
  const std::vector<std::uint32_t> set_of = random_values(4096, sets, 0xcace);
  std::vector<double> snoop_ns, access_ns;
  for (int layout = 0; layout < kCacheLayouts; ++layout) {
    std::vector<cache::Cache> caches = warmed_caches(procs);
    {
      // Lines above every filled tag: present in no cache, like almost every
      // probe of a broadcast snoop at large P.
      SpanRecorder::Scope span(spans, "cache.probe.snoop_miss" + suffix);
      const std::uint32_t miss_base = cfg.associativity * sets * cfg.line_bytes;
      const std::uint64_t txns = std::max<std::uint64_t>(1, kCallsPerBatch / procs);
      time_batches(snoop_ns, [&] {
        std::uint64_t hits = 0;
        for (std::uint64_t t = 0; t < txns; ++t) {
          const std::uint32_t line =
              miss_base + set_of[t % set_of.size()] * cfg.line_bytes;
          for (cache::Cache& c : caches) hits += c.snoop(line, false).had_line;
        }
        g_sink = g_sink + hits;
        return txns * procs;
      });
    }
    {
      SpanRecorder::Scope span(spans, "cache.probe.access" + suffix);
      time_batches(access_ns, [&] {
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < kCallsPerBatch; ++i) {
          const std::uint32_t set = set_of[i % set_of.size()];
          const std::uint32_t way = static_cast<std::uint32_t>(i >> 12) & 1u;
          hits += caches[i % procs]
                      .access((way * sets + set) * cfg.line_bytes,
                              cache::AccessClass::kRead)
                      .hit;
        }
        g_sink = g_sink + hits;
        return kCallsPerBatch;
      });
    }
  }
  out.snoop_miss_ns[idx] = median(std::move(snoop_ns));
  out.access_ns[idx] = median(std::move(access_ns));
}

void probe_scan_order(std::size_t idx, UnitCosts& out, SpanRecorder& spans) {
  const std::uint32_t ports = kProbeProcs[idx] + 1;
  // A quarter of the ports hold a request, stamped within the last 64 cycles.
  const std::vector<std::uint32_t> draw = random_values(ports, 256, 0xa4b);
  std::vector<bus::ArbRequest> req(ports);
  const std::uint64_t now = 1u << 20;
  for (std::uint32_t p = 0; p < ports; ++p) {
    req[p] = bus::ArbRequest{draw[p] < 64, now - draw[p]};
  }
  std::vector<std::uint32_t> order(ports);
  const std::uint64_t calls = std::max<std::uint64_t>(1, kCallsPerBatch / ports);
  for (std::size_t k = 0; k < bus::kNumDisciplines; ++k) {
    const auto kind = static_cast<bus::DisciplineKind>(k);
    SpanRecorder::Scope span(spans, std::string("bus.probe.scan_order.") +
                                        bus::discipline_name(kind) + ".p" +
                                        std::to_string(kProbeProcs[idx]));
    const auto discipline = bus::make_discipline(kind, ports);
    out.scan_order_ns[k][idx] = median_ns_per_call([&] {
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < calls; ++i) {
        discipline->scan_order(req.data(), now + i, order.data());
        acc += order[0];
      }
      g_sink = g_sink + acc;
      return calls;
    });
  }
}

void probe_event_queue(std::size_t idx, UnitCosts& out, SpanRecorder& spans) {
  const std::uint32_t sources = kProbeProcs[idx];
  SpanRecorder::Scope span(spans,
                           "core.probe.event_queue.p" + std::to_string(sources));
  const std::vector<std::uint32_t> delta = random_values(4096, 8, 0xe0e);
  const std::uint32_t words = (sources + 63) / 64;
  std::vector<std::uint64_t> due(words);
  out.event_queue_op_ns[idx] = median_ns_per_call([&] {
    core::EventQueue queue(sources);
    std::uint64_t cycle = 1;
    std::uint64_t ops = 0;
    for (std::uint32_t s = 0; s < sources; ++s) {
      queue.schedule(s, cycle + 1 + delta[s % delta.size()]);
    }
    // Each popped source re-schedules itself a few cycles ahead, the
    // simulator's pattern for processors that keep issuing.
    while (ops < kCallsPerBatch / 4) {
      ++cycle;
      std::fill(due.begin(), due.end(), 0);
      queue.take_due(cycle, due.data());
      queue.set_floor(cycle + 1);
      for (std::uint32_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = due[w]; bits != 0; bits &= bits - 1) {
          const std::uint32_t s =
              w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits));
          queue.schedule(s, cycle + 1 + delta[(ops + s) % delta.size()]);
          ++ops;
        }
      }
    }
    return ops;
  });
}

}  // namespace

UnitCosts measure_unit_costs(SpanRecorder& spans) {
  UnitCosts out;
  for (std::size_t idx = 0; idx < kProbeProcs.size(); ++idx) {
    probe_caches(idx, out, spans);
    probe_scan_order(idx, out, spans);
    probe_event_queue(idx, out, spans);
  }
  return out;
}

}  // namespace syncbench
