#include "report/lock_timeline.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "trace/address_map.hpp"
#include "util/format.hpp"
#include "util/histogram.hpp"
#include "util/running_stat.hpp"

namespace syncpat::report {

namespace {

struct Window {
  std::uint64_t handoffs = 0;
  util::RunningStat waiters;
  util::Histogram latency;
};

void add_rows(Table& t, const std::string& label, const std::string& phase,
              const Window& w) {
  t.add_row({label, phase, util::with_commas(w.handoffs),
             w.latency.count() > 0 ? util::fixed(w.latency.mean(), 1) : "-",
             w.latency.count() > 0
                 ? util::with_commas(w.latency.quantile(0.5))
                 : "-",
             w.latency.count() > 0
                 ? util::with_commas(w.latency.quantile(0.95))
                 : "-",
             w.handoffs > 0 ? util::fixed(w.waiters.mean(), 2) : "-"});
}

}  // namespace

Table lock_timeline_table(const obs::LockTimeline& timeline,
                          std::size_t max_locks, std::size_t phases) {
  if (phases == 0) phases = 1;
  std::vector<std::pair<std::uint32_t, const obs::LockTimeline::PerLock*>>
      locks;
  locks.reserve(timeline.locks.size());
  for (const auto& [line, lock] : timeline.locks) {
    locks.emplace_back(line, &lock);
  }
  std::sort(locks.begin(), locks.end(), [](const auto& a, const auto& b) {
    if (a.second->handoffs != b.second->handoffs) {
      return a.second->handoffs > b.second->handoffs;
    }
    return a.first < b.first;
  });

  Table t("Lock hand-off timeline (" + std::to_string(phases) +
          " phase windows over " + util::with_commas(timeline.run_cycles) +
          " cycles)");
  t.columns({"Lock", "Phase", "Hand-offs", "Xfer mean", "Xfer p50", "Xfer p95",
             "Waiters"});
  const std::uint64_t window =
      std::max<std::uint64_t>(1, timeline.run_cycles / phases + 1);
  for (std::size_t i = 0; i < locks.size() && i < max_locks; ++i) {
    const auto& [line, lock] = locks[i];
    Window all;
    std::vector<Window> windows(phases);
    all.handoffs = lock->handoffs;
    for (const obs::LockTimeline::Transfer& xfer : lock->transfers) {
      const std::size_t w =
          std::min<std::size_t>(phases - 1, xfer.release_cycle / window);
      ++windows[w].handoffs;
      windows[w].waiters.add(static_cast<double>(xfer.waiters_left));
      all.waiters.add(static_cast<double>(xfer.waiters_left));
      if (xfer.latency_known) {
        windows[w].latency.add(xfer.latency);
        all.latency.add(xfer.latency);
      }
    }
    add_rows(t, trace::AddressMap::lock_label(line), "all", all);
    for (std::size_t w = 0; w < phases; ++w) {
      add_rows(t, "",
               std::to_string(w + 1) + "/" + std::to_string(phases),
               windows[w]);
    }
  }
  if (locks.size() > max_locks) {
    t.note(std::to_string(locks.size() - max_locks) + " more locks omitted");
  }
  t.note("transfer latency in cycles (release -> next acquire); phases are "
         "equal windows of the run");
  return t;
}

}  // namespace syncpat::report
