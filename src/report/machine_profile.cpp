#include "report/machine_profile.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "util/format.hpp"

namespace syncpat::report {
namespace {

std::string pct_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return util::percent(static_cast<double>(part) / static_cast<double>(whole),
                       1);
}

std::string hex_line(std::uint32_t line) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", line);
  return buf;
}

}  // namespace

Table machine_profile_cycles(const obs::MetricsRegistry& m,
                             const obs::MetricsMeta& meta) {
  Table t("Machine profile: cycle attribution (" + meta.program + ", " +
          meta.scheme + ", " + meta.consistency + ")");
  std::vector<std::string> headers = {"Proc", "Cycles"};
  for (std::size_t c = 0; c < obs::kNumStallCats; ++c) {
    headers.push_back(obs::stall_cat_name(static_cast<obs::StallCat>(c)));
  }
  t.columns(std::move(headers));

  obs::ProcAttribution totals;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    const obs::ProcAttribution& a = m.ledger(p);
    std::vector<std::string> row = {std::to_string(p),
                                    util::with_commas(a.total())};
    for (std::size_t c = 0; c < obs::kNumStallCats; ++c) {
      row.push_back(pct_of(a.cycles[c], a.total()));
      totals.cycles[c] += a.cycles[c];
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> row = {"all", util::with_commas(totals.total())};
  for (std::size_t c = 0; c < obs::kNumStallCats; ++c) {
    row.push_back(pct_of(totals.cycles[c], totals.total()));
  }
  t.add_row(std::move(row));
  t.note("percent of each processor's completion cycle; rows sum to 100%");
  return t;
}

Table machine_profile_locks(const obs::MetricsRegistry& m) {
  Table t("Machine profile: per-lock contention");
  t.columns({"Lock line", "Acqs", "Transfers", "Waiters mean", "Hold mean",
             "Hold p90", "Hand-off mean"});
  for (const auto& [line, lm] : m.locks()) {
    t.add_row({hex_line(line), util::with_commas(lm.acquisitions),
               util::with_commas(lm.transfers),
               util::fixed(lm.waiters_at_acquire.mean(), 2),
               util::fixed(lm.hold_hist.mean(), 1),
               util::with_commas(lm.hold_hist.quantile(0.9)),
               util::fixed(lm.transfer_hist.mean(), 1)});
  }
  t.note("hold = acquire to release issue; hand-off = release to next owner");
  return t;
}

Table machine_profile_bus(const obs::MetricsRegistry& m,
                          const obs::MetricsMeta& meta) {
  const obs::BusWindowGauge& bus = m.bus();
  Table t("Machine profile: bus utilization (window = " +
          util::with_commas(std::uint64_t{bus.window_cycles()}) + " cycles)");
  t.columns({"Window", "Start cycle", "Busy", "Util %"});

  const std::vector<std::uint64_t>& w = bus.windows();
  // The busiest windows tell the contention story; cap the table at the top
  // eight so long runs stay readable (the full series is in --metrics-out).
  std::vector<std::size_t> order(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&w](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  const std::size_t shown = std::min<std::size_t>(order.size(), 8);
  for (std::size_t k = 0; k < shown; ++k) {
    const std::size_t i = order[k];
    const std::uint64_t lo = i * std::uint64_t{bus.window_cycles()};
    t.add_row({std::to_string(i),
               util::with_commas(lo) + "..",
               util::with_commas(w[i]), util::percent(bus.utilization(i), 1)});
  }
  const double overall =
      meta.run_time > 0 ? static_cast<double>(bus.total_busy()) /
                              static_cast<double>(meta.run_time)
                        : 0.0;
  t.note("top " + std::to_string(shown) + " of " + std::to_string(w.size()) +
         " windows by busy cycles; overall utilization " +
         util::percent(overall, 1));
  return t;
}

}  // namespace syncpat::report
