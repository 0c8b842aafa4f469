#include "report/per_lock.hpp"

#include <algorithm>
#include <vector>

#include "trace/address_map.hpp"
#include "util/format.hpp"

namespace syncpat::report {

Table per_lock_table(const sync::LockRecords& records, std::size_t max_rows) {
  std::vector<std::pair<std::uint32_t, const sync::LockAggregate*>> locks;
  locks.reserve(records.size());
  for (const auto& [line, agg] : records) {
    locks.emplace_back(line, &agg);
  }
  std::sort(locks.begin(), locks.end(), [](const auto& a, const auto& b) {
    if (a.second->acquisitions != b.second->acquisitions) {
      return a.second->acquisitions > b.second->acquisitions;
    }
    return a.first < b.first;
  });

  Table t("Per-lock contention (top " + std::to_string(max_rows) +
          " by acquisitions)");
  t.columns({"Lock", "Acqs", "Transfers", "Waiters", "Held", "Transfer(cy)"});
  for (std::size_t i = 0; i < locks.size() && i < max_rows; ++i) {
    const auto& [line, agg] = locks[i];
    t.add_row({trace::AddressMap::lock_label(line),
               util::with_commas(agg->acquisitions),
               util::with_commas(agg->transfers),
               util::fixed(agg->waiters_at_transfer.mean(), 2),
               util::fixed(agg->hold_cycles.mean(), 0),
               util::fixed(agg->transfer_cycles.mean(), 1)});
  }
  if (locks.size() > max_rows) {
    t.note(std::to_string(locks.size() - max_rows) + " more locks omitted");
  }
  return t;
}

}  // namespace syncpat::report
