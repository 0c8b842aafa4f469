#include "bus/service_discipline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace syncpat::bus {

StampOrder::StampOrder(std::uint32_t ports)
    : stamp_(ports, 0), held_(ports, 0) {
  sorted_.reserve(ports);
}

std::vector<StampOrder::Entry>::iterator StampOrder::position(
    std::uint64_t stamp, std::uint32_t port) {
  return std::lower_bound(sorted_.begin(), sorted_.end(), Entry{stamp, port},
                          before);
}

void StampOrder::set(std::uint32_t port, std::uint64_t stamp) {
  if (held_[port] != 0 && stamp_[port] == stamp) return;
  erase(port);
  held_[port] = 1;
  stamp_[port] = stamp;
  sorted_.insert(position(stamp, port), Entry{stamp, port});
}

void StampOrder::erase(std::uint32_t port) {
  if (held_[port] == 0) return;
  held_[port] = 0;
  sorted_.erase(position(stamp_[port], port));
}

void StampOrder::clear() {
  for (const Entry& e : sorted_) held_[e.port] = 0;
  sorted_.clear();
}

void StampOrder::load(const ArbRequest* req) {
  clear();
  for (std::uint32_t p = 0; p < held_.size(); ++p) {
    if (!req[p].present) continue;
    held_[p] = 1;
    stamp_[p] = req[p].stamp;
    sorted_.push_back(Entry{req[p].stamp, p});
  }
  // Entered in port order, so ordering by stamp alone and keeping ties in
  // place gives (stamp, port id) order.  This stable merge by one key times
  // faster than std::sort on the pair and than one sorted insertion per
  // port (EXPERIMENTS.md, "Cache line storage").
  std::stable_sort(sorted_.begin(), sorted_.end(),
                   [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
}

ServiceDiscipline::ServiceDiscipline(std::uint32_t ports, bool stamped)
    : ports_(ports),
      order_(stamped ? std::make_unique<StampOrder>(ports) : nullptr),
      all_ports_(util::bit_words(ports), 0),
      offered_(util::bit_words(ports), 0) {
  for (std::uint32_t p = 0; p < ports; ++p) util::set_bit(all_ports_.data(), p);
}

ServiceDiscipline::~ServiceDiscipline() = default;

const char* discipline_name(DisciplineKind kind) {
  switch (kind) {
    case DisciplineKind::kRoundRobin: return "round-robin";
    case DisciplineKind::kFixedPriority: return "fixed-priority";
    case DisciplineKind::kFcfs: return "fcfs";
  }
  return "?";
}

DisciplineKind discipline_from_name(const std::string& name) {
  if (name == "round-robin") return DisciplineKind::kRoundRobin;
  if (name == "fixed-priority") return DisciplineKind::kFixedPriority;
  if (name == "fcfs") return DisciplineKind::kFcfs;
  throw std::invalid_argument(
      "bus discipline expects \"round-robin\", \"fixed-priority\" or "
      "\"fcfs\", got \"" +
      name + "\"");
}

void ServiceDiscipline::scan_order(const ArbRequest* req, std::uint64_t now,
                                   std::uint32_t* out) {
  if (order_ != nullptr) order_->load(req);
  struct Collect {
    std::uint32_t* out;
    std::uint64_t* offered;
    std::uint32_t n;
  } collect{out, offered_.data(), 0};
  std::fill(offered_.begin(), offered_.end(), 0);
  rank(all_ports_.data(), now, kNoFreshCut,
       [](void* ctx, std::uint32_t port) {
         auto& c = *static_cast<Collect*>(ctx);
         c.out[c.n++] = port;
         util::set_bit(c.offered, port);
         return false;
       },
       &collect);
  for (std::uint32_t p = 0; collect.n < ports_; ++p) {
    if (!util::test_bit(offered_.data(), p)) out[collect.n++] = p;
  }
}

bool RoundRobinDiscipline::rank(const std::uint64_t* grantable,
                                std::uint64_t /*now*/, std::uint64_t /*fresh*/,
                                GrantFn grant, void* ctx) {
  const auto try_port = [&](std::uint32_t p) { return grant(ctx, p); };
  return util::visit_set_bits(grantable, next_, ports_, try_port) ||
         util::visit_set_bits(grantable, 0, next_, try_port);
}

bool FixedPriorityDiscipline::rank(const std::uint64_t* grantable,
                                   std::uint64_t now, std::uint64_t fresh,
                                   GrantFn grant, void* ctx) {
  // Memory responses drain first (they hold a line slot and block retries).
  const std::uint32_t memory = ports_ - 1;
  if (util::test_bit(grantable, memory) && grant(ctx, memory)) return true;
  // Aging escape: the oldest processor request in the order (the lower port
  // id on a stamp tie, as the id-order chain below would pick).  It ranks
  // every port with a request: an ungrantable oldest blocks nobody's
  // promotion, it is merely not offered.
  std::uint32_t promoted = ports_;
  order_->walk([&](std::uint32_t port, std::uint64_t stamp) {
    if (port == memory) return false;
    if (stamp < fresh && now - stamp >= kStarvationEscapeCycles) {
      promoted = port;  // bounded priority inversion: it jumps the chain
    }
    return true;
  });
  if (promoted != ports_ && util::test_bit(grantable, promoted) &&
      grant(ctx, promoted)) {
    return true;
  }
  return util::visit_set_bits(grantable, 0, memory, [&](std::uint32_t p) {
    return p != promoted && grant(ctx, p);
  });
}

bool FcfsDiscipline::rank(const std::uint64_t* grantable,
                          std::uint64_t /*now*/, std::uint64_t fresh,
                          GrantFn grant, void* ctx) {
  bool granted = false;
  order_->walk([&](std::uint32_t port, std::uint64_t stamp) {
    // Every later entry is at least as new: nothing further is eligible.
    if (stamp >= fresh) return true;
    granted = util::test_bit(grantable, port) && grant(ctx, port);
    return granted;
  });
  return granted;
}

std::unique_ptr<ServiceDiscipline> make_discipline(DisciplineKind kind,
                                                   std::uint32_t ports) {
  SYNCPAT_ASSERT(ports > 0);
  switch (kind) {
    case DisciplineKind::kRoundRobin:
      return std::make_unique<RoundRobinDiscipline>(ports);
    case DisciplineKind::kFixedPriority:
      return std::make_unique<FixedPriorityDiscipline>(ports);
    case DisciplineKind::kFcfs:
      return std::make_unique<FcfsDiscipline>(ports);
  }
  throw std::invalid_argument("unknown bus discipline kind");
}

}  // namespace syncpat::bus
