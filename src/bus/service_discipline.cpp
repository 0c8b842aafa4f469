#include "bus/service_discipline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace syncpat::bus {

ServiceDiscipline::ServiceDiscipline(std::uint32_t ports)
    : ports_(ports),
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
  struct Collect {
    std::uint32_t* out;
    std::uint64_t* offered;
    std::uint32_t n;
  } collect{out, offered_.data(), 0};
  std::fill(offered_.begin(), offered_.end(), 0);
  offer(all_ports_.data(), all_ports_.data(), req, now,
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

bool RoundRobinDiscipline::offer(const std::uint64_t* /*ready*/,
                                 const std::uint64_t* grantable,
                                 const ArbRequest* /*req*/,
                                 std::uint64_t /*now*/, GrantFn grant,
                                 void* ctx) {
  const auto try_port = [&](std::uint32_t p) { return grant(ctx, p); };
  return util::visit_set_bits(grantable, next_, ports_, try_port) ||
         util::visit_set_bits(grantable, 0, next_, try_port);
}

bool FixedPriorityDiscipline::offer(const std::uint64_t* ready,
                                    const std::uint64_t* grantable,
                                    const ArbRequest* req, std::uint64_t now,
                                    GrantFn grant, void* ctx) {
  SYNCPAT_ASSERT(req != nullptr);
  // Memory responses drain first (they hold a line slot and block retries).
  const std::uint32_t memory = ports_ - 1;
  if (util::test_bit(grantable, memory) && grant(ctx, memory)) return true;
  // Aging escape: find the oldest eligible processor request (stamp, port id
  // breaking ties — the id-order walk below never considers a later port
  // with an equal stamp first, so <, not <=, keeps the order deterministic).
  // It ranks every ready port: an ungrantable oldest blocks nobody's
  // promotion, it is merely not offered.
  std::uint32_t oldest = ports_;
  util::visit_set_bits(ready, 0, memory, [&](std::uint32_t p) {
    if (req[p].present &&
        (oldest == ports_ || req[p].stamp < req[oldest].stamp)) {
      oldest = p;
    }
    return false;
  });
  if (oldest != ports_ &&
      now - req[oldest].stamp >= kStarvationEscapeCycles) {
    // Bounded priority inversion: one starving request jumps the chain.
    if (util::test_bit(grantable, oldest) && grant(ctx, oldest)) return true;
  } else {
    oldest = ports_;  // nobody promoted; the pure static chain
  }
  return util::visit_set_bits(grantable, 0, memory, [&](std::uint32_t p) {
    return p != oldest && grant(ctx, p);
  });
}

bool FcfsDiscipline::offer(const std::uint64_t* /*ready*/,
                           const std::uint64_t* grantable,
                           const ArbRequest* req, std::uint64_t /*now*/,
                           GrantFn grant, void* ctx) {
  SYNCPAT_ASSERT(req != nullptr);
  order_.clear();
  util::visit_set_bits(grantable, 0, ports_, [&](std::uint32_t p) {
    if (req[p].present) order_.push_back(p);
    return false;
  });
  // A min-heap on (arrival stamp, port id), a total order: a round usually
  // grants one of its first few candidates, so pop them in order rather than
  // sorting them all.
  const auto later = [req](std::uint32_t a, std::uint32_t b) {
    return req[a].stamp != req[b].stamp ? req[a].stamp > req[b].stamp : a > b;
  };
  std::make_heap(order_.begin(), order_.end(), later);
  for (auto end = order_.end(); end != order_.begin(); --end) {
    std::pop_heap(order_.begin(), end, later);
    if (grant(ctx, *(end - 1))) return true;
  }
  return false;
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
