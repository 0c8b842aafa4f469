// Pluggable bus service disciplines (Nikolov & Lerato: comparison of
// service disciplines for a shared-bus multiprocessor).
//
// The Bus object owns occupancy and statistics; *who* wins arbitration when
// several ports want the bus is a policy.  This seam extracts the historical
// hardwired round-robin scan into a ServiceDiscipline the simulator consults
// each arbitration round:
//
//   * round-robin (default): the scan restarts one past the last grant —
//     byte-identical to the pre-seam behavior, which the golden tables and
//     the engine-differential suite pin;
//   * fixed-priority: memory responses first, then processors in id order —
//     the static-priority daisy chain; low ids starve high ids on short
//     horizons (the fairness tests demonstrate the skew), but a bounded
//     aging escape promotes the oldest waiter past the chain so no request
//     is deferred forever;
//   * fcfs: the globally oldest queued request wins (first-come first-served
//     / queued discipline), using each head transaction's bus-queue arrival
//     stamp.
//
// Each discipline has one ordering policy, offer(): it hands the grantable
// ports to the arbiter in priority order until one is granted, so an
// unserviceable high-priority port (line in flight, memory input full) never
// deadlocks the bus.  The two stamp-aware disciplines rank by a StampOrder
// that the arbiter keeps between rounds: the ports holding a request, by
// (head request's stamp, port id), updated only when a port's head changes.
// An FCFS round therefore walks the order from its oldest entry, passing
// the ports it may not offer, and stops at the first grant (on a saturated
// bus about one offer per round); the fixed-priority aging escape reads the
// oldest processor entry.  No round reads a port's interface to rank it, and
// round-robin keeps no order.  Which ports could be granted at all this
// round is simulator bookkeeping; the modeled arbiter still sees every port,
// and a port that cannot be granted never wins.  scan_order() is the
// full-permutation view of the same policy (every port grantable, the order
// loaded from an array).  Grant bookkeeping (rotation, wait statistics) goes
// through record_grant().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/running_stat.hpp"

namespace syncpat::bus {

enum class DisciplineKind : std::uint8_t { kRoundRobin, kFixedPriority, kFcfs };

inline constexpr std::size_t kNumDisciplines = 3;

[[nodiscard]] const char* discipline_name(DisciplineKind kind);
/// Strict: accepts exactly "round-robin", "fixed-priority" or "fcfs";
/// anything else throws std::invalid_argument naming the offending text.
[[nodiscard]] DisciplineKind discipline_from_name(const std::string& name);

/// One port's request as scan_order() reads it.
struct ArbRequest {
  bool present = false;     // a request waits at this port
  std::uint64_t stamp = 0;  // cycle it reached the bus queue (issued_cycle)
};

/// The ports that hold a request, in ascending (stamp, port id) order: a
/// sorted array reserved once.  set() and erase() binary-search the port's
/// entry and shift the entries behind it, so a head change never allocates,
/// and walk() reads the array front to back, so a round pays one compare for
/// each entry it passes.  An FCFS round passes about 200 ungrantable ports
/// while memory's input buffer is full, which is why this is not a binary
/// heap: walking a heap in order costs a frontier push and pop per entry.
class StampOrder {
 public:
  explicit StampOrder(std::uint32_t ports);

  /// `port`'s head request carries `stamp`; enters the port if absent.
  void set(std::uint32_t port, std::uint64_t stamp);
  /// `port` holds no request any more; a no-op if absent.
  void erase(std::uint32_t port);
  void clear();
  /// Replaces the order with the present requests of `req` (one entry per
  /// port), sorted once.
  void load(const ArbRequest* req);
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// Calls visit(port, stamp) in ascending (stamp, port id) order until it
  /// returns true, and returns whether it did.  The order must not change
  /// during the walk, except in the visit that ends it.
  template <typename Visit>
  bool walk(Visit&& visit) const {
    for (const Entry& e : sorted_) {
      if (visit(e.port, e.stamp)) return true;
    }
    return false;
  }

 private:
  struct Entry {
    std::uint64_t stamp;
    std::uint32_t port;
  };
  /// Ascending (stamp, port id).
  static bool before(const Entry& a, const Entry& b) {
    return a.stamp != b.stamp ? a.stamp < b.stamp : a.port < b.port;
  }
  /// Where the entry (stamp, port) sits, or would be inserted.
  [[nodiscard]] std::vector<Entry>::iterator position(std::uint64_t stamp,
                                                      std::uint32_t port);

  std::vector<Entry> sorted_;         // ascending; capacity `ports`
  std::vector<std::uint64_t> stamp_;  // per port: its entry's stamp, if held
  std::vector<std::uint8_t> held_;    // per port: 1 while it has an entry
};

/// Per-run grant bookkeeping, reported per discipline in SimulationResult.
struct DisciplineStats {
  std::uint64_t grants = 0;         // processor-side request grants
  std::uint64_t memory_grants = 0;  // memory response grants
  std::uint64_t max_grant_wait = 0; // worst queued-to-granted wait (cycles)
  util::RunningStat grant_wait;     // queued-to-granted wait per grant
};

class ServiceDiscipline {
 public:
  virtual ~ServiceDiscipline();

  ServiceDiscipline(const ServiceDiscipline&) = delete;
  ServiceDiscipline& operator=(const ServiceDiscipline&) = delete;

  /// Called as grant(ctx, port) for each port offered; true ends the round.
  using GrantFn = bool (*)(void* ctx, std::uint32_t port);

  /// One arbitration round: offers the ports in `grantable` (a bitmask over
  /// [0, ports), util/bits.hpp layout; port ports-1 is the memory response
  /// port; only ports with a request) to `grant` in priority order until it
  /// returns true, and returns whether it did.  `now` is the current bus
  /// cycle: a request stamped `now` is not yet eligible, and fixed-priority
  /// ages requests against it.  The stamp-aware disciplines rank by
  /// stamp_order(), which must hold exactly the ports with a request.
  bool offer(const std::uint64_t* grantable, std::uint64_t now, GrantFn grant,
             void* ctx) {
    return rank(grantable, now, now, grant, ctx);
  }

  /// Writes a permutation of [0, ports) into `out`, highest grant priority
  /// first: the order offer() visits with every port grantable and exactly
  /// the `present` ports holding a request, whatever their stamp, followed
  /// by any port it does not offer (FCFS's requestless ones) in id order.
  /// `req` has one entry per port and may be null when stamp_order() is
  /// null; the stamp-aware disciplines load it into their order, replacing
  /// what the order held.
  void scan_order(const ArbRequest* req, std::uint64_t now,
                  std::uint32_t* out);

  /// The order a stamp-aware discipline ranks by; null for round-robin.
  /// The arbiter keeps it between rounds: set() when a port's head request
  /// changes, erase() when the port empties.
  [[nodiscard]] StampOrder* stamp_order() { return order_.get(); }

  /// Records that `port` won arbitration for a request that waited
  /// `wait_cycles` since reaching the bus queue.  Rotates stateful
  /// disciplines and feeds the wait statistics.
  void record_grant(std::uint32_t port, std::uint64_t wait_cycles,
                    bool memory_response) {
    memory_response ? ++stats_.memory_grants : ++stats_.grants;
    stats_.grant_wait.add(static_cast<double>(wait_cycles));
    if (wait_cycles > stats_.max_grant_wait) stats_.max_grant_wait = wait_cycles;
    on_granted(port);
  }

  [[nodiscard]] virtual DisciplineKind kind() const = 0;
  [[nodiscard]] const char* name() const { return discipline_name(kind()); }
  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] const DisciplineStats& stats() const { return stats_; }

 protected:
  /// `stamped`: the discipline ranks by request stamp and keeps an order.
  ServiceDiscipline(std::uint32_t ports, bool stamped);

  /// The policy behind offer() and scan_order(): requests stamped at or
  /// after `fresh` are not eligible (offer() passes `now`; scan_order()
  /// passes kNoFreshCut, so every present request ranks).
  virtual bool rank(const std::uint64_t* grantable, std::uint64_t now,
                    std::uint64_t fresh, GrantFn grant, void* ctx) = 0;
  virtual void on_granted(std::uint32_t /*port*/) {}

  static constexpr std::uint64_t kNoFreshCut = ~std::uint64_t{0};
  std::uint32_t ports_;
  std::unique_ptr<StampOrder> order_;  // null unless stamped

 private:
  DisciplineStats stats_;
  // scan_order() scratch: every port set, and the ports offer() visited.
  std::vector<std::uint64_t> all_ports_;
  std::vector<std::uint64_t> offered_;
};

/// The historical policy: scan starts one past the last granted port.
class RoundRobinDiscipline final : public ServiceDiscipline {
 public:
  explicit RoundRobinDiscipline(std::uint32_t ports)
      : ServiceDiscipline(ports, /*stamped=*/false) {}
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kRoundRobin;
  }
  /// The port the rotation considers `offset` places after the last grant
  /// (exposed for the rotation unit tests).
  [[nodiscard]] std::uint32_t peek(std::uint32_t offset) const {
    return (next_ + offset) % ports_;
  }

 protected:
  /// Grantable ports from one past the last grant, wrapping around (the
  /// memory port takes its turn in its cyclic slot).
  bool rank(const std::uint64_t* grantable, std::uint64_t now,
            std::uint64_t fresh, GrantFn grant, void* ctx) override;
  void on_granted(std::uint32_t port) override {
    next_ = (port + 1) % ports_;
  }

 private:
  std::uint32_t next_ = 0;
};

/// Static priority: memory responses, then processors in ascending id order.
///
/// Pure static priority livelocks: an unthrottled test&set retry stream from
/// low-id spinners outranks a higher-id holder's release write forever (the
/// fuzz-discovered seed-24245/case-3 hang).  Real daisy-chain arbiters bound
/// the inversion with a fairness timeout (e.g. Futurebus+ priority-with-
/// fairness mode); this one promotes the single oldest queued processor
/// request ahead of the chain once it has waited kStarvationEscapeCycles.
/// Short-horizon behaviour stays id-ordered — the fairness skew the
/// discipline exists to model survives — but every request is granted within
/// a bounded window, so the bus is livelock-free under any scheme.
class FixedPriorityDiscipline final : public ServiceDiscipline {
 public:
  /// Cycles a queued request may be passed over before it jumps the chain.
  /// Large against a lock hand-off (tens of cycles), small against the
  /// simulator's 500k-cycle progress watchdog and test cycle budgets.
  static constexpr std::uint64_t kStarvationEscapeCycles = 1024;

  explicit FixedPriorityDiscipline(std::uint32_t ports)
      : ServiceDiscipline(ports, /*stamped=*/true) {}
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFixedPriority;
  }

 protected:
  /// The memory port, then the oldest processor entry of the order if it is
  /// eligible and has aged past the bound, then the processor ports in
  /// ascending id order.
  bool rank(const std::uint64_t* grantable, std::uint64_t now,
            std::uint64_t fresh, GrantFn grant, void* ctx) override;
};

/// First-come first-served: the oldest queued request (by bus-queue arrival
/// stamp, port id breaking ties) wins; requestless ports are never offered.
class FcfsDiscipline final : public ServiceDiscipline {
 public:
  explicit FcfsDiscipline(std::uint32_t ports)
      : ServiceDiscipline(ports, /*stamped=*/true) {}
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFcfs;
  }

 protected:
  /// The order from its oldest entry, skipping ports that are not
  /// grantable, up to the first request that is not yet eligible.
  bool rank(const std::uint64_t* grantable, std::uint64_t now,
            std::uint64_t fresh, GrantFn grant, void* ctx) override;
};

[[nodiscard]] std::unique_ptr<ServiceDiscipline> make_discipline(
    DisciplineKind kind, std::uint32_t ports);

}  // namespace syncpat::bus
