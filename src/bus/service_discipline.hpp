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
// Each discipline has one ordering policy, offer(): it ranks the ports that
// have a request (the ready set) and hands the grantable ones to the arbiter
// in priority order until one is granted, so an unserviceable high-priority
// port (line in flight, memory input full) never deadlocks the bus, and a
// round costs the ports it visits rather than all P + 1.  Which ports are
// ready, and which of those could be granted at all this round, is
// simulator bookkeeping; the modeled arbiter still sees every port, and a
// port that cannot be granted never wins.  scan_order() is the
// full-permutation view of the same policy (every port ready and
// grantable).  Grant bookkeeping (rotation, wait statistics) goes through
// record_grant().
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

/// One port's view of an arbitration round (filled only at ready ports, and
/// only for disciplines that need request stamps, see
/// ServiceDiscipline::needs_stamps()).
struct ArbRequest {
  bool present = false;     // a grant-eligible request waits at this port
  std::uint64_t stamp = 0;  // cycle it reached the bus queue (issued_cycle)
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
  explicit ServiceDiscipline(std::uint32_t ports);
  virtual ~ServiceDiscipline();

  ServiceDiscipline(const ServiceDiscipline&) = delete;
  ServiceDiscipline& operator=(const ServiceDiscipline&) = delete;

  /// Called as grant(ctx, port) for each port offered; true ends the round.
  using GrantFn = bool (*)(void* ctx, std::uint32_t port);

  /// One arbitration round over the ports in `ready` (a bitmask over
  /// [0, ports), util/bits.hpp layout; port ports-1 is the memory response
  /// port): offers the ports in `grantable` (a subset of `ready`: the ones
  /// whose request could be granted at all) to `grant` in the priority order
  /// the ready set ranks them in, until it returns true, and returns whether
  /// it did.  `req` is read only at ready ports, only when needs_stamps(),
  /// and its `present` flag marks the grant-eligible requests; `now` is the
  /// current bus cycle, for disciplines that age requests.
  virtual bool offer(const std::uint64_t* ready,
                     const std::uint64_t* grantable, const ArbRequest* req,
                     std::uint64_t now, GrantFn grant, void* ctx) = 0;

  /// Writes a permutation of [0, ports) into `out`, highest grant priority
  /// first: the order offer() visits with every port ready and grantable,
  /// followed by any port it does not offer (FCFS's requestless ones) in id
  /// order.  `req`
  /// has one entry per port and may be null when needs_stamps() is false.
  void scan_order(const ArbRequest* req, std::uint64_t now,
                  std::uint32_t* out);

  /// True when offer() reads the per-port request stamps; the caller then
  /// fills an ArbRequest per ready port before calling it.
  [[nodiscard]] virtual bool needs_stamps() const { return false; }

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
  virtual void on_granted(std::uint32_t /*port*/) {}

  std::uint32_t ports_;

 private:
  DisciplineStats stats_;
  // scan_order() scratch: every port set, and the ports offer() visited.
  std::vector<std::uint64_t> all_ports_;
  std::vector<std::uint64_t> offered_;
};

/// The historical policy: scan starts one past the last granted port.
class RoundRobinDiscipline final : public ServiceDiscipline {
 public:
  using ServiceDiscipline::ServiceDiscipline;
  /// Grantable ports from one past the last grant, wrapping around (the
  /// memory port takes its turn in its cyclic slot).
  bool offer(const std::uint64_t* ready, const std::uint64_t* grantable,
             const ArbRequest* req, std::uint64_t now, GrantFn grant,
             void* ctx) override;
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kRoundRobin;
  }
  /// The port the rotation considers `offset` places after the last grant
  /// (exposed for the rotation unit tests).
  [[nodiscard]] std::uint32_t peek(std::uint32_t offset) const {
    return (next_ + offset) % ports_;
  }

 protected:
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

  using ServiceDiscipline::ServiceDiscipline;
  /// The memory port, then the aged oldest eligible ready processor request
  /// (if any), then the processor ports in ascending id order.
  bool offer(const std::uint64_t* ready, const std::uint64_t* grantable,
             const ArbRequest* req, std::uint64_t now, GrantFn grant,
             void* ctx) override;
  [[nodiscard]] bool needs_stamps() const override { return true; }
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFixedPriority;
  }
};

/// First-come first-served: the oldest queued request (by bus-queue arrival
/// stamp, port id breaking ties) wins; requestless ports are never offered.
class FcfsDiscipline final : public ServiceDiscipline {
 public:
  using ServiceDiscipline::ServiceDiscipline;
  /// The eligible grantable ports sorted by (stamp, port id).
  bool offer(const std::uint64_t* ready, const std::uint64_t* grantable,
             const ArbRequest* req, std::uint64_t now, GrantFn grant,
             void* ctx) override;
  [[nodiscard]] bool needs_stamps() const override { return true; }
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFcfs;
  }

 private:
  std::vector<std::uint32_t> order_;  // offer() scratch
};

[[nodiscard]] std::unique_ptr<ServiceDiscipline> make_discipline(
    DisciplineKind kind, std::uint32_t ports);

}  // namespace syncpat::bus
