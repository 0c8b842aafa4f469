// Cycle-stamped observability events (the "when did it happen" layer the
// end-of-run aggregates cannot answer — §2.3's attribution questions).
//
// The subsystem follows the invariant checker's opt-in pattern: compiled in
// unconditionally, but the simulator holds a null recorder unless
// MachineConfig::trace.enabled is set, so default-off runs pay one branch per
// instrumentation point and results stay bit-identical to untraced runs.
#pragma once

#include <cstdint>
#include <string>

namespace syncpat::obs {

/// Category bitmask for --trace-events=locks,bus,coherence,... filtering.
/// Checked at the instrumentation sites, so a masked-out category costs
/// nothing downstream of the branch.
namespace category {
inline constexpr std::uint32_t kLocks = 1u << 0;
inline constexpr std::uint32_t kBus = 1u << 1;
inline constexpr std::uint32_t kCoherence = 1u << 2;
inline constexpr std::uint32_t kBarriers = 1u << 3;
inline constexpr std::uint32_t kAll = kLocks | kBus | kCoherence | kBarriers;
}  // namespace category

/// Parses a comma-separated category list ("locks,bus", "all").  Throws
/// std::invalid_argument on an unknown token or an empty list.
[[nodiscard]] std::uint32_t parse_categories(const std::string& list);

enum class EventKind : std::uint8_t {
  // locks
  kAcquireBegin,     // proc starts an acquire attempt on `line`
  kAcquired,         // proc owns the lock
  kReleaseBegin,     // owner issued its releasing access
  kReleased,         // lock free, no waiter took it
  kHandoff,          // lock released to a waiter; a = waiters still left
  kTransferDone,     // hand-off target now runs; b = release->acquire cycles
  kSpinInvalidated,  // a spinner's cached lock/flag line was invalidated
  // bus
  kBusGrant,     // txn won arbitration; a = kind (bit 8: response phase),
                 // b = bus cycles held
  kBusComplete,  // requester-visible completion; a = issue->complete cycles,
                 // b = kind
  // coherence
  kMesiTransition,  // a = from-state, b = to-state (cache::LineState values)
  // barriers
  kBarrierArrive,   // a = waiters already at the barrier
  kBarrierRelease,  // last arrival; a = processors released
};

[[nodiscard]] const char* event_kind_name(EventKind k);

/// One instrumentation record.  `a`/`b` are kind-specific payloads (see the
/// per-kind comments above); proc is -1 for machine-wide events.
struct TraceEvent {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kAcquireBegin;
  std::int32_t proc = -1;
  std::uint32_t line = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Opt-in tracing knobs, carried in MachineConfig next to InvariantConfig.
struct TraceConfig {
  bool enabled = false;
  std::uint32_t categories = category::kAll;
};

}  // namespace syncpat::obs
