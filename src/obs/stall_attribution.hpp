// Exact stall-cause attribution: every simulated processor cycle is charged
// to exactly one category, refining the paper's three-way work/cache/lock
// split (Tables 3/5) into the machine-level causes behind it.
//
// The ledger is always on.  Processor books every cycle through one charge
// call that increments a ProcStats paper column and a ledger category
// together, so on every run
//
//   sum over categories == work + stalls == completion_cycle
//
// per processor; it never invents or drops a cycle.  The categories are not
// a finer partition of the paper columns, though: a resume/retry cycle
// (counted as stall_cache by ProcStats) is charged to the wait that caused
// it, a lock operation's own memory access is split into its arbitration /
// transfer / memory phases, and a structural stall (a stall_cache cycle) is
// write_buffer_full like a fence drain.  Neither record can be derived from
// the other.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace syncpat::obs {

enum class StallCat : std::uint8_t {
  kCompute = 0,          // executing trace work cycles
  kLockSpin,             // spinning on a cached lock line (T&T&S, ticket)
  kLockQueuedWait,       // passively waiting for a lock (queuing, Anderson)
  kBarrierWait,          // waiting at a barrier (arrival access included)
  kBusArbitration,       // transaction queued, waiting for a bus grant
  kBusTransfer,          // request or response data on the bus
  kMemoryLatency,        // transaction inside the memory module
  kWriteBufferFull,      // structural stall or weak-ordering fence drain
  kInvalidationRefill,   // re-fetch of a line invalidated by another processor
  kRemoteAccess,         // DSM model: memory wait of a remote-home access
};

inline constexpr std::size_t kNumStallCats = 10;

[[nodiscard]] const char* stall_cat_name(StallCat cat);

/// Per-processor cycle ledger: one counter per category.
struct ProcAttribution {
  std::array<std::uint64_t, kNumStallCats> cycles{};

  void charge(StallCat cat, std::uint64_t n = 1) {
    cycles[static_cast<std::size_t>(cat)] += n;
  }
  [[nodiscard]] std::uint64_t of(StallCat cat) const {
    return cycles[static_cast<std::size_t>(cat)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : cycles) sum += c;
    return sum;
  }
};

}  // namespace syncpat::obs
