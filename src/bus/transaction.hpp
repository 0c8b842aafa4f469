// Bus transaction model.
//
// Every action that crosses a processor's cache boundary is a Transaction:
// line fetches (Read/ReadX), ownership upgrades (invalidations), dirty-line
// write-backs, and queuing-lock hand-off transfers.  Transactions are owned
// by the simulator; queues hold non-owning pointers.
#pragma once

#include <cstdint>

namespace syncpat::bus {

enum class TxnKind : std::uint8_t {
  kRead,          // fetch a line for reading (may be supplied cache-to-cache)
  kReadX,         // fetch a line for ownership (write miss / atomic op)
  kUpgrade,       // invalidate other copies of a Shared line we hold
  kWriteBack,     // dirty eviction to memory
  kHandoff,       // queuing-lock cache-to-cache lock transfer (timing only)
  kWriteThrough,  // one-word store to memory + invalidation (WT caches)
};

[[nodiscard]] const char* txn_kind_name(TxnKind k);

/// Why the issuing processor is (or is not) stalled on this transaction;
/// drives the paper's stall-cause split (Tables 3/5).
enum class StallCause : std::uint8_t {
  kNone,       // nobody waits (write-back, buffered WO write, hand-off)
  kCacheMiss,  // ordinary memory access
  kLockWait,   // access on behalf of acquiring a lock someone else holds
};

enum class TxnPhase : std::uint8_t {
  kQueued,       // in a cache-bus buffer
  kOnBusReq,     // request/address (or full c2c/upgrade/writeback) on bus
  kInMemory,     // queued at or being serviced by the memory module
  kMemOutput,    // response waiting for the bus
  kOnBusResp,    // response data on bus
  kDone,
};

// Field order keeps the struct at 56 bytes on 64-bit hosts, the one-byte
// fields packed together, so that the per-processor link fits.  A size past
// 56 moves every transaction into glibc's next allocation size class, and a
// large-P run's set-up then faults in again the heap pages that glibc trims
// between passes.
struct Transaction {
  std::uint64_t id = 0;
  std::uint32_t line_addr = 0;
  std::int32_t requester = -1;       // processor id
  TxnKind kind = TxnKind::kRead;
  StallCause stall_cause = StallCause::kNone;
  bool is_lock_op = false;           // issued by a lock scheme
  std::uint8_t lock_step = 0;        // scheme-private state machine tag
  bool requester_waiting = false;    // the issuing processor stalls on this
  // Metrics-only tag (never branches simulation): this fetch re-acquires a
  // line a remote processor invalidated out of the requester's cache, so the
  // requester's wait cycles are charged to invalidation-refill.
  bool coherence_refill = false;
  TxnPhase phase = TxnPhase::kQueued;
  // DSM cost model: extra memory service cycles because the requester's node
  // is not the line's home node (0 under the uniform bus model).  Stamped at
  // creation; also tags the requester's memory-wait cycles as remote-access
  // for the stall attribution.
  std::uint32_t dsm_extra_cycles = 0;

  // Filled at the bus request (snoop) phase:
  bool supplied_by_cache = false;    // cache-to-cache transfer
  bool dirty_supplier = false;       // supplier was Modified (memory updated)
  bool fills_line = false;           // requester cache has a pending slot

  std::uint64_t issued_cycle = 0;
  // Cycle make_txn() ran; never re-stamped (issued_cycle is, on the memory
  // response path), so the tracing layer can report whole-transaction spans.
  std::uint64_t created_cycle = 0;
  // The requester's next live transaction in the simulator's per-processor
  // list (write-backs and hand-offs are never listed); null at the tail.
  Transaction* next_of_proc = nullptr;

  /// True when the requester's fences wait for this transaction: its own
  /// data accesses, not lock-scheme steps, write-backs or hand-offs.
  [[nodiscard]] bool counts_for_fence() const {
    return !is_lock_op && kind != TxnKind::kWriteBack &&
           kind != TxnKind::kHandoff;
  }

  [[nodiscard]] bool is_exclusive_request() const {
    return kind == TxnKind::kReadX || kind == TxnKind::kUpgrade ||
           kind == TxnKind::kWriteThrough;
  }

  /// True while this transaction reserves its line against other grants
  /// (the arbiter's one-transaction-per-line rule).  Write-backs and
  /// write-throughs release the line once they enter the memory module;
  /// fetches hold it through the split-transaction response.
  [[nodiscard]] bool holds_line_slot() const {
    if (phase == TxnPhase::kOnBusReq) return true;
    if (kind != TxnKind::kRead && kind != TxnKind::kReadX) return false;
    return phase == TxnPhase::kInMemory || phase == TxnPhase::kMemOutput ||
           phase == TxnPhase::kOnBusResp;
  }
};

static_assert(sizeof(void*) != 8 || sizeof(Transaction) == 56,
              "keep Transaction at 56 bytes (see the comment above it)");

}  // namespace syncpat::bus
