// The cache-bus interface buffer (paper §2.2 and §4.1).
//
// "The cache-bus interface includes a four element buffer.  All memory
// requests, write-backs, cache-cache transfers, and coherence actions
// initiated by the processor must pass through this buffer."
//
// The consistency model is implemented *here*:
//  * Sequential consistency: strict FIFO.  (The processor layer additionally
//    stalls on every miss, so at most one processor-stalling entry is ever
//    queued, behind any pending write-backs.)
//  * Weak ordering: a read (load/ifetch miss) that would stall the processor
//    is inserted at the *head* of the buffer, bypassing buffered writes,
//    write-backs and invalidation signals — unless an entry for the same
//    line is already queued (program-order data dependence through the same
//    line must be respected; §4.1's false-sharing discussion).
//
// A dirty line waiting in the buffer as a write-back is visible to the
// coherence mechanism: snoops check the buffer (see snoop_writeback()).
//
// An optional queue hook reports every entry that enters or leaves the
// buffer; the simulator keeps its set of ports with a queued request and its
// count of buffered write-backs per line from it.
#pragma once

#include <cstdint>

#include "bus/transaction.hpp"
#include "util/ring_buffer.hpp"

namespace syncpat::bus {

enum class ConsistencyModel : std::uint8_t { kSequential, kWeak };

[[nodiscard]] const char* consistency_name(ConsistencyModel m);

class BusInterface {
 public:
  BusInterface(std::uint32_t proc_id, std::uint32_t depth,
               ConsistencyModel model)
      : proc_id_(proc_id), model_(model), queue_(depth) {}

  [[nodiscard]] std::uint32_t proc_id() const { return proc_id_; }
  [[nodiscard]] ConsistencyModel model() const { return model_; }
  [[nodiscard]] bool full() const { return queue_.full(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  /// Queues a transaction, applying the consistency-model placement rule.
  /// Returns false when the buffer is full (the caller stalls and retries).
  bool enqueue(Transaction* txn);

  /// The grant candidate (head of the buffer), nullptr if empty.
  [[nodiscard]] Transaction* head() const {
    return queue_.empty() ? nullptr : queue_.front();
  }

  /// Removes the head after it has been granted the bus.
  Transaction* pop_head() {
    Transaction* txn = queue_.pop_front();
    notify(*txn, /*entered=*/false);
    return txn;
  }

  /// Entry i positions from the head (0 == head); i < size().
  [[nodiscard]] const Transaction& entry(std::size_t i) const {
    return *queue_.at(i);
  }

  /// True if any queued entry targets `line_addr`.
  [[nodiscard]] bool has_line(std::uint32_t line_addr) const;

  /// Coherence visibility of buffered dirty lines: if a write-back for
  /// `line_addr` sits in this buffer, it is removed and returned so the
  /// snoop can be serviced from it (the data is supplied cache-to-cache and,
  /// for a non-exclusive request, still forwarded to memory by the bus
  /// layer).  Returns nullptr if no buffered write-back matches.
  Transaction* snoop_writeback(std::uint32_t line_addr);

  /// Statistics: how often enqueue had to bypass (WO) / how often a read
  /// found a same-line dependence and could not bypass.
  [[nodiscard]] std::uint64_t bypasses() const { return bypasses_; }
  [[nodiscard]] std::uint64_t bypass_blocked() const { return bypass_blocked_; }

  /// Called as hook(ctx, iface, txn, entered) after `txn` enters the buffer
  /// (enqueue) or leaves it (pop_head, snoop_writeback).  Null (the default)
  /// tracks nothing.
  using QueueHook = void (*)(void* ctx, const BusInterface& iface,
                             const Transaction& txn, bool entered);
  void set_queue_hook(QueueHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

 private:
  void notify(const Transaction& txn, bool entered) const {
    if (hook_ != nullptr) hook_(hook_ctx_, *this, txn, entered);
  }

  std::uint32_t proc_id_;
  ConsistencyModel model_;
  util::RingBuffer<Transaction*> queue_;
  std::uint64_t bypasses_ = 0;
  std::uint64_t bypass_blocked_ = 0;
  QueueHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace syncpat::bus
