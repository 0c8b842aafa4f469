// Main memory module (paper §2.2).
//
// Three-cycle access time, a two-element input buffer (a split-transaction
// request may arrive while a previous one is being processed) and a
// two-element output buffer (the bus may be busy when an access completes).
// Reads produce a response that re-arbitrates for the bus; writes
// (write-backs and dirty-supplier reflections) are absorbed.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/transaction.hpp"
#include "util/ring_buffer.hpp"

namespace syncpat::mem {

struct MemoryConfig {
  std::uint32_t access_cycles = 3;
  std::uint32_t input_depth = 2;
  std::uint32_t output_depth = 2;
};

class Memory {
 public:
  explicit Memory(const MemoryConfig& config)
      : config_(config), input_(config.input_depth), output_(config.output_depth) {}

  [[nodiscard]] bool input_full() const { return input_.full(); }

  /// Delivers a request from the bus.  Precondition: !input_full().
  void push_request(bus::Transaction* txn) { input_.push_back(txn); }

  /// Response (if any) waiting for the bus.
  [[nodiscard]] bus::Transaction* pending_response() const {
    return output_.empty() ? nullptr : output_.front();
  }
  bus::Transaction* pop_response() { return output_.pop_front(); }

  /// Advances one cycle: starts a new access when idle, finishes the current
  /// one when its three cycles elapse.  A completed read moves to the output
  /// buffer; if the output buffer is full the module stalls (head-of-line
  /// blocking), matching a memory controller that cannot retire.
  void tick();

  /// Moves the write transactions the module absorbed since the last drain
  /// into `out` (cleared first); the simulator retires them, since memory
  /// produces no response for writes.  Both vectors keep their capacity
  /// across cycles, so the simulator's hot path allocates nothing here.
  void drain_absorbed_into(std::vector<bus::Transaction*>& out) {
    out.clear();
    out.swap(absorbed_);
  }

  /// Cycles until this module next changes externally-visible state, or 0
  /// when it never will on its own (no access in service, nothing queued):
  /// an active access completes (or retries a full output buffer) in
  /// `remaining_` cycles; a queued request starts service on the next tick.
  [[nodiscard]] std::uint32_t next_event_delta() const {
    if (active_ != nullptr) return remaining_;
    return input_.empty() ? 0 : 1;
  }

  /// Bulk-advances `cycles` ticks of an active access in one step (DES span).
  /// Equivalent to `cycles` calls to tick() that neither start nor finish an
  /// access, so `cycles` must be strictly below next_event_delta().  With the
  /// module idle and drained this is a no-op (idle ticks change nothing).
  void advance(std::uint64_t cycles) {
    if (active_ == nullptr) {
      SYNCPAT_ASSERT(input_.empty());
      return;
    }
    SYNCPAT_ASSERT(cycles < remaining_);
    busy_cycles_ += cycles;
    remaining_ -= static_cast<std::uint32_t>(cycles);
  }

  [[nodiscard]] bool idle() const { return active_ == nullptr && input_.empty(); }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }
  [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }

 private:
  MemoryConfig config_;
  util::RingBuffer<bus::Transaction*> input_;
  util::RingBuffer<bus::Transaction*> output_;
  std::vector<bus::Transaction*> absorbed_;
  bus::Transaction* active_ = nullptr;
  std::uint32_t remaining_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace syncpat::mem
