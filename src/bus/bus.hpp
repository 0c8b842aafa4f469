// Split-transaction bus (paper §2.2).  Arbitration *policy* — who wins when
// several ports want the bus — lives in bus/service_discipline.hpp; this
// object owns occupancy, tenure accounting and utilization.
//
// The bus is 64 bits wide; a 16-byte line therefore takes two data cycles.
// A memory-bound request occupies the bus for one address cycle only, the
// bus is released while memory works, and the response re-arbitrates for the
// bus (split transaction).  Cache-to-cache supplies, upgrades, write-backs
// and lock hand-offs hold the bus for their whole duration.
//
// The Bus object itself is the occupancy/arbitration/statistics engine; the
// simulator performs the snoop and routing when a grant happens.
#pragma once

#include <cstdint>
#include <optional>

#include "bus/transaction.hpp"
#include "util/assert.hpp"

namespace syncpat::bus {

struct BusConfig {
  std::uint32_t ports = 0;            // arbitration ring size (procs + memory)
  std::uint32_t request_cycles = 1;   // address phase
  std::uint32_t data_cycles = 2;      // line transfer (line/bus width)
};

class Bus {
 public:
  explicit Bus(const BusConfig& config) : config_(config) {
    SYNCPAT_ASSERT(config.ports > 0);
  }

  [[nodiscard]] bool free() const { return current_ == nullptr; }
  [[nodiscard]] Transaction* current() const { return current_; }

  /// Occupies the bus with `txn` for `cycles` bus cycles starting this
  /// cycle.  Precondition: free().
  void occupy(Transaction* txn, std::uint32_t cycles) {
    SYNCPAT_ASSERT(free());
    SYNCPAT_ASSERT(cycles > 0);
    current_ = txn;
    remaining_ = cycles;
  }

  /// Advances one cycle.  Returns the transaction whose bus tenure finished
  /// at the end of this cycle, if any.
  Transaction* tick() {
    ++total_cycles_;
    if (current_ == nullptr) return nullptr;
    ++busy_cycles_;
    if (--remaining_ > 0) return nullptr;
    Transaction* done = current_;
    current_ = nullptr;
    return done;
  }

  /// Bulk-advances `cycles` idle cycles in one step (DES span over a free
  /// bus).  Equivalent to `cycles` calls to tick() with no occupant: only
  /// the utilization denominator moves.  Precondition: free().
  void advance_idle(std::uint64_t cycles) {
    SYNCPAT_ASSERT(free());
    total_cycles_ += cycles;
  }

  /// Cycles until the current tenure ends (0 when free): the DES core's bus
  /// completion event is `cycles` ticks away.
  [[nodiscard]] std::uint32_t busy_remaining() const {
    return current_ == nullptr ? 0 : remaining_;
  }

  /// Bulk-advances `cycles` busy cycles in one step (DES span over a held
  /// bus).  Equivalent to `cycles` calls to tick() that do not finish the
  /// tenure, so `cycles` must be strictly below busy_remaining().
  void advance_busy(std::uint64_t cycles) {
    SYNCPAT_ASSERT(current_ != nullptr);
    SYNCPAT_ASSERT(cycles < remaining_);
    total_cycles_ += cycles;
    busy_cycles_ += cycles;
    remaining_ -= static_cast<std::uint32_t>(cycles);
  }

  [[nodiscard]] const BusConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }
  [[nodiscard]] double utilization() const {
    return total_cycles_ > 0
               ? static_cast<double>(busy_cycles_) /
                     static_cast<double>(total_cycles_)
               : 0.0;
  }

 private:
  BusConfig config_;
  Transaction* current_ = nullptr;
  std::uint32_t remaining_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t total_cycles_ = 0;
};

}  // namespace syncpat::bus
