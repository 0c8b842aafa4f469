// Exact per-line record of which caches hold a line valid (Shared, Exclusive
// or Modified), and of how many write-backs of the line wait in cache-bus
// buffers.
//
// Simulator bookkeeping, not a modeled structure: the machine's bus still
// broadcasts every snoop (paper §2.2).  A cache that neither holds the line
// nor buffers a write-back of it answers a snoop with no effect at all, so
// the simulator uses this record to visit only the caches whose answer can
// change anything (core/simulator.cpp, snoop_others).  Pending and Invalid
// lines are not holders.
//
// Layout: a flat open-addressing table (linear probing, backward-shift
// erase, at most 3/4 full) of 12-byte slots.  A line with one holder keeps
// the holder's id inline; a line with two or more points into a pool of
// (procs + 63) / 64-word bitmasks.  A slot is erased as soon as its line has
// no holder and no buffered write-back, so the table only ever spans lines
// some cache holds.
#pragma once

#include <cstdint>
#include <vector>

namespace syncpat::cache {

class HolderDirectory {
 public:
  explicit HolderDirectory(std::uint32_t num_procs);

  void add_holder(std::uint32_t line_addr, std::uint32_t proc);
  void remove_holder(std::uint32_t line_addr, std::uint32_t proc);
  void add_writeback(std::uint32_t line_addr);
  void remove_writeback(std::uint32_t line_addr);

  /// Write-backs of `line_addr` waiting in cache-bus buffers.
  [[nodiscard]] std::uint32_t buffered_writebacks(std::uint32_t line_addr) const;

  /// Writes the line's holders into `out` (room for num_procs ids) in
  /// ascending id order and returns how many there are.
  std::uint32_t holders(std::uint32_t line_addr, std::uint32_t* out) const;

  /// Visits every tracked line as fn(line_addr, holder_count,
  /// buffered_writebacks), in table order (the invariant checker's
  /// cross-check).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.empty()) fn(s.line, s.holders, s.writebacks);
    }
  }

 private:
  struct Slot {
    std::uint32_t line = 0;
    std::uint32_t ref = 0;  // the holder (holders == 1) or a pool mask index
    std::uint16_t holders = 0;     // <= num_procs <= 65535
    std::uint16_t writebacks = 0;  // one per buffered entry: a few per line

    [[nodiscard]] bool empty() const { return (holders | writebacks) == 0; }
  };

  static constexpr std::uint32_t kNotFound = ~0u;

  [[nodiscard]] std::uint32_t home(std::uint32_t line_addr) const;
  [[nodiscard]] std::uint32_t find(std::uint32_t line_addr) const;
  /// The line's slot, claiming an empty one (holders and write-backs zero)
  /// when the line is not tracked yet.
  std::uint32_t find_or_insert(std::uint32_t line_addr);
  void erase_if_empty(std::uint32_t slot);
  void grow();
  [[nodiscard]] std::uint64_t* mask(std::uint32_t index) {
    return &masks_[static_cast<std::size_t>(index) * words_];
  }
  [[nodiscard]] const std::uint64_t* mask(std::uint32_t index) const {
    return &masks_[static_cast<std::size_t>(index) * words_];
  }

  std::uint32_t words_;
  std::vector<Slot> slots_;  // power-of-two size
  std::uint32_t shift_ = 0;  // 64 - log2(slots_.size())
  std::uint32_t size_ = 0;   // occupied slots
  std::vector<std::uint64_t> masks_;      // words_ per mask; free ones zeroed
  std::vector<std::uint32_t> free_masks_;
};

}  // namespace syncpat::cache
