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
// Layout: a util::FlatTable of 12-byte slots.  A line with one holder keeps
// the holder's id inline; a line with two or more points into a pool of
// (procs + 63) / 64-word bitmasks.  A slot is erased as soon as its line has
// no holder and no buffered write-back, so the table only ever spans lines
// some cache holds.
#pragma once

#include <cstdint>
#include <vector>

#include "util/flat_table.hpp"

namespace syncpat::cache {

class HolderDirectory {
 public:
  explicit HolderDirectory(std::uint32_t num_procs);

  void add_holder(std::uint32_t line_addr, std::uint32_t proc);
  void remove_holder(std::uint32_t line_addr, std::uint32_t proc);
  void add_writeback(std::uint32_t line_addr);
  void remove_writeback(std::uint32_t line_addr);

  /// Writes the line's holders into `out` (room for num_procs ids) in
  /// ascending id order and returns how many there are.
  std::uint32_t holders(std::uint32_t line_addr, std::uint32_t* out) const;

  /// What a snoop of the line must visit, from one lookup: the write-backs
  /// of the line waiting in cache-bus buffers and, only when there are
  /// none, its holders, written into `out` as holders() writes them
  /// (holders stays 0 otherwise).
  struct SnoopTargets {
    std::uint32_t writebacks = 0;
    std::uint32_t holders = 0;
  };
  SnoopTargets snoop_targets(std::uint32_t line_addr, std::uint32_t* out) const;

  /// Visits every tracked line as fn(line_addr, holder_count,
  /// buffered_writebacks), in table order (the invariant checker's
  /// cross-check).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    lines_.for_each([&](const Slot& s) { fn(s.key, s.holders, s.writebacks); });
  }

 private:
  struct Slot {
    std::uint32_t key = 0;  // the line
    std::uint32_t ref = 0;  // the holder (holders == 1) or a pool mask index
    std::uint16_t holders = 0;     // <= num_procs <= 65535
    std::uint16_t writebacks = 0;  // one per buffered entry: a few per line

    [[nodiscard]] bool empty() const { return (holders | writebacks) == 0; }
  };

  /// Writes the holders of a tracked line into `out`; returns their count.
  std::uint32_t list_holders(const Slot& s, std::uint32_t* out) const;
  [[nodiscard]] std::uint64_t* mask(std::uint32_t index) {
    return &masks_[static_cast<std::size_t>(index) * words_];
  }
  [[nodiscard]] const std::uint64_t* mask(std::uint32_t index) const {
    return &masks_[static_cast<std::size_t>(index) * words_];
  }

  std::uint32_t words_;
  util::FlatTable<Slot> lines_;
  std::vector<std::uint64_t> masks_;      // words_ per mask; free ones zeroed
  std::vector<std::uint32_t> free_masks_;
};

}  // namespace syncpat::cache
