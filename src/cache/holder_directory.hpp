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
// A read of a line that two or more other caches hold changes no line at
// all: every copy is Shared and stays Shared, and each holder books one
// supply.  The directory answers such a read in O(1): it counts it on the
// line (`answered`), and a per-processor tally credits each holder exactly
// the reads answered while it held the line (debited by the count when it
// becomes a holder, credited by it when it stops).  settle_supplies() folds
// the outstanding counts into the tallies and hands them to the caller.
//
// Layout: a util::FlatTable of 16-byte slots.  A line with one holder keeps
// the holder's id inline; a line with two or more points into a pool of
// (procs + 63) / 64-word bitmasks.  A slot is erased as soon as its line has
// no holder and no buffered write-back, so the table only ever spans lines
// some cache holds.
#pragma once

#include <cstdint>
#include <utility>
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

  /// What a snoop of the line by `requester` must do, from one lookup.  At
  /// most one count is non-zero:
  ///  * `writebacks`: write-backs of the line wait in cache-bus buffers;
  ///  * `answered`: the snoop is a read (not `exclusive`) and two or more
  ///    caches other than the requester hold the line, so the directory has
  ///    answered it: it counted the read, which owes each of those
  ///    `answered` holders one supply (settle_supplies()), and debited the
  ///    requester's tally if it holds the line itself;
  ///  * `holders`: the holders other than the requester, written into `out`
  ///    in ascending id order, for the caller to probe.
  struct SnoopTargets {
    std::uint32_t writebacks = 0;
    std::uint32_t answered = 0;
    std::uint32_t holders = 0;
  };
  SnoopTargets snoop_targets(std::uint32_t line_addr, std::uint32_t requester,
                             bool exclusive, std::uint32_t* out);

  /// Books the supplies owed for every read answered since the last call:
  /// calls credit(proc, n) for each processor owed n > 0, in id order.
  template <typename Fn>
  void settle_supplies(Fn&& credit) {
    fold_answered();
    for (std::uint32_t p = 0; p < owed_.size(); ++p) {
      if (owed_[p] != 0) credit(p, std::exchange(owed_[p], 0));
    }
  }

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
    // Reads answered since the counts last settled: fewer than one per
    // simulated cycle, which Simulator::kMaxCycles keeps below 2^32.
    std::uint32_t answered = 0;

    [[nodiscard]] bool empty() const { return (holders | writebacks) == 0; }
  };

  /// Writes the holders of a tracked line other than `skip` into `out`;
  /// returns their count.
  std::uint32_t list_holders(const Slot& s, std::uint32_t skip,
                             std::uint32_t* out) const;
  /// Credits every line's answered reads to its current holders' tallies and
  /// clears the line counts.
  void fold_answered();
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
  // Per processor, the supplies it is owed for answered reads, less the
  // answered counts of the lines it holds (modulo 2^64 in between; exact
  // once fold_answered() has run).
  std::vector<std::uint64_t> owed_;
};

}  // namespace syncpat::cache
