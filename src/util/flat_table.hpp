// Flat open-addressing hash table keyed by a 32-bit line address: the
// simulator's per-line host bookkeeping (the holder directory, the lines in
// flight on the bus, each processor's lost lines).
//
// Fibonacci hashing, linear probing, at most 3/4 full, and backward-shift
// erase, so a probe run never holds a tombstone.  The slot type supplies a
// `std::uint32_t key` and `bool empty() const`, and a value-initialized
// slot must be empty.  An empty slot ends a probe run, so find_or_insert()
// hands back a slot the caller must make non-empty, and a slot the caller
// empties must be erased, before the table's next operation.  The table
// allocates nothing until its first insert, because every processor of a
// P = 1024 machine owns one.  Iteration order is table order, so it depends
// on the insert history, never on addresses in memory.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace syncpat::util {

template <typename Slot>
class FlatTable {
 public:
  /// Slots of the first allocation; the table doubles from there.
  static constexpr std::uint32_t kFirstSlots = 16;

  /// Occupied slots (claimed ones included).
  [[nodiscard]] std::uint32_t size() const { return size_; }

  [[nodiscard]] Slot* find(std::uint32_t key) {
    return const_cast<Slot*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const Slot* find(std::uint32_t key) const {
    if (size_ == 0) return nullptr;
    const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
    for (std::uint32_t i = home(key);; i = (i + 1) & slot_mask) {
      const Slot& s = slots_[i];
      if (s.empty()) return nullptr;
      if (s.key == key) return &s;
    }
  }

  /// The key's slot, claiming an empty one (value-initialized, `key` set)
  /// when the key is absent.  Invalidates pointers to other slots.
  Slot& find_or_insert(std::uint32_t key) {
    if (Slot* s = find(key)) return *s;
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();  // load factor <= 3/4
    const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
    std::uint32_t i = home(key);
    while (!slots_[i].empty()) i = (i + 1) & slot_mask;
    slots_[i].key = key;
    ++size_;
    return slots_[i];
  }

  /// Removes `slot` (one of this table's), whatever it holds.  Invalidates
  /// pointers to other slots.
  void erase(Slot& slot) {
    SYNCPAT_ASSERT(size_ > 0);
    --size_;
    // Backward-shift deletion: pull later members of the probe run into the
    // hole whenever their home does not lie cyclically in (hole, j].
    const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
    auto hole = static_cast<std::uint32_t>(&slot - slots_.data());
    for (std::uint32_t j = (hole + 1) & slot_mask; !slots_[j].empty();
         j = (j + 1) & slot_mask) {
      const std::uint32_t h = home(slots_[j].key);
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
  }

  /// Visits every occupied slot in table order.  `fn` may change a slot's
  /// fields, but not its key or whether it is empty.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (!s.empty()) fn(s);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.empty()) fn(s);
    }
  }

 private:
  [[nodiscard]] std::uint32_t home(std::uint32_t key) const {
    // Fibonacci hashing: line addresses are multiples of the line size, and
    // the multiply spreads them over the high bits taken here.
    return static_cast<std::uint32_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kFirstSlots : slots_.size() * 2);
    old.swap(slots_);
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(slots_.size()));
    const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
    for (const Slot& s : old) {
      if (s.empty()) continue;
      std::uint32_t i = home(s.key);
      while (!slots_[i].empty()) i = (i + 1) & slot_mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, or none before the first
                             // insert
  std::uint32_t shift_ = 0;  // 64 - log2(slots_.size())
  std::uint32_t size_ = 0;   // occupied slots
};

}  // namespace syncpat::util
