// Bitmask helpers over arrays of 64-bit words (bit i of the set is bit i % 64
// of word i / 64): the simulator's port and holder sets.
#pragma once

#include <bit>
#include <cstdint>

namespace syncpat::util {

[[nodiscard]] constexpr std::uint32_t bit_words(std::uint32_t bits) {
  return (bits + 63) / 64;
}

[[nodiscard]] inline bool test_bit(const std::uint64_t* words, std::uint32_t i) {
  return (words[i / 64] >> (i % 64) & 1u) != 0;
}

inline void set_bit(std::uint64_t* words, std::uint32_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

inline void clear_bit(std::uint64_t* words, std::uint32_t i) {
  words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/// Calls fn(i) for every set bit i in [lo, hi), ascending, until fn returns
/// true; returns whether it did.  Each word is read once, before its bits are
/// visited, so fn may clear bits it has already been handed.
template <typename Fn>
bool visit_set_bits(const std::uint64_t* words, std::uint32_t lo,
                    std::uint32_t hi, Fn&& fn) {
  if (lo >= hi) return false;
  std::uint32_t w = lo / 64;
  const std::uint32_t last = (hi - 1) / 64;
  std::uint64_t bits = words[w] & (~std::uint64_t{0} << (lo % 64));
  for (;;) {
    if (w == last) bits &= ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
    while (bits != 0) {
      if (fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)))) {
        return true;
      }
      bits &= bits - 1;
    }
    if (w == last) return false;
    bits = words[++w];
  }
}

}  // namespace syncpat::util
