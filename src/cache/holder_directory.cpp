#include "cache/holder_directory.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace syncpat::cache {

namespace {

constexpr std::uint32_t kInitialSlots = 64;  // power of two

}  // namespace

HolderDirectory::HolderDirectory(std::uint32_t num_procs)
    : words_(util::bit_words(num_procs)),
      slots_(kInitialSlots),
      shift_(64 - static_cast<std::uint32_t>(std::countr_zero(kInitialSlots))) {
  SYNCPAT_ASSERT(num_procs <= 0xffff);
}

std::uint32_t HolderDirectory::home(std::uint32_t line_addr) const {
  // Fibonacci hashing: line addresses are multiples of the line size, and
  // the multiply spreads them over the high bits taken here.
  return static_cast<std::uint32_t>(
      (std::uint64_t{line_addr} * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::uint32_t HolderDirectory::find(std::uint32_t line_addr) const {
  const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
  for (std::uint32_t i = home(line_addr);; i = (i + 1) & slot_mask) {
    const Slot& s = slots_[i];
    if (s.empty()) return kNotFound;
    if (s.line == line_addr) return i;
  }
}

std::uint32_t HolderDirectory::find_or_insert(std::uint32_t line_addr) {
  if (const std::uint32_t i = find(line_addr); i != kNotFound) return i;
  if (4 * (size_ + 1) > 3 * slots_.size()) grow();  // load factor <= 3/4
  const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
  std::uint32_t i = home(line_addr);
  while (!slots_[i].empty()) i = (i + 1) & slot_mask;
  slots_[i].line = line_addr;
  ++size_;
  return i;
}

void HolderDirectory::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
  for (const Slot& s : old) {
    if (s.empty()) continue;
    std::uint32_t i = home(s.line);
    while (!slots_[i].empty()) i = (i + 1) & slot_mask;
    slots_[i] = s;
  }
}

void HolderDirectory::erase_if_empty(std::uint32_t slot) {
  if (!slots_[slot].empty()) return;
  --size_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home does not lie cyclically in (hole, j].
  const auto slot_mask = static_cast<std::uint32_t>(slots_.size() - 1);
  std::uint32_t hole = slot;
  for (std::uint32_t j = (hole + 1) & slot_mask; !slots_[j].empty();
       j = (j + 1) & slot_mask) {
    const std::uint32_t h = home(slots_[j].line);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
}

void HolderDirectory::add_holder(std::uint32_t line_addr, std::uint32_t proc) {
  const std::uint32_t i = find_or_insert(line_addr);
  Slot& s = slots_[i];
  if (s.holders == 0) {
    s.ref = proc;
  } else if (s.holders == 1) {
    SYNCPAT_ASSERT_MSG(s.ref != proc, "holder added twice");
    std::uint32_t index;
    if (free_masks_.empty()) {
      index = static_cast<std::uint32_t>(masks_.size() / words_);
      masks_.resize(masks_.size() + words_, 0);
    } else {
      index = free_masks_.back();
      free_masks_.pop_back();
    }
    util::set_bit(mask(index), s.ref);
    util::set_bit(mask(index), proc);
    s.ref = index;
  } else {
    SYNCPAT_ASSERT_MSG(!util::test_bit(mask(s.ref), proc), "holder added twice");
    util::set_bit(mask(s.ref), proc);
  }
  ++s.holders;
}

void HolderDirectory::remove_holder(std::uint32_t line_addr,
                                    std::uint32_t proc) {
  const std::uint32_t i = find(line_addr);
  SYNCPAT_ASSERT_MSG(i != kNotFound && slots_[i].holders > 0,
                     "removing a holder of an untracked line");
  Slot& s = slots_[i];
  if (s.holders == 1) {
    SYNCPAT_ASSERT_MSG(s.ref == proc, "removing a non-holder");
  } else {
    std::uint64_t* m = mask(s.ref);
    SYNCPAT_ASSERT_MSG(util::test_bit(m, proc), "removing a non-holder");
    util::clear_bit(m, proc);
    if (s.holders == 2) {
      // Back to one holder: keep it inline and return the (now zeroed) mask.
      std::uint32_t w = 0;
      while (m[w] == 0) ++w;
      const std::uint32_t last =
          w * 64 + static_cast<std::uint32_t>(std::countr_zero(m[w]));
      m[w] = 0;
      free_masks_.push_back(s.ref);
      s.ref = last;
    }
  }
  --s.holders;
  erase_if_empty(i);
}

void HolderDirectory::add_writeback(std::uint32_t line_addr) {
  Slot& s = slots_[find_or_insert(line_addr)];
  SYNCPAT_ASSERT(s.writebacks < 0xffff);
  ++s.writebacks;
}

void HolderDirectory::remove_writeback(std::uint32_t line_addr) {
  const std::uint32_t i = find(line_addr);
  SYNCPAT_ASSERT_MSG(i != kNotFound && slots_[i].writebacks > 0,
                     "removing an untracked write-back");
  --slots_[i].writebacks;
  erase_if_empty(i);
}

std::uint32_t HolderDirectory::buffered_writebacks(
    std::uint32_t line_addr) const {
  const std::uint32_t i = find(line_addr);
  return i == kNotFound ? 0 : slots_[i].writebacks;
}

std::uint32_t HolderDirectory::holders(std::uint32_t line_addr,
                                       std::uint32_t* out) const {
  const std::uint32_t i = find(line_addr);
  if (i == kNotFound || slots_[i].holders == 0) return 0;
  const Slot& s = slots_[i];
  if (s.holders == 1) {
    out[0] = s.ref;
    return 1;
  }
  std::uint32_t n = 0;
  util::visit_set_bits(mask(s.ref), 0, words_ * 64, [&](std::uint32_t p) {
    out[n++] = p;
    return false;
  });
  return n;
}

}  // namespace syncpat::cache
