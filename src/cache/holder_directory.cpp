#include "cache/holder_directory.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace syncpat::cache {

namespace {

/// No processor has this id: list_holders() skips nobody.
constexpr std::uint32_t kNoProc = 0xffffffff;

}  // namespace

HolderDirectory::HolderDirectory(std::uint32_t num_procs)
    : words_(util::bit_words(num_procs)), owed_(num_procs, 0) {
  SYNCPAT_ASSERT(num_procs <= 0xffff);
}

void HolderDirectory::add_holder(std::uint32_t line_addr, std::uint32_t proc) {
  Slot& s = lines_.find_or_insert(line_addr);
  owed_[proc] -= s.answered;
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
  Slot* found = lines_.find(line_addr);
  SYNCPAT_ASSERT_MSG(found != nullptr && found->holders > 0,
                     "removing a holder of an untracked line");
  Slot& s = *found;
  owed_[proc] += s.answered;
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
  if (s.empty()) lines_.erase(s);
}

void HolderDirectory::add_writeback(std::uint32_t line_addr) {
  Slot& s = lines_.find_or_insert(line_addr);
  SYNCPAT_ASSERT(s.writebacks < 0xffff);
  ++s.writebacks;
}

void HolderDirectory::remove_writeback(std::uint32_t line_addr) {
  Slot* s = lines_.find(line_addr);
  SYNCPAT_ASSERT_MSG(s != nullptr && s->writebacks > 0,
                     "removing an untracked write-back");
  --s->writebacks;
  if (s->empty()) lines_.erase(*s);
}

std::uint32_t HolderDirectory::holders(std::uint32_t line_addr,
                                       std::uint32_t* out) const {
  const Slot* s = lines_.find(line_addr);
  return s == nullptr ? 0 : list_holders(*s, kNoProc, out);
}

HolderDirectory::SnoopTargets HolderDirectory::snoop_targets(
    std::uint32_t line_addr, std::uint32_t requester, bool exclusive,
    std::uint32_t* out) {
  SYNCPAT_ASSERT(requester < owed_.size());
  Slot* s = lines_.find(line_addr);
  if (s == nullptr) return {};
  if (s->writebacks > 0) return {.writebacks = s->writebacks};
  if (!exclusive && s->holders >= 2) {
    const bool holds = util::test_bit(mask(s->ref), requester);
    const std::uint32_t others = s->holders - (holds ? 1u : 0u);
    if (others >= 2) {
      ++s->answered;
      if (holds) --owed_[requester];  // a cache does not supply itself
      return {.answered = others};
    }
  }
  return {.holders = list_holders(*s, requester, out)};
}

std::uint32_t HolderDirectory::list_holders(const Slot& s, std::uint32_t skip,
                                            std::uint32_t* out) const {
  if (s.holders == 0) return 0;
  if (s.holders == 1) {
    out[0] = s.ref;
    return s.ref == skip ? 0 : 1;
  }
  std::uint32_t n = 0;
  util::visit_set_bits(mask(s.ref), 0, words_ * 64, [&](std::uint32_t p) {
    out[n] = p;
    n += p == skip ? 0 : 1;
    return false;
  });
  return n;
}

void HolderDirectory::fold_answered() {
  lines_.for_each([&](Slot& s) {
    if (s.answered == 0) return;
    if (s.holders == 1) {
      owed_[s.ref] += s.answered;
    } else if (s.holders > 1) {
      util::visit_set_bits(mask(s.ref), 0, words_ * 64, [&](std::uint32_t p) {
        owed_[p] += s.answered;
        return false;
      });
    }
    s.answered = 0;
  });
}

}  // namespace syncpat::cache
