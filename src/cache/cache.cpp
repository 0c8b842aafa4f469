#include "cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace syncpat::cache {

const char* state_name(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
    case LineState::kPending: return "P";
  }
  return "?";
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  SYNCPAT_ASSERT(std::has_single_bit(config_.line_bytes));
  SYNCPAT_ASSERT(config_.associativity > 0 &&
                 config_.associativity <= kMaxAssociativity);
  SYNCPAT_ASSERT(config_.size_bytes % (config_.line_bytes * config_.associativity) ==
                 0);
  SYNCPAT_ASSERT(std::has_single_bit(config_.num_sets()));
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_mask_ = config_.num_sets() - 1;
  tag_shift_ =
      line_shift_ + static_cast<std::uint32_t>(std::countr_zero(config_.num_sets()));
  const std::uint32_t block_sets = std::min(kBlockSets, config_.num_sets());
  block_set_mask_ = block_sets - 1;
  block_lines_ = block_sets * config_.associativity;
  block_shift_ = kSharedOffsetShift;
  block_offset_.assign(1, 0);
  pool_.resize(block_lines_);  // the empty block
  for (std::uint32_t set = 0; set < block_sets; ++set) {
    Line* base = set_base(set);
    for (std::uint32_t way = 0; way < config_.associativity; ++way) {
      base[way].age = static_cast<std::uint8_t>(way);
    }
  }
}

std::uint32_t Cache::build_block() {
  const std::size_t offset = pool_.size();
  if (offset + block_lines_ > pool_.capacity()) {
    // Doubling, capped at every block plus the empty one, so a cache that
    // fills every set holds one block more than a flat array, not twice it.
    // The last step goes straight to the cap instead of doubling first to
    // one block short of it.
    const std::size_t all_blocks = (block_offset_.size() + 1) * block_lines_;
    const std::size_t doubled = 2 * pool_.capacity();
    pool_.reserve(2 * doubled > all_blocks ? all_blocks : doubled);
  }
  pool_.resize(offset + block_lines_);
  std::copy_n(pool_.begin(), block_lines_, pool_.begin() + offset);
  return static_cast<std::uint32_t>(offset);
}

Cache::Line* Cache::find(std::uint32_t addr) {
  const std::uint32_t tag = tag_of(addr);
  Line* base = set_base(set_index(addr));
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Line& line = base[w];
    if (line.state != LineState::kInvalid && line.tag == tag) return &line;
  }
  return nullptr;
}

const Cache::Line* Cache::find(std::uint32_t addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

AccessResult Cache::access(std::uint32_t addr, AccessClass cls) {
  return access_line(find(addr), addr, cls);
}

AccessResult Cache::access_or_pending(std::uint32_t addr, AccessClass cls) {
  Line* line = find(addr);
  if (line != nullptr && line->state == LineState::kPending) {
    AccessResult result;
    result.pending = true;
    return result;
  }
  return access_line(line, addr, cls);
}

AccessResult Cache::access_line(Line* line, std::uint32_t addr,
                                AccessClass cls) {
  const bool present =
      line != nullptr && line->state != LineState::kPending;
  AccessResult result;
  if (present) {
    result.hit = true;
    touch(addr, line);
    if (cls == AccessClass::kWrite) {
      switch (line->state) {
        case LineState::kModified:
          break;
        case LineState::kExclusive:
          line->state = LineState::kModified;  // silent upgrade (Illinois)
          notify_transition(config_.line_addr(addr), LineState::kExclusive,
                            LineState::kModified);
          break;
        case LineState::kShared:
          result.needs_upgrade = true;  // invalidation required first
          break;
        default:
          SYNCPAT_ASSERT(false);
      }
    }
  }

  switch (cls) {
    case AccessClass::kIFetch:
      result.hit ? ++stats_.ifetch_hits : ++stats_.ifetch_misses;
      break;
    case AccessClass::kRead:
      result.hit ? ++stats_.read_hits : ++stats_.read_misses;
      break;
    case AccessClass::kWrite:
      result.hit ? ++stats_.write_hits : ++stats_.write_misses;
      if (result.needs_upgrade) ++stats_.upgrades;
      break;
  }
  return result;
}

Cache::AllocateResult Cache::allocate(std::uint32_t line_addr) {
  SYNCPAT_ASSERT(config_.line_addr(line_addr) == line_addr);
  SYNCPAT_ASSERT_MSG(find(line_addr) == nullptr,
                     "allocate() for a line that is already present");
  if (block_shift_ == kSharedOffsetShift) {
    // The first allocation: every block of sets gets an offset of its own.
    block_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(block_set_mask_ + 1));
    block_offset_.assign(config_.num_sets() >> block_shift_, 0);
  }
  const std::uint32_t set = set_index(line_addr);
  std::uint32_t& block = block_offset_[set >> block_shift_];
  if (block == 0) block = build_block();
  Line* base = set_base(set);

  Line* victim = nullptr;
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Line& line = base[w];
    if (line.state == LineState::kPending) continue;
    if (line.state == LineState::kInvalid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.age > victim->age) victim = &line;
  }

  AllocateResult result;
  if (victim == nullptr) return result;  // every way pending: caller retries

  if (victim->state != LineState::kInvalid) {
    const std::uint32_t victim_addr =
        (victim->tag * config_.num_sets() + set) * config_.line_bytes;
    if (victim->state == LineState::kModified) {
      ++stats_.writebacks;
      result.writeback_line = victim_addr;
    }
    notify_transition(victim_addr, victim->state, LineState::kInvalid);
  }
  victim->tag = tag_of(line_addr);
  victim->state = LineState::kPending;
  make_most_recent(base, victim);
  result.ok = true;
  return result;
}

void Cache::fill(std::uint32_t line_addr, LineState state) {
  const std::uint32_t tag = tag_of(line_addr);
  Line* base = set_base(set_index(line_addr));
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Line& line = base[w];
    if (line.state == LineState::kPending && line.tag == tag) {
      SYNCPAT_ASSERT(state != LineState::kInvalid && state != LineState::kPending);
      line.state = state;
      make_most_recent(base, &line);
      notify_transition(line_addr, LineState::kPending, state);
      return;
    }
  }
  SYNCPAT_ASSERT_MSG(false, "fill() without a matching pending allocation");
}

void Cache::cancel_pending(std::uint32_t line_addr) {
  const std::uint32_t tag = tag_of(line_addr);
  Line* base = set_base(set_index(line_addr));
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Line& line = base[w];
    if (line.state == LineState::kPending && line.tag == tag) {
      line.state = LineState::kInvalid;
      return;
    }
  }
  SYNCPAT_ASSERT_MSG(false, "cancel_pending() without a pending allocation");
}

bool Cache::complete_upgrade(std::uint32_t line_addr) {
  Line* line = find(line_addr);
  if (line == nullptr || line->state == LineState::kPending) return false;
  SYNCPAT_ASSERT_MSG(line->state == LineState::kShared,
                     "upgrade completion on a non-Shared line");
  line->state = LineState::kModified;
  touch(line_addr, line);
  notify_transition(line_addr, LineState::kShared, LineState::kModified);
  return true;
}

const char* write_policy_name(WritePolicy p) {
  switch (p) {
    case WritePolicy::kWriteBack: return "write-back";
    case WritePolicy::kWriteThrough: return "write-through";
  }
  return "?";
}

WritePolicy write_policy_from_name(const std::string& name) {
  if (name == "write-back") return WritePolicy::kWriteBack;
  if (name == "write-through") return WritePolicy::kWriteThrough;
  throw std::invalid_argument(
      "write policy expects \"write-back\" or \"write-through\", got \"" +
      name + "\"");
}

bool Cache::access_write_through(std::uint32_t addr) {
  Line* line = find(addr);
  const bool hit = line != nullptr && line->state != LineState::kPending;
  if (hit) touch(addr, line);
  hit ? ++stats_.write_hits : ++stats_.write_misses;
  return hit;
}

void Cache::force_modified(std::uint32_t line_addr) {
  Line* line = find(line_addr);
  SYNCPAT_ASSERT_MSG(line != nullptr && line->state != LineState::kPending,
                     "force_modified on an absent line");
  const LineState old = line->state;
  line->state = LineState::kModified;
  touch(line_addr, line);
  notify_transition(line_addr, old, LineState::kModified);
}

SnoopResult Cache::snoop(std::uint32_t line_addr, bool exclusive_request) {
  SnoopResult result;
  Line* line = find(line_addr);
  if (line == nullptr || line->state == LineState::kPending) return result;
  result.had_line = true;
  result.was_dirty = line->state == LineState::kModified;
  const LineState old = line->state;
  if (exclusive_request) {
    line->state = LineState::kInvalid;
    result.invalidated = true;
    ++stats_.invalidations_received;
  } else {
    // Read snoop: every Illinois cache supplies; clean or dirty moves to
    // Shared (a dirty supplier's data also updates memory — the bus layer
    // models that transfer).
    line->state = LineState::kShared;
    ++stats_.supplies;
  }
  notify_transition(line_addr, old, line->state);
  return result;
}

LineState Cache::state(std::uint32_t addr) const {
  const Line* line = find(addr);
  return line != nullptr ? line->state : LineState::kInvalid;
}

}  // namespace syncpat::cache
