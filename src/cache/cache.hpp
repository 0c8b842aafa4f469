// Per-processor cache with Illinois-protocol (MESI + cache-to-cache supply)
// coherence state (paper §2.2).
//
// Default geometry matches the Sequent Symmetry Model B model: 64 KB, 2-way
// set associative, 16-byte lines, write-back with write-allocate, LRU
// replacement.  The cache is a pure state machine — all timing lives in the
// bus/memory/simulator layers.
//
// Illinois specifics modeled here:
//  * a read miss filled from memory installs Exclusive (no other cache had
//    the line — otherwise it would have been supplied cache-to-cache);
//  * a read miss supplied by another cache installs Shared;
//  * any cache holding the line supplies it on a snoop read (clean or
//    dirty); a dirty supplier simultaneously updates memory;
//  * write hit on Exclusive is silent (-> Modified); write hit on Shared
//    requires a bus invalidation (upgrade) before the write is done.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace syncpat::cache {

enum class LineState : std::uint8_t {
  kInvalid = 0,
  kShared,     // clean, possibly in other caches
  kExclusive,  // clean, only copy (Illinois "valid-exclusive")
  kModified,   // dirty, only copy
  kPending,    // allocated, fill in flight
};

[[nodiscard]] const char* state_name(LineState s);

enum class AccessClass : std::uint8_t { kIFetch, kRead, kWrite };

/// Write policy (§4.2 discusses write-through as the regime where weak
/// ordering pays off).  Write-back is the paper's machine.
enum class WritePolicy : std::uint8_t { kWriteBack, kWriteThrough };

[[nodiscard]] const char* write_policy_name(WritePolicy p);
/// Strict: accepts exactly "write-back" or "write-through"; anything else
/// throws std::invalid_argument naming the offending text.
[[nodiscard]] WritePolicy write_policy_from_name(const std::string& name);

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 16;
  std::uint32_t associativity = 2;

  [[nodiscard]] std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * associativity);
  }
  [[nodiscard]] std::uint32_t line_addr(std::uint32_t addr) const {
    return addr & ~(line_bytes - 1);
  }
};

/// Result of a processor-side access attempt.
struct AccessResult {
  bool hit = false;
  // Write hit on a Shared line: data present but an invalidation of other
  // copies must complete before the write is performed.
  bool needs_upgrade = false;
  // Only set by access_or_pending(): the line has a fill in flight, nothing
  // was counted or touched — merge into or wait on the in-flight transaction.
  bool pending = false;
};

/// Result of a bus-side snoop.
struct SnoopResult {
  bool had_line = false;   // line was present (non-pending)
  bool was_dirty = false;  // line was Modified (memory must be updated)
  bool invalidated = false;
};

struct CacheStats {
  std::uint64_t ifetch_hits = 0, ifetch_misses = 0;
  std::uint64_t read_hits = 0, read_misses = 0;
  std::uint64_t write_hits = 0, write_misses = 0;
  std::uint64_t upgrades = 0;     // write hits that needed an invalidation
  std::uint64_t writebacks = 0;   // dirty evictions
  std::uint64_t invalidations_received = 0;
  // Cache-to-cache supplies provided: by snoop(), or booked in bulk for the
  // reads the simulator's holder directory answered (exact whenever
  // Simulator::run() or step() has returned).
  std::uint64_t supplies = 0;

  [[nodiscard]] double write_hit_ratio() const {
    const double total = static_cast<double>(write_hits + write_misses);
    return total > 0.0 ? static_cast<double>(write_hits) / total : 0.0;
  }
  [[nodiscard]] double read_hit_ratio() const {
    const double total =
        static_cast<double>(ifetch_hits + ifetch_misses + read_hits + read_misses);
    return total > 0.0
               ? static_cast<double>(ifetch_hits + read_hits) / total
               : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }

  /// Processor-side access.  On a hit the LRU order is updated and (for writes on
  /// E/M lines) the state silently moves to Modified; a write hit on Shared
  /// reports needs_upgrade and leaves the state unchanged until
  /// complete_upgrade().  On a miss nothing changes (caller then allocates).
  AccessResult access(std::uint32_t addr, AccessClass cls);

  /// As access(), except a line with a fill in flight reports `pending`
  /// (counting nothing and touching nothing) instead of registering a miss.
  /// One tag lookup where the processor's issue path previously needed a
  /// state() probe followed by access().
  AccessResult access_or_pending(std::uint32_t addr, AccessClass cls);

  /// Reserves a way for an incoming line: evicts the LRU non-pending way
  /// and marks the new line Pending.  Returns the dirty victim's line
  /// address if a write-back is required, nullopt otherwise.  Fails (returns
  /// false via `ok`) when every way in the set is Pending.
  struct AllocateResult {
    bool ok = false;
    std::optional<std::uint32_t> writeback_line;
  };
  AllocateResult allocate(std::uint32_t line_addr);

  /// Completes a fill started by allocate().
  void fill(std::uint32_t line_addr, LineState state);

  /// Abandons a Pending reservation (used if an in-flight fill is obsoleted).
  void cancel_pending(std::uint32_t line_addr);

  /// Upgrade (bus invalidation we requested) completed: Shared -> Modified.
  /// If the line was invalidated while the upgrade was queued the caller
  /// must instead turn the write into a full miss; returns false then.
  bool complete_upgrade(std::uint32_t line_addr);

  /// Atomic operation completed on a line we already hold (forced lock
  /// transactions): the line becomes Modified regardless of S/E/M.
  void force_modified(std::uint32_t line_addr);

  /// Write-through store: counts the hit/miss, updates LRU order, and leaves the
  /// coherence state unchanged (the write itself goes to memory on the bus;
  /// no line is ever dirtied and no allocation happens on a miss).
  /// Returns true on a hit.
  bool access_write_through(std::uint32_t addr);

  /// Bus-side snoop for a transaction issued by another cache.
  /// `exclusive_request` is true for ReadX/Upgrade (requester wants
  /// ownership) and false for Read.
  SnoopResult snoop(std::uint32_t line_addr, bool exclusive_request);

  /// Books `n` supplies of lines held Shared, for read snoops the caller
  /// answered without snoop(): like snoop() on a Shared line, a supply
  /// changes no line and calls no hook.
  void book_supplies(std::uint64_t n) { stats_.supplies += n; }

  /// Current state of a line (kInvalid if absent).
  [[nodiscard]] LineState state(std::uint32_t addr) const;

  /// Coherence-transition hook (the simulator's holder directory, invariant
  /// checker and coherence trace): called as
  /// hook(ctx, line_addr, from, to) on every observable state change (silent
  /// E->M upgrades, fills, upgrades, snoops, evictions).  Pending-state
  /// bookkeeping transitions are not reported.  Null (the default) costs one
  /// branch per transition.
  using TransitionHook = void (*)(void* ctx, std::uint32_t line_addr,
                                  LineState from, LineState to);
  void set_transition_hook(TransitionHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

  /// Visits every resident (non-Invalid) line as fn(line_addr, state), in
  /// ascending set order and way order within a set.  Used by the invariant
  /// checker's run-end MESI sweep.
  template <typename Fn>
  void for_each_valid_line(Fn&& fn) const {
    const std::uint32_t num_sets = config_.num_sets();
    for (std::uint32_t set = 0; set < num_sets; ++set) {
      const Line* base = set_base(set);
      for (std::uint32_t way = 0; way < config_.associativity; ++way) {
        const Line& line = base[way];
        if (line.state == LineState::kInvalid) continue;
        const std::uint32_t line_addr =
            (line.tag * num_sets + set) * config_.line_bytes;
        fn(line_addr, line.state);
      }
    }
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// Lines this cache has built storage for: kBlockSets sets' worth of ways
  /// for every block in which it has allocated a line, 0 for a fresh cache
  /// and never more than num_sets * associativity.
  [[nodiscard]] std::size_t built_lines() const {
    return pool_.size() - block_lines_;
  }

  /// Sets per storage block (fewer when the cache has fewer sets).  A block
  /// is built the first time a line is allocated in one of its sets.
  static constexpr std::uint32_t kBlockSets = 16;
  /// The most ways a set can have: its recency ranks fit in a byte.
  static constexpr std::uint32_t kMaxAssociativity = 256;

 private:
  // Eight bytes.  LRU order is a recency rank per way: the ways of a set
  // hold the ranks 0 (most recent) to associativity - 1, one each.  Using a
  // line moves it to rank 0 and ages the ways that were more recent by one,
  // so among the lines ever used the ranks are exactly the order of last use.
  struct Line {
    std::uint32_t tag = 0;
    LineState state = LineState::kInvalid;
    std::uint8_t age = 0;  // recency rank within the set, 0 = most recent
  };
  static_assert(sizeof(Line) == 8);

  // line_bytes and num_sets are asserted powers of two, so the set/tag split
  // reduces to shifts and a mask (this is the hottest path in the simulator).
  [[nodiscard]] std::uint32_t set_index(std::uint32_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint32_t tag_of(std::uint32_t addr) const {
    return addr >> tag_shift_;
  }
  /// The set's first way: in its block if built, else in the empty block.
  [[nodiscard]] Line* set_base(std::uint32_t set) {
    return pool_.data() + block_offset_[set >> block_shift_] +
           (set & block_set_mask_) * config_.associativity;
  }
  [[nodiscard]] const Line* set_base(std::uint32_t set) const {
    return const_cast<Cache*>(this)->set_base(set);
  }
  [[nodiscard]] Line* find(std::uint32_t addr);
  [[nodiscard]] const Line* find(std::uint32_t addr) const;
  /// Appends an all-Invalid block to the pool and returns its offset.
  std::uint32_t build_block();
  /// Makes `line`, a way of the set at `base`, the set's most recent.
  void make_most_recent(Line* base, Line* line) {
    const std::uint8_t age = line->age;
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (base[w].age < age) ++base[w].age;
    }
    line->age = 0;
  }
  /// make_most_recent() for a line found at `addr`; a line that is already
  /// the most recent costs one compare and writes nothing.
  void touch(std::uint32_t addr, Line* line) {
    if (line->age != 0) make_most_recent(set_base(set_index(addr)), line);
  }
  AccessResult access_line(Line* line, std::uint32_t addr, AccessClass cls);
  void notify_transition(std::uint32_t line_addr, LineState from,
                         LineState to) {
    if (hook_ != nullptr && from != to) hook_(hook_ctx_, line_addr, from, to);
  }

  CacheConfig config_;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_mask_ = 0;
  std::uint32_t tag_shift_ = 0;
  // block_shift_ before the first allocate(): every set (num_sets <= 2^31)
  // maps to block_offset_[0].
  static constexpr std::uint32_t kSharedOffsetShift = 31;
  std::uint32_t block_shift_ = 0;     // log2(sets per block)
  std::uint32_t block_set_mask_ = 0;  // sets per block - 1
  std::uint32_t block_lines_ = 0;     // sets per block * associativity
  // Per block of sets: the offset of its first line in pool_.  Every entry
  // starts at 0, the pool's leading all-Invalid block, which nothing ever
  // writes: a lookup there misses without a branch on whether the block is
  // built, and allocate() is the only path that builds one, as a copy of it
  // (its ways are ranked 0 to associativity - 1 in way order).  Until the
  // first allocate() one entry stands for every block (kSharedOffsetShift),
  // so a cache that has allocated nothing holds 4 bytes of offsets, not one
  // per block: 512 bytes at the default geometry, times P caches at set-up.
  std::vector<std::uint32_t> block_offset_;
  std::vector<Line> pool_;  // the empty block, then built blocks, set-major
  CacheStats stats_;
  TransitionHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace syncpat::cache
