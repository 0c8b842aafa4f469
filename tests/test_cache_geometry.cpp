// Cache geometry property sweep: the cache state machine must behave for
// any (size, line, associativity) combination, matching a flat array of
// lines operation for operation, and miss behaviour must respond to
// geometry the way caches do.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "util/rng.hpp"

namespace syncpat::cache {
namespace {

using Geometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class CacheGeometry : public ::testing::TestWithParam<Geometry> {
 protected:
  CacheConfig config() const {
    const auto [size, line, assoc] = GetParam();
    return CacheConfig{.size_bytes = size, .line_bytes = line,
                       .associativity = assoc};
  }
};

TEST_P(CacheGeometry, GeometryIsConsistent) {
  const CacheConfig c = config();
  EXPECT_EQ(c.num_sets() * c.line_bytes * c.associativity, c.size_bytes);
  Cache cache(c);
  EXPECT_EQ(cache.config().num_sets(), c.num_sets());
}

TEST_P(CacheGeometry, FillThenHitEverywhere) {
  const CacheConfig c = config();
  Cache cache(c);
  // Fill every set's first way, then every fill must hit.
  for (std::uint32_t set = 0; set < c.num_sets(); ++set) {
    const std::uint32_t addr = set * c.line_bytes;
    ASSERT_TRUE(cache.allocate(addr).ok);
    cache.fill(addr, LineState::kExclusive);
  }
  for (std::uint32_t set = 0; set < c.num_sets(); ++set) {
    EXPECT_TRUE(cache.access(set * c.line_bytes, AccessClass::kRead).hit);
  }
}

TEST_P(CacheGeometry, WorkingSetLargerThanCacheMisses) {
  const CacheConfig c = config();
  Cache cache(c);
  // March through 4x the cache size twice: second pass must still miss
  // everywhere the reuse distance exceeds the capacity (strict LRU).
  const std::uint32_t span = c.size_bytes * 4;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t addr = 0; addr < span; addr += c.line_bytes) {
      if (!cache.access(addr, AccessClass::kRead).hit) {
        const auto alloc = cache.allocate(addr);
        ASSERT_TRUE(alloc.ok);
        cache.fill(addr, LineState::kExclusive);
      }
    }
  }
  const CacheStats& s = cache.stats();
  // Every access in both passes missed (sequential sweep, LRU).
  EXPECT_EQ(s.read_hits, 0u);
  EXPECT_EQ(s.read_misses, 2u * span / c.line_bytes);
}

TEST_P(CacheGeometry, WorkingSetSmallerThanWayCapacityAlwaysHitsAfterWarmup) {
  const CacheConfig c = config();
  Cache cache(c);
  const std::uint32_t span = c.size_bytes / c.associativity;  // one way's worth
  auto touch_all = [&] {
    for (std::uint32_t addr = 0; addr < span; addr += c.line_bytes) {
      if (!cache.access(addr, AccessClass::kRead).hit) {
        const auto alloc = cache.allocate(addr);
        ASSERT_TRUE(alloc.ok);
        cache.fill(addr, LineState::kExclusive);
      }
    }
  };
  touch_all();  // warm-up
  const std::uint64_t misses_before = cache.stats().read_misses;
  touch_all();
  EXPECT_EQ(cache.stats().read_misses, misses_before);  // all hits
}

struct Transition {
  std::uint32_t line_addr;
  LineState from, to;
  bool operator==(const Transition&) const = default;
};

void record_transition(void* ctx, std::uint32_t line_addr, LineState from,
                       LineState to) {
  static_cast<std::vector<Transition>*>(ctx)->push_back({line_addr, from, to});
}

/// The cache as one flat array of num_sets * associativity lines, set-major,
/// with the set and tag taken by division: the reference the cache's own
/// storage must match operation for operation.
class FlatCache {
 public:
  explicit FlatCache(const CacheConfig& c)
      : c_(c), lines_(static_cast<std::size_t>(c.num_sets()) * c.associativity) {}

  AccessResult access(std::uint32_t addr, AccessClass cls) {
    Line* line = find(addr);
    AccessResult r;
    if (line != nullptr && line->state != LineState::kPending) {
      r.hit = true;
      line->lru = ++clock_;
      if (cls == AccessClass::kWrite) {
        if (line->state == LineState::kExclusive) {
          change(*line, line_of(addr), LineState::kModified);
        } else if (line->state == LineState::kShared) {
          r.needs_upgrade = true;
        }
      }
    }
    switch (cls) {
      case AccessClass::kIFetch:
        r.hit ? ++stats.ifetch_hits : ++stats.ifetch_misses;
        break;
      case AccessClass::kRead:
        r.hit ? ++stats.read_hits : ++stats.read_misses;
        break;
      case AccessClass::kWrite:
        r.hit ? ++stats.write_hits : ++stats.write_misses;
        if (r.needs_upgrade) ++stats.upgrades;
        break;
    }
    return r;
  }

  AccessResult access_or_pending(std::uint32_t addr, AccessClass cls) {
    if (state(addr) == LineState::kPending) return AccessResult{.pending = true};
    return access(addr, cls);
  }

  Cache::AllocateResult allocate(std::uint32_t line_addr) {
    const std::uint32_t set = set_of(line_addr);
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < c_.associativity; ++w) {
      Line& line = lines_[set * c_.associativity + w];
      if (line.state == LineState::kPending) continue;
      if (line.state == LineState::kInvalid) {
        victim = &line;
        break;
      }
      if (victim == nullptr || line.lru < victim->lru) victim = &line;
    }
    Cache::AllocateResult r;
    if (victim == nullptr) return r;
    if (victim->state != LineState::kInvalid) {
      const std::uint32_t victim_addr =
          (victim->tag * c_.num_sets() + set) * c_.line_bytes;
      if (victim->state == LineState::kModified) {
        ++stats.writebacks;
        r.writeback_line = victim_addr;
      }
      change(*victim, victim_addr, LineState::kInvalid);
    }
    victim->tag = tag_of(line_addr);
    victim->state = LineState::kPending;
    victim->lru = ++clock_;
    r.ok = true;
    return r;
  }

  void fill(std::uint32_t line_addr, LineState state) {
    Line& line = *find(line_addr);
    line.lru = ++clock_;
    change(line, line_addr, state);
  }

  void cancel_pending(std::uint32_t line_addr) {
    find(line_addr)->state = LineState::kInvalid;
  }

  bool complete_upgrade(std::uint32_t line_addr) {
    Line* line = find(line_addr);
    if (line == nullptr || line->state == LineState::kPending) return false;
    line->lru = ++clock_;
    change(*line, line_addr, LineState::kModified);
    return true;
  }

  void force_modified(std::uint32_t line_addr) {
    Line& line = *find(line_addr);
    line.lru = ++clock_;
    change(line, line_addr, LineState::kModified);
  }

  bool access_write_through(std::uint32_t addr) {
    Line* line = find(addr);
    const bool hit = line != nullptr && line->state != LineState::kPending;
    if (hit) line->lru = ++clock_;
    hit ? ++stats.write_hits : ++stats.write_misses;
    return hit;
  }

  SnoopResult snoop(std::uint32_t line_addr, bool exclusive) {
    SnoopResult r;
    Line* line = find(line_addr);
    if (line == nullptr || line->state == LineState::kPending) return r;
    r.had_line = true;
    r.was_dirty = line->state == LineState::kModified;
    if (exclusive) {
      r.invalidated = true;
      ++stats.invalidations_received;
      change(*line, line_addr, LineState::kInvalid);
    } else {
      ++stats.supplies;
      change(*line, line_addr, LineState::kShared);
    }
    return r;
  }

  LineState state(std::uint32_t addr) {
    const Line* line = find(addr);
    return line != nullptr ? line->state : LineState::kInvalid;
  }

  void valid_lines(std::vector<std::pair<std::uint32_t, LineState>>& out) const {
    out.clear();
    for (std::uint32_t i = 0; i < lines_.size(); ++i) {
      const Line& line = lines_[i];
      if (line.state == LineState::kInvalid) continue;
      const std::uint32_t set = i / c_.associativity;
      out.emplace_back((line.tag * c_.num_sets() + set) * c_.line_bytes,
                       line.state);
    }
  }

  CacheStats stats;
  std::vector<Transition> transitions;

 private:
  struct Line {
    std::uint32_t tag = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lru = 0;
  };

  std::uint32_t line_of(std::uint32_t addr) const {
    return addr / c_.line_bytes * c_.line_bytes;
  }
  std::uint32_t set_of(std::uint32_t addr) const {
    return addr / c_.line_bytes % c_.num_sets();
  }
  std::uint32_t tag_of(std::uint32_t addr) const {
    return addr / c_.line_bytes / c_.num_sets();
  }
  Line* find(std::uint32_t addr) {
    for (std::uint32_t w = 0; w < c_.associativity; ++w) {
      Line& line = lines_[set_of(addr) * c_.associativity + w];
      if (line.state != LineState::kInvalid && line.tag == tag_of(addr)) {
        return &line;
      }
    }
    return nullptr;
  }
  void change(Line& line, std::uint32_t line_addr, LineState to) {
    if (line.state != to) transitions.push_back({line_addr, line.state, to});
    line.state = to;
  }

  CacheConfig c_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.ifetch_hits, want.ifetch_hits);
  EXPECT_EQ(got.ifetch_misses, want.ifetch_misses);
  EXPECT_EQ(got.read_hits, want.read_hits);
  EXPECT_EQ(got.read_misses, want.read_misses);
  EXPECT_EQ(got.write_hits, want.write_hits);
  EXPECT_EQ(got.write_misses, want.write_misses);
  EXPECT_EQ(got.upgrades, want.upgrades);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.invalidations_received, want.invalidations_received);
  EXPECT_EQ(got.supplies, want.supplies);
}

/// A cache driven in lockstep with its flat reference.
struct Pair {
  Pair(const CacheConfig& c, std::uint64_t seed)
      : cache(c), ref(c), rng(seed) {
    hook();
  }
  /// The copy of `other` as it stands, drawing from a new stream.
  Pair(const Pair& other, std::uint64_t seed)
      : cache(other.cache), ref(other.ref), rng(seed), pending(other.pending) {
    hook();
  }
  void hook() { cache.set_transition_hook(&record_transition, &transitions); }

  /// One random operation on both sides; every return value, the touched
  /// line's state, the transitions, the statistics and the resident lines
  /// must agree afterwards.
  void step() {
    const CacheConfig& c = cache.config();
    const std::uint32_t addr =
        static_cast<std::uint32_t>(rng.below(c.size_bytes * 8) / 4 * 4);
    std::uint32_t line = c.line_addr(addr);
    const auto cls = static_cast<AccessClass>(rng.below(3));
    switch (rng.below(8)) {
      case 0:
      case 1: {
        const AccessResult got = cache.access(addr, cls);
        const AccessResult want = ref.access(addr, cls);
        EXPECT_EQ(got.hit, want.hit);
        EXPECT_EQ(got.needs_upgrade, want.needs_upgrade);
        EXPECT_FALSE(got.pending);
        if (want.needs_upgrade && rng.chance(0.5)) {
          EXPECT_EQ(cache.complete_upgrade(line), ref.complete_upgrade(line));
        } else if (!want.hit && ref.state(line) == LineState::kInvalid) {
          allocate(line);
        }
        break;
      }
      case 2: {
        const AccessResult got = cache.access_or_pending(addr, cls);
        const AccessResult want = ref.access_or_pending(addr, cls);
        EXPECT_EQ(got.hit, want.hit);
        EXPECT_EQ(got.needs_upgrade, want.needs_upgrade);
        EXPECT_EQ(got.pending, want.pending);
        break;
      }
      case 3: {
        const bool exclusive = rng.chance(0.5);
        const SnoopResult got = cache.snoop(line, exclusive);
        const SnoopResult want = ref.snoop(line, exclusive);
        EXPECT_EQ(got.had_line, want.had_line);
        EXPECT_EQ(got.was_dirty, want.was_dirty);
        EXPECT_EQ(got.invalidated, want.invalidated);
        break;
      }
      case 4:
        if (pending.empty()) break;
        {
          const std::size_t i = rng.below(pending.size());
          line = pending[i];
          pending[i] = pending.back();
          pending.pop_back();
        }
        if (rng.chance(0.25)) {
          cache.cancel_pending(line);
          ref.cancel_pending(line);
        } else {
          const auto state = static_cast<LineState>(1 + rng.below(3));
          cache.fill(line, state);
          ref.fill(line, state);
        }
        break;
      case 5:
        EXPECT_EQ(cache.access_write_through(addr),
                  ref.access_write_through(addr));
        break;
      case 6:
        switch (ref.state(line)) {
          case LineState::kInvalid:
            allocate(line);
            break;
          case LineState::kPending:
            break;
          default:
            cache.force_modified(line);
            ref.force_modified(line);
        }
        break;
      case 7:
        if (ref.state(line) != LineState::kExclusive &&
            ref.state(line) != LineState::kModified) {
          EXPECT_EQ(cache.complete_upgrade(line), ref.complete_upgrade(line));
        }
        break;
    }
    EXPECT_EQ(cache.state(addr), ref.state(addr));
    EXPECT_EQ(transitions, ref.transitions);
    transitions.clear();
    ref.transitions.clear();
    expect_same_stats(cache.stats(), ref.stats);
    resident.clear();
    cache.for_each_valid_line([&](std::uint32_t line_addr, LineState state) {
      resident.emplace_back(line_addr, state);
    });
    ref.valid_lines(ref_resident);
    EXPECT_EQ(resident, ref_resident);
    EXPECT_LE(cache.built_lines(),
              static_cast<std::size_t>(c.num_sets()) * c.associativity);
  }

  /// Allocates on both sides; most reservations are filled at once, the
  /// rest wait in `pending` for a later fill or cancel.
  void allocate(std::uint32_t line) {
    const Cache::AllocateResult got = cache.allocate(line);
    const Cache::AllocateResult want = ref.allocate(line);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.writeback_line, want.writeback_line);
    if (!want.ok) return;
    if (rng.chance(0.75)) {
      const auto state = static_cast<LineState>(1 + rng.below(3));
      cache.fill(line, state);
      ref.fill(line, state);
    } else {
      pending.push_back(line);
    }
  }

  Cache cache;
  FlatCache ref;
  util::Rng rng;
  std::vector<std::uint32_t> pending;
  std::vector<Transition> transitions;
  std::vector<std::pair<std::uint32_t, LineState>> resident, ref_resident;
};

// The cache matches a flat array of lines operation for operation, and so
// does a copy taken mid-sequence once the two are driven apart.
TEST_P(CacheGeometry, RandomizedStateMachineNeverBreaks) {
  const CacheConfig c = config();
  Pair original(c, 0xcace + c.size_bytes + c.associativity);
  EXPECT_EQ(original.cache.built_lines(), 0u);
  for (int i = 0; i < 10'000 && !HasFailure(); ++i) original.step();
  Pair copy(original, 0xc0b1);
  for (int i = 0; i < 10'000 && !HasFailure(); ++i) {
    original.step();
    copy.step();
  }
  // Sanity: statistics stayed coherent.
  const CacheStats& s = original.cache.stats();
  EXPECT_GT(s.read_hits + s.read_misses + s.write_hits + s.write_misses, 0u);
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_LE(s.write_hit_ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{64 * 1024, 16, 2},   // the paper's cache
                      Geometry{64 * 1024, 32, 2},   // wider lines
                      Geometry{64 * 1024, 16, 4},   // more ways
                      Geometry{16 * 1024, 16, 1},   // direct-mapped
                      Geometry{8 * 1024, 64, 8},    // small, highly assoc.
                      Geometry{128 * 1024, 16, 2},
                      // Fewer sets than one storage block.
                      Geometry{128, 16, 2},
                      Geometry{1024, 64, 4},
                      // One set of 64 ways: recency ranks far past 8 ways.
                      Geometry{1024, 16, 64}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      const std::uint32_t size = std::get<0>(info.param);
      return (size < 1024 ? std::to_string(size) + "b"
                          : std::to_string(size / 1024) + "k") +
             "_l" + std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace syncpat::cache
