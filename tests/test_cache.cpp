#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cache/holder_directory.hpp"
#include "util/rng.hpp"

namespace syncpat::cache {
namespace {

CacheConfig small_config() {
  // 4 sets x 2 ways x 16-byte lines = 128 bytes: easy to force evictions.
  CacheConfig c;
  c.size_bytes = 128;
  c.line_bytes = 16;
  c.associativity = 2;
  return c;
}

// Addresses mapping to set 0 of the small config: multiples of 64.
constexpr std::uint32_t kSet0A = 0;
constexpr std::uint32_t kSet0B = 64;
constexpr std::uint32_t kSet0C = 128;

void fill_line(Cache& c, std::uint32_t line, LineState s) {
  ASSERT_TRUE(c.allocate(line).ok);
  c.fill(line, s);
}

TEST(Cache, GeometryDefaults) {
  const CacheConfig c;
  EXPECT_EQ(c.num_sets(), 2048u);
  EXPECT_EQ(c.line_addr(0x12345), 0x12340u);
}

TEST(Cache, MissThenFillHits) {
  Cache c(small_config());
  EXPECT_FALSE(c.access(0x10, AccessClass::kRead).hit);
  fill_line(c, 0x10, LineState::kExclusive);
  EXPECT_TRUE(c.access(0x10, AccessClass::kRead).hit);
  EXPECT_TRUE(c.access(0x1f, AccessClass::kRead).hit);  // same line
  EXPECT_FALSE(c.access(0x20, AccessClass::kRead).hit);  // next line
}

TEST(Cache, PendingLinesDoNotHit) {
  Cache c(small_config());
  ASSERT_TRUE(c.allocate(0x10).ok);
  EXPECT_EQ(c.state(0x10), LineState::kPending);
  EXPECT_FALSE(c.access(0x10, AccessClass::kRead).hit);
}

TEST(Cache, WriteHitOnExclusiveSilentlyModifies) {
  Cache c(small_config());
  fill_line(c, 0x10, LineState::kExclusive);
  const AccessResult r = c.access(0x10, AccessClass::kWrite);
  EXPECT_TRUE(r.hit);
  EXPECT_FALSE(r.needs_upgrade);
  EXPECT_EQ(c.state(0x10), LineState::kModified);
}

TEST(Cache, WriteHitOnSharedNeedsUpgrade) {
  Cache c(small_config());
  fill_line(c, 0x10, LineState::kShared);
  const AccessResult r = c.access(0x10, AccessClass::kWrite);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.needs_upgrade);
  EXPECT_EQ(c.state(0x10), LineState::kShared);  // unchanged until upgrade
  EXPECT_TRUE(c.complete_upgrade(0x10));
  EXPECT_EQ(c.state(0x10), LineState::kModified);
}

TEST(Cache, CompleteUpgradeFailsWhenLineGone) {
  Cache c(small_config());
  EXPECT_FALSE(c.complete_upgrade(0x10));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_config());
  fill_line(c, kSet0A, LineState::kExclusive);
  fill_line(c, kSet0B, LineState::kExclusive);
  // Touch A so B becomes LRU.
  EXPECT_TRUE(c.access(kSet0A, AccessClass::kRead).hit);
  ASSERT_TRUE(c.allocate(kSet0C).ok);
  EXPECT_EQ(c.state(kSet0B), LineState::kInvalid);  // B evicted
  EXPECT_NE(c.state(kSet0A), LineState::kInvalid);
}

TEST(Cache, DirtyEvictionReportsWriteBack) {
  Cache c(small_config());
  fill_line(c, kSet0A, LineState::kModified);
  fill_line(c, kSet0B, LineState::kModified);
  c.access(kSet0B, AccessClass::kRead);  // A is LRU
  const Cache::AllocateResult r = c.allocate(kSet0C);
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.writeback_line.has_value());
  EXPECT_EQ(*r.writeback_line, kSet0A);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteBack) {
  Cache c(small_config());
  fill_line(c, kSet0A, LineState::kShared);
  fill_line(c, kSet0B, LineState::kExclusive);
  c.access(kSet0B, AccessClass::kRead);
  const Cache::AllocateResult r = c.allocate(kSet0C);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.writeback_line.has_value());
}

TEST(Cache, AllocateFailsWhenAllWaysPending) {
  Cache c(small_config());
  ASSERT_TRUE(c.allocate(kSet0A).ok);
  ASSERT_TRUE(c.allocate(kSet0B).ok);
  EXPECT_FALSE(c.allocate(kSet0C).ok);
  // Completing one fill frees a victim candidate.
  c.fill(kSet0A, LineState::kExclusive);
  EXPECT_TRUE(c.allocate(kSet0C).ok);
}

TEST(Cache, CancelPendingFreesWay) {
  Cache c(small_config());
  ASSERT_TRUE(c.allocate(kSet0A).ok);
  c.cancel_pending(kSet0A);
  EXPECT_EQ(c.state(kSet0A), LineState::kInvalid);
}

TEST(Cache, ForceModified) {
  Cache c(small_config());
  fill_line(c, 0x10, LineState::kShared);
  c.force_modified(0x10);
  EXPECT_EQ(c.state(0x10), LineState::kModified);
}

TEST(Cache, StatsClassifyAccesses) {
  Cache c(small_config());
  c.access(0x10, AccessClass::kIFetch);   // miss
  fill_line(c, 0x10, LineState::kExclusive);
  c.access(0x10, AccessClass::kIFetch);   // hit
  c.access(0x10, AccessClass::kRead);     // hit
  c.access(0x20, AccessClass::kWrite);    // miss
  const CacheStats& s = c.stats();
  EXPECT_EQ(s.ifetch_misses, 1u);
  EXPECT_EQ(s.ifetch_hits, 1u);
  EXPECT_EQ(s.read_hits, 1u);
  EXPECT_EQ(s.write_misses, 1u);
  EXPECT_DOUBLE_EQ(s.write_hit_ratio(), 0.0);
}

TEST(Cache, WriteHitRatio) {
  Cache c(small_config());
  fill_line(c, 0x10, LineState::kExclusive);
  c.access(0x10, AccessClass::kWrite);
  c.access(0x10, AccessClass::kWrite);
  c.access(0x20, AccessClass::kWrite);
  EXPECT_NEAR(c.stats().write_hit_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, DifferentSetsDoNotConflict) {
  Cache c(small_config());
  // Lines 0x00, 0x10, 0x20, 0x30 map to sets 0..3.
  for (std::uint32_t line : {0x00u, 0x10u, 0x20u, 0x30u}) {
    fill_line(c, line, LineState::kExclusive);
  }
  for (std::uint32_t line : {0x00u, 0x10u, 0x20u, 0x30u}) {
    EXPECT_TRUE(c.access(line, AccessClass::kRead).hit) << line;
  }
}

// The snoop filter's directory against a plain reference under random
// updates.  P = 130 makes the pooled holder masks three words with a partial
// last one; holders must come back in ascending order through both the
// inline one-holder form and the masks, from holders() and, less the
// requester, from snoop_targets() for a snoop it does not answer; write-back
// counts are independent of holders; and erasing emptied slots (backward
// shift) must never lose a line that collided with them.  3000 lines force
// several table growths.  A read that two or more other holders share is
// answered, and settle_supplies() must then owe each processor exactly one
// supply per read answered while it held the line, however holders came and
// went in between.
TEST(HolderDirectory, MatchesReferenceUnderRandomUpdates) {
  constexpr std::uint32_t kProcs = 130;
  HolderDirectory dir(kProcs);
  struct RefLine {
    std::set<std::uint32_t> holders;
    std::uint32_t writebacks = 0;
  };
  std::map<std::uint32_t, RefLine> ref;
  std::vector<std::uint64_t> ref_owed(kProcs, 0);
  util::Rng rng(7);
  std::vector<std::uint32_t> out(kProcs);
  const auto others = [](const RefLine& r, std::uint32_t requester) {
    std::vector<std::uint32_t> v;
    for (const std::uint32_t p : r.holders) {
      if (p != requester) v.push_back(p);
    }
    return v;
  };
  const auto check_line = [&](std::uint32_t line, const RefLine& r) {
    const std::vector<std::uint32_t> want(r.holders.begin(), r.holders.end());
    const std::uint32_t n = dir.holders(line, out.data());
    ASSERT_EQ(std::vector<std::uint32_t>(out.begin(), out.begin() + n), want)
        << "line 0x" << std::hex << line;
    const auto requester = static_cast<std::uint32_t>(rng.below(kProcs));
    const HolderDirectory::SnoopTargets targets =
        dir.snoop_targets(line, requester, /*exclusive=*/true, out.data());
    ASSERT_EQ(targets.writebacks, r.writebacks);
    ASSERT_EQ(targets.answered, 0u);
    if (r.writebacks == 0) {
      ASSERT_EQ(std::vector<std::uint32_t>(out.begin(),
                                           out.begin() + targets.holders),
                others(r, requester))
          << "line 0x" << std::hex << line;
    } else {
      ASSERT_EQ(targets.holders, 0u);
    }
  };
  const auto check_settled = [&] {
    std::vector<std::uint64_t> owed(kProcs, 0);
    std::uint32_t last = 0;
    dir.settle_supplies([&](std::uint32_t p, std::uint64_t n) {
      EXPECT_TRUE(p >= last) << "credits out of id order";
      last = p;
      owed[p] = n;
    });
    ASSERT_EQ(owed, ref_owed);
    std::fill(ref_owed.begin(), ref_owed.end(), 0);
  };
  for (int op = 0; op < 200'000; ++op) {
    const auto line = static_cast<std::uint32_t>(rng.below(3000)) * 16;
    RefLine& r = ref[line];
    switch (rng.below(5)) {
      case 0:
      case 1: {
        const auto p = static_cast<std::uint32_t>(rng.below(kProcs));
        if (r.holders.erase(p) > 0) {
          dir.remove_holder(line, p);
        } else {
          r.holders.insert(p);
          dir.add_holder(line, p);
        }
        break;
      }
      case 2:
        ++r.writebacks;
        dir.add_writeback(line);
        break;
      case 3: {
        const auto requester = static_cast<std::uint32_t>(rng.below(kProcs));
        const HolderDirectory::SnoopTargets targets =
            dir.snoop_targets(line, requester, /*exclusive=*/false, out.data());
        const std::vector<std::uint32_t> want = others(r, requester);
        ASSERT_EQ(targets.writebacks, r.writebacks);
        if (r.writebacks > 0) {
          ASSERT_EQ(targets.answered + targets.holders, 0u);
        } else if (want.size() >= 2) {
          ASSERT_EQ(targets.answered, want.size());
          ASSERT_EQ(targets.holders, 0u);
          for (const std::uint32_t p : want) ++ref_owed[p];
        } else {
          ASSERT_EQ(targets.answered, 0u);
          ASSERT_EQ(std::vector<std::uint32_t>(out.begin(),
                                               out.begin() + targets.holders),
                    want);
        }
        break;
      }
      default:
        if (r.writebacks > 0) {
          --r.writebacks;
          dir.remove_writeback(line);
        }
        break;
    }
    if (op % 1000 == 0) check_line(line, r);
    if (op % 20'000 == 0) check_settled();
  }
  std::size_t live = 0;
  for (const auto& [line, r] : ref) {
    check_line(line, r);
    if (!r.holders.empty() || r.writebacks > 0) ++live;
  }
  check_settled();
  std::size_t tracked = 0;
  dir.for_each_line([&](std::uint32_t line, std::uint32_t holders,
                        std::uint32_t writebacks) {
    ++tracked;
    const RefLine& r = ref.at(line);
    EXPECT_EQ(holders, r.holders.size());
    EXPECT_EQ(writebacks, r.writebacks);
  });
  EXPECT_EQ(tracked, live) << "emptied lines must leave the table";
  // Settling twice owes nothing the second time.
  dir.settle_supplies([](std::uint32_t p, std::uint64_t n) {
    ADD_FAILURE() << "proc " << p << " owed " << n << " after a settle";
  });
}

}  // namespace
}  // namespace syncpat::cache
