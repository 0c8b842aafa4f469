#include "util/flat_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace syncpat::util {
namespace {

struct TestSlot {
  std::uint32_t key = 0;
  std::uint32_t value = 0;  // 0 marks an empty slot
  [[nodiscard]] bool empty() const { return value == 0; }
};

constexpr std::uint32_t kSlots = FlatTable<TestSlot>::kFirstSlots;

/// The table's documented hash: Fibonacci hashing onto the top log2(slots)
/// bits.  The layout test below checks it through the iteration order.
std::uint32_t home_slot(std::uint32_t key, std::uint32_t slots) {
  const int bits = std::countr_zero(slots);
  return static_cast<std::uint32_t>(
      (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

/// The first `n` line addresses (multiples of 16) whose home is `slot`.
std::vector<std::uint32_t> keys_homed_at(std::uint32_t slot, std::uint32_t slots,
                                         std::size_t n) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t key = 16; keys.size() < n; key += 16) {
    if (home_slot(key, slots) == slot) keys.push_back(key);
  }
  return keys;
}

std::vector<std::uint32_t> table_order(const FlatTable<TestSlot>& table) {
  std::vector<std::uint32_t> keys;
  table.for_each([&](const TestSlot& s) { keys.push_back(s.key); });
  return keys;
}

TEST(FlatTable, AllocatesNothingBeforeItsFirstInsert) {
  FlatTable<TestSlot> table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(64), nullptr);
  EXPECT_TRUE(table_order(table).empty());
  table.find_or_insert(64).value = 1;
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(64), nullptr);
  EXPECT_EQ(table.find(64)->value, 1u);
  // Key 0 is an ordinary key: emptiness is the slot's, not the key's.
  table.find_or_insert(0).value = 2;
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_EQ(table.find(0)->value, 2u);
}

// Three keys homed at the last of the first slots wrap to slots 0 and 1,
// and a key homed at slot 0 probes past them to slot 2.  Erasing the first
// shifts every one of them back by one slot, across the end of the table.
TEST(FlatTable, WrapsAroundAndShiftsBackAcrossTheTableEnd) {
  FlatTable<TestSlot> table;
  const std::vector<std::uint32_t> last = keys_homed_at(kSlots - 1, kSlots, 3);
  const std::uint32_t first = keys_homed_at(0, kSlots, 1)[0];
  for (const std::uint32_t key : last) table.find_or_insert(key).value = key;
  table.find_or_insert(first).value = first;
  EXPECT_EQ(table_order(table),
            (std::vector<std::uint32_t>{last[1], last[2], first, last[0]}));

  table.erase(*table.find(last[0]));
  EXPECT_EQ(table_order(table),
            (std::vector<std::uint32_t>{last[2], first, last[1]}));
  EXPECT_EQ(table.find(last[0]), nullptr);
  for (const std::uint32_t key : {last[1], last[2], first}) {
    ASSERT_NE(table.find(key), nullptr) << key;
    EXPECT_EQ(table.find(key)->value, key);
  }
}

// A key erased from the middle of a collision run must leave every later
// member of the run reachable, and one whose home lies after the hole must
// stay put.
TEST(FlatTable, BackwardShiftKeepsEveryRunMemberReachable) {
  FlatTable<TestSlot> table;
  const std::vector<std::uint32_t> at4 = keys_homed_at(4, kSlots, 3);
  const std::uint32_t at6 = keys_homed_at(6, kSlots, 1)[0];
  for (const std::uint32_t key : at4) table.find_or_insert(key).value = key;
  // Slots 4, 5, 6 hold the run; the key homed at 6 lands in slot 7.
  table.find_or_insert(at6).value = at6;
  table.erase(*table.find(at4[1]));  // hole at 5: at4[2] moves, at6 moves
  EXPECT_EQ(table_order(table),
            (std::vector<std::uint32_t>{at4[0], at4[2], at6}));
  table.erase(*table.find(at4[0]));  // hole at 4: at4[2] moves, at6 stays
  EXPECT_EQ(table_order(table), (std::vector<std::uint32_t>{at4[2], at6}));
  EXPECT_EQ(table.find(at4[2])->value, at4[2]);
  EXPECT_EQ(table.find(at6)->value, at6);
}

// Random inserts, updates and erases over a key space small enough to
// collide and large enough to grow the table from its first slots to 4,096,
// checked against std::unordered_map after every operation on the touched
// key and in full at intervals.
TEST(FlatTable, MatchesUnorderedMapUnderRandomUpdates) {
  FlatTable<TestSlot> table;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  Rng rng(11);
  const auto check_all = [&] {
    ASSERT_EQ(table.size(), ref.size());
    for (const auto& [key, value] : ref) {
      const TestSlot* s = table.find(key);
      ASSERT_NE(s, nullptr) << "lost key " << key;
      ASSERT_EQ(s->value, value);
    }
    std::size_t visited = 0;
    table.for_each([&](const TestSlot& s) {
      ++visited;
      const auto it = ref.find(s.key);
      ASSERT_NE(it, ref.end()) << "stale key " << s.key;
      ASSERT_EQ(s.value, it->second);
    });
    ASSERT_EQ(visited, ref.size());
  };
  for (int op = 0; op < 200'000; ++op) {
    // About 2,250 live keys over the first half, then churn.
    const std::uint32_t space = op < 100'000 ? 3'000 : 4'000;
    const auto key = static_cast<std::uint32_t>(rng.below(space)) * 16;
    const bool insert = op < 100'000 ? rng.below(4) != 0 : rng.below(2) != 0;
    if (insert) {
      const auto value = static_cast<std::uint32_t>(rng.below(1'000)) + 1;
      table.find_or_insert(key).value = value;
      ref[key] = value;
    } else if (TestSlot* s = table.find(key)) {
      ASSERT_EQ(ref.erase(key), 1u) << "stale key " << key;
      table.erase(*s);
    } else {
      ASSERT_EQ(ref.count(key), 0u) << "lost key " << key;
    }
    const TestSlot* s = table.find(key);
    const auto it = ref.find(key);
    ASSERT_EQ(s != nullptr, it != ref.end()) << "key " << key;
    if (s != nullptr) {
      ASSERT_EQ(s->value, it->second);
    }
    if (op % 5'000 == 0) check_all();
  }
  check_all();
  EXPECT_GT(table.size(), 1'000u);
}

}  // namespace
}  // namespace syncpat::util
