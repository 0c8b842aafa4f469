#include "mem/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace syncpat::mem {
namespace {

bus::Transaction make(bus::TxnKind kind) {
  bus::Transaction t;
  t.kind = kind;
  return t;
}

TEST(Memory, ReadTakesAccessCyclesToReachOutput) {
  Memory mem(MemoryConfig{});
  bus::Transaction rd = make(bus::TxnKind::kRead);
  mem.push_request(&rd);
  mem.tick();  // cycle 1 of service
  EXPECT_EQ(mem.pending_response(), nullptr);
  mem.tick();  // cycle 2
  EXPECT_EQ(mem.pending_response(), nullptr);
  mem.tick();  // cycle 3: done -> output
  EXPECT_EQ(mem.pending_response(), &rd);
  EXPECT_EQ(rd.phase, bus::TxnPhase::kMemOutput);
}

TEST(Memory, WritesAreAbsorbed) {
  Memory mem(MemoryConfig{});
  bus::Transaction wb = make(bus::TxnKind::kWriteBack);
  mem.push_request(&wb);
  mem.tick();
  mem.tick();
  mem.tick();
  EXPECT_EQ(mem.pending_response(), nullptr);
  std::vector<bus::Transaction*> absorbed;
  mem.drain_absorbed_into(absorbed);
  ASSERT_EQ(absorbed.size(), 1u);
  EXPECT_EQ(absorbed[0], &wb);
  mem.drain_absorbed_into(absorbed);
  EXPECT_TRUE(absorbed.empty());  // drained once
}

TEST(Memory, InputBufferDepthTwo) {
  Memory mem(MemoryConfig{});
  bus::Transaction a = make(bus::TxnKind::kRead);
  bus::Transaction b = make(bus::TxnKind::kRead);
  EXPECT_FALSE(mem.input_full());
  mem.push_request(&a);
  EXPECT_FALSE(mem.input_full());
  mem.push_request(&b);
  EXPECT_TRUE(mem.input_full());
  mem.tick();  // a enters service, input frees a slot
  EXPECT_FALSE(mem.input_full());
}

TEST(Memory, BackToBackRequestsPipelineThroughInput) {
  Memory mem(MemoryConfig{});
  bus::Transaction a = make(bus::TxnKind::kRead);
  bus::Transaction b = make(bus::TxnKind::kRead);
  mem.push_request(&a);
  mem.push_request(&b);
  int cycles_until_b = 0;
  while (mem.pending_response() != &a) {
    mem.tick();
    ++cycles_until_b;
    ASSERT_LT(cycles_until_b, 10);
  }
  mem.pop_response();
  while (mem.pending_response() != &b) {
    mem.tick();
    ++cycles_until_b;
    ASSERT_LT(cycles_until_b, 10);
  }
  EXPECT_EQ(cycles_until_b, 6);  // two three-cycle accesses, serialized
}

TEST(Memory, OutputFullBlocksModule) {
  Memory mem(MemoryConfig{.access_cycles = 1, .input_depth = 2,
                          .output_depth = 1});
  bus::Transaction a = make(bus::TxnKind::kRead);
  bus::Transaction b = make(bus::TxnKind::kRead);
  mem.push_request(&a);
  mem.push_request(&b);
  mem.tick();  // a done -> output
  EXPECT_EQ(mem.pending_response(), &a);
  mem.tick();  // b done but output full: module blocked
  mem.tick();
  EXPECT_EQ(mem.pending_response(), &a);
  mem.pop_response();
  mem.tick();  // b can now retire
  EXPECT_EQ(mem.pending_response(), &b);
}

TEST(Memory, IdleWhenEmpty) {
  Memory mem(MemoryConfig{});
  EXPECT_TRUE(mem.idle());
  bus::Transaction rd = make(bus::TxnKind::kRead);
  mem.push_request(&rd);
  EXPECT_FALSE(mem.idle());
}

TEST(Memory, ServedCounter) {
  Memory mem(MemoryConfig{.access_cycles = 1, .input_depth = 2,
                          .output_depth = 2});
  bus::Transaction a = make(bus::TxnKind::kRead);
  bus::Transaction b = make(bus::TxnKind::kWriteBack);
  mem.push_request(&a);
  mem.push_request(&b);
  for (int i = 0; i < 4; ++i) mem.tick();
  EXPECT_EQ(mem.requests_served(), 2u);
}

}  // namespace
}  // namespace syncpat::mem
