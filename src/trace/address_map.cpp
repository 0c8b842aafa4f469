#include "trace/address_map.hpp"

#include <cstdio>

#include "util/assert.hpp"

namespace syncpat::trace {

const char* region_name(Region r) {
  switch (r) {
    case Region::kCode: return "code";
    case Region::kPrivate: return "private";
    case Region::kShared: return "shared";
    case Region::kLock: return "lock";
  }
  return "?";
}

Region AddressMap::classify(std::uint32_t addr) {
  if (addr < kPrivateBase) return Region::kCode;
  if (addr < kSharedBase) return Region::kPrivate;
  if (addr < kLockBase) return Region::kShared;
  return Region::kLock;
}

std::uint32_t AddressMap::private_addr(std::uint32_t proc, std::uint32_t offset) {
  // The private region holds 64 macro-segments of 16 MiB.  Historically one
  // macro-segment per processor, which overflowed the region (and uint32
  // arithmetic) for proc >= 64 — the machine could never run at large P.
  // Processors beyond 63 now interleave into 256 KiB sub-segments of the
  // macro-segments: proc < 64 keeps its full original segment (bit-identical
  // addresses for every historical configuration), proc = 64q + r (q >= 1)
  // lives at sub-segment q of macro-segment r.  Working sets above 256 KiB
  // per processor are only representable below P = 64; the generators use
  // at most a few KiB of private-hot data.
  if (proc < kMacroSegments) {
    SYNCPAT_ASSERT(offset < kPrivateSegment);
    return kPrivateBase + proc * kPrivateSegment + offset;
  }
  SYNCPAT_ASSERT_MSG(proc < kMaxProcs,
                     "private address space supports at most 4096 processors");
  SYNCPAT_ASSERT_MSG(offset < kPrivateSubSegment,
                     "per-processor private working set above 256 KiB needs "
                     "fewer than 64 processors");
  return kPrivateBase + (proc % kMacroSegments) * kPrivateSegment +
         (proc / kMacroSegments) * kPrivateSubSegment + offset;
}

std::uint32_t AddressMap::shared_addr(std::uint32_t offset) {
  SYNCPAT_ASSERT(kSharedBase + offset < kLockBase);
  return kSharedBase + offset;
}

std::uint32_t AddressMap::lock_addr(std::uint32_t lock_id) {
  return kLockBase + lock_id * kLockStride;
}

std::uint32_t AddressMap::barrier_addr(std::uint32_t barrier_id) {
  return kLockBase + (1u << 25) + barrier_id * kLockStride;
}

std::uint32_t AddressMap::lock_id(std::uint32_t addr) {
  SYNCPAT_ASSERT(classify(addr) == Region::kLock);
  return (addr - kLockBase) / kLockStride;
}

std::string AddressMap::lock_label(std::uint32_t line) {
  char buf[32];
  if (classify(line) == Region::kLock && line < lock_addr(1u << 20)) {
    std::snprintf(buf, sizeof buf, "lock %u", lock_id(line));
  } else {
    std::snprintf(buf, sizeof buf, "0x%08x", line);
  }
  return buf;
}

std::uint32_t AddressMap::private_owner(std::uint32_t addr) {
  SYNCPAT_ASSERT(classify(addr) == Region::kPrivate);
  const std::uint32_t macro = (addr - kPrivateBase) / kPrivateSegment;
  const std::uint32_t sub =
      ((addr - kPrivateBase) % kPrivateSegment) / kPrivateSubSegment;
  // Sub-segment 0 of macro-segment r is processor r itself (covering every
  // address a sub-64 configuration can generate); higher sub-segments are
  // the interleaved large-P processors.
  return sub * kMacroSegments + macro;
}

}  // namespace syncpat::trace
