// Layout of the simulated 32-bit physical address space.
//
// The trace generators and the ideal analyzer need to agree on which
// addresses are code, per-processor private data, shared data, and lock
// words; this class is the single source of that truth.
//
//   [0x0000_0000, 0x4000_0000)  code
//   [0x4000_0000, 0x8000_0000)  private data, 16 MiB segment per processor
//                               (procs >= 64 interleave into 256 KiB
//                               sub-segments; see private_addr)
//   [0x8000_0000, 0xf000_0000)  shared data
//   [0xf000_0000, ...)          locks, one 64-byte-aligned word per lock
//
// Locks are spaced 64 bytes apart so that no two locks ever share a cache
// line for any line size up to 64 bytes (the paper's machine uses 16).
#pragma once

#include <cstdint>
#include <string>

namespace syncpat::trace {

enum class Region : std::uint8_t { kCode, kPrivate, kShared, kLock };

[[nodiscard]] const char* region_name(Region r);

class AddressMap {
 public:
  static constexpr std::uint32_t kCodeBase = 0x0000'0000u;
  static constexpr std::uint32_t kPrivateBase = 0x4000'0000u;
  static constexpr std::uint32_t kPrivateSegment = 16u << 20;  // 16 MiB / proc
  /// The private region holds 64 macro-segments; processors 64 and above
  /// interleave into 256 KiB sub-segments (see private_addr), capping the
  /// supported machine size at 64 * 64 = 4096 processors.
  static constexpr std::uint32_t kMacroSegments = 64;
  static constexpr std::uint32_t kPrivateSubSegment =
      kPrivateSegment / kMacroSegments;  // 256 KiB
  static constexpr std::uint32_t kMaxProcs = kMacroSegments * kMacroSegments;
  static constexpr std::uint32_t kSharedBase = 0x8000'0000u;
  static constexpr std::uint32_t kLockBase = 0xf000'0000u;
  static constexpr std::uint32_t kLockStride = 64;

  [[nodiscard]] static Region classify(std::uint32_t addr);

  [[nodiscard]] static std::uint32_t code_addr(std::uint32_t offset) {
    return kCodeBase + offset;
  }
  [[nodiscard]] static std::uint32_t private_addr(std::uint32_t proc,
                                                  std::uint32_t offset);
  [[nodiscard]] static std::uint32_t shared_addr(std::uint32_t offset);
  [[nodiscard]] static std::uint32_t lock_addr(std::uint32_t lock_id);
  /// Barriers live in their own slice of the lock region (above lock ids,
  /// below the queuing-lock spin flags).
  [[nodiscard]] static std::uint32_t barrier_addr(std::uint32_t barrier_id);
  /// Inverse of lock_addr.  Precondition: classify(addr) == kLock.
  [[nodiscard]] static std::uint32_t lock_id(std::uint32_t addr);
  /// Report label of a lock's cache line: "lock N" for lock ids in the lock
  /// region, the hex line address (barriers, spin flags, ...) otherwise.
  [[nodiscard]] static std::string lock_label(std::uint32_t line);
  /// Which processor owns a private address.
  [[nodiscard]] static std::uint32_t private_owner(std::uint32_t addr);

  /// Shared data plus lock words count as "shared" references.
  [[nodiscard]] static bool is_shared_data(std::uint32_t addr) {
    const Region r = classify(addr);
    return r == Region::kShared || r == Region::kLock;
  }
};

}  // namespace syncpat::trace
