// Strict integer parsing shared by every CLI flag and environment knob.
//
// Policy (the SYNCPAT_SCALE policy, now repo-wide): a value the user wrote is
// either a clean decimal integer or an error — never a silent default.  atoi
// and bare strtoull both turn "foo" into 0, which downstream code then treats
// as a legitimate configuration; a mistyped flag must fail loudly instead.
// Rejected: empty strings, leading whitespace, signs (+/-), hex/octal
// prefixes, trailing junk, and values that overflow the target width.
#pragma once

#include <cstdint>
#include <string_view>

namespace syncpat::util {

/// Fills `out` and returns true only for a clean all-digit decimal that fits
/// in a u64.  Never throws; the building block for the throwing wrappers.
[[nodiscard]] bool try_parse_u64(std::string_view text, std::uint64_t& out);

/// Non-negative integer (0 allowed, e.g. --jobs 0 = all cores).  Throws
/// std::invalid_argument naming `what` on any malformed input.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what);

/// Positive integer (>= 1).  Throws std::invalid_argument naming `what` on
/// malformed input or 0.
[[nodiscard]] std::uint64_t parse_positive_u64(std::string_view text,
                                               std::string_view what);

/// 32-bit variants for config knobs stored as u32 (also rejects > 2^32-1).
[[nodiscard]] std::uint32_t parse_u32(std::string_view text,
                                      std::string_view what);
[[nodiscard]] std::uint32_t parse_positive_u32(std::string_view text,
                                               std::string_view what);

}  // namespace syncpat::util
