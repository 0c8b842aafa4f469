#include "util/parse.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace syncpat::util {
namespace {

[[noreturn]] void reject(std::string_view text, std::string_view what,
                         const char* requirement) {
  throw std::invalid_argument(std::string(what) + " must be " + requirement +
                              ", got \"" + std::string(text) + "\"");
}

}  // namespace

bool try_parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  if (!try_parse_u64(text, value)) {
    reject(text, what, "a non-negative integer");
  }
  return value;
}

std::uint64_t parse_positive_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  if (!try_parse_u64(text, value) || value == 0) {
    reject(text, what, "a positive integer");
  }
  return value;
}

std::uint32_t parse_u32(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  if (!try_parse_u64(text, value) ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    reject(text, what, "a non-negative 32-bit integer");
  }
  return static_cast<std::uint32_t>(value);
}

std::uint32_t parse_positive_u32(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  if (!try_parse_u64(text, value) || value == 0 ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    reject(text, what, "a positive 32-bit integer");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace syncpat::util
