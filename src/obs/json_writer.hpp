// Byte-level JSON output shared by the obs exporters: the escape rule for
// labels, and the append-only buffer that the Chrome trace exporter writes
// its events straight into.
//
// A writer reserves an upper bound on what it is about to write — one
// capacity check — then writes literal fragments, integers and hex line
// addresses through a raw cursor, with no formatting call and no temporary
// string per event.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace syncpat::obs {

/// `s` as the body of a JSON string: quotes and backslashes escaped, control
/// characters dropped.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
    out.push_back(c);
  }
  return out;
}

/// Write cursor into a JsonBuffer's reserved room.  It never checks for
/// space: the caller reserved enough for everything it writes.
class JsonCursor {
 public:
  explicit JsonCursor(char* at) : at_(at) {}

  /// A literal fragment or a name, copied as is.
  JsonCursor& put(std::string_view s) {
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
    return *this;
  }
  /// A decimal integer (printf's %d / %u / %llu for the same type).
  template <typename Int>
  JsonCursor& num(Int v) {
    at_ = std::to_chars(at_, at_ + 20, v).ptr;
    return *this;
  }
  /// A line address as "0x" and 8 lowercase hex digits (printf's "0x%08x").
  JsonCursor& hex8(std::uint32_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    at_[0] = '0';
    at_[1] = 'x';
    for (int i = 9; i >= 2; --i, v >>= 4) at_[i] = kDigits[v & 0xf];
    at_ += 10;
    return *this;
  }

  [[nodiscard]] char* end() const { return at_; }

 private:
  char* at_;
};

/// Append-only byte buffer, kept in chunks so that growing it never copies
/// or moves what is already written.  The last chunk's size() is its
/// writable room and `used_` its written prefix; earlier chunks are cut to
/// what was written in them.
class JsonBuffer {
 public:
  /// Room for at least `n` more bytes; write at most `n` through the cursor
  /// and hand it to commit().
  [[nodiscard]] JsonCursor reserve(std::size_t n) {
    if (chunks_.empty() || chunks_.back().size() - used_ < n) add_chunk(n);
    reserved_end_ = used_ + n;
    return JsonCursor(chunks_.back().data() + used_);
  }
  void commit(const JsonCursor& cursor) {
    used_ = static_cast<std::size_t>(cursor.end() - chunks_.back().data());
    SYNCPAT_ASSERT(used_ <= reserved_end_);
  }

  /// Bytes written.
  [[nodiscard]] std::size_t size() const { return full_ + used_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Appends the written bytes to `out`, in order.
  void append_to(std::string& out) const {
    for (std::size_t i = 0; i + 1 < chunks_.size(); ++i) out += chunks_[i];
    if (!chunks_.empty()) out.append(chunks_.back().data(), used_);
  }

 private:
  // A new chunk is as large as everything written before it, within these
  // bounds (or the reservation, if that is larger).
  static constexpr std::size_t kMinChunk = std::size_t{1} << 16;
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 22;

  void add_chunk(std::size_t n) {
    if (!chunks_.empty()) {
      chunks_.back().resize(used_);
      full_ += used_;
      used_ = 0;
    }
    chunks_.emplace_back(std::max(n, std::clamp(full_, kMinChunk, kMaxChunk)),
                         '\0');
  }

  std::vector<std::string> chunks_;
  std::size_t full_ = 0;  // bytes in the chunks before the last
  std::size_t used_ = 0;  // bytes written in the last chunk
  std::size_t reserved_end_ = 0;
};

}  // namespace syncpat::obs
