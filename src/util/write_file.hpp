// Whole-file output for the --trace-out and --metrics-out files that
// syncpat_cli and bench_paper write, and for the JSON reports of
// bench_scaling and bench_throughput.
#pragma once

#include <fstream>
#include <string>
#include <string_view>

namespace syncpat::util {

/// Writes `bytes` to `path`, replacing it.  False when the file cannot be
/// opened or the bytes do not all reach it: the stream is closed, which
/// flushes it, before it is checked, so a full device fails here too.
[[nodiscard]] inline bool write_file(const std::string& path,
                                     std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return !out.fail();
}

}  // namespace syncpat::util
