#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fuzz/render.hpp"

namespace syncbench {

using namespace syncpat;

std::string conservation_error(const core::SimulationResult& r) {
  if (r.per_proc.size() != r.num_procs) {
    return "per-processor results " + std::to_string(r.per_proc.size()) +
           " != num_procs " + std::to_string(r.num_procs);
  }
  std::uint64_t max_completion = 0;
  for (std::size_t p = 0; p < r.per_proc.size(); ++p) {
    const core::ProcResult& pr = r.per_proc[p];
    const std::uint64_t counted = pr.work_cycles + pr.total_stalls();
    if (counted != pr.completion_cycle) {
      return "proc " + std::to_string(p) + ": work+stalls=" +
             std::to_string(counted) + " != completion_cycle=" +
             std::to_string(pr.completion_cycle);
    }
    max_completion = std::max(max_completion, pr.completion_cycle);
  }
  if (r.run_time != max_completion) {
    return "run_time=" + std::to_string(r.run_time) +
           " != max completion cycle " + std::to_string(max_completion);
  }
  if (r.locks.transfers > r.locks.acquisitions) {
    return "transfers " + std::to_string(r.locks.transfers) +
           " > acquisitions " + std::to_string(r.locks.acquisitions);
  }
  return {};
}

std::uint64_t result_digest(const core::SimulationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : fuzz::render_result(r)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, label, hex;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed >> label >> hex) || hex.size() != 16) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected <workload> <seed> <label> <hex16>");
    }
    digests_[{workload, seed, label}] = std::stoull(hex, nullptr, 16);
  }
}

std::optional<std::uint64_t> DigestBook::expected(const std::string& workload,
                                                  std::uint64_t seed,
                                                  const std::string& label) const {
  const auto it = digests_.find({workload, seed, label});
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

bool DigestBook::covers(const std::string& workload, std::uint64_t seed) const {
  const auto it = digests_.lower_bound({workload, seed, std::string()});
  return it != digests_.end() && std::get<0>(it->first) == workload &&
         std::get<1>(it->first) == seed;
}

CellCheck check_cell(const std::string& label,
                     const core::CellResult& result, const DigestBook& book,
                     const std::string& workload, std::uint64_t seed) {
  CellCheck c;
  if (!result.ok()) {
    c.ok = false;
    c.reason = "error: " + result.error;
    return c;
  }
  const core::SimulationResult& r = result.outcome.sim;
  c.digest = result_digest(r);
  if (std::string err = conservation_error(r); !err.empty()) {
    c.ok = false;
    c.reason = "conservation: " + err;
    return c;
  }
  if (book.covers(workload, seed)) {
    const std::optional<std::uint64_t> want =
        book.expected(workload, seed, label);
    if (!want) {
      c.ok = false;
      c.reason = "digest: no recorded digest for this cell";
    } else if (*want != c.digest) {
      c.ok = false;
      c.reason = "digest: " + hex64(c.digest) + " != recorded " + hex64(*want);
    }
  }
  return c;
}

}  // namespace syncbench
