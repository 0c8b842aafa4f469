#include "fuzz/fuzz_case.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cache/cache.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace syncpat::fuzz {
namespace {

// Generation bounds.  Workloads are deliberately small: every case runs
// several simulations (one per-cycle under the invariant checker), and the
// oracles care about conservation properties, which hold — or break — at any
// trace length.
constexpr std::uint32_t kMaxProcs = 12;
constexpr std::uint64_t kMinRefs = 200;
constexpr std::uint64_t kMaxRefs = 3000;

std::string double_text(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double double_from_text(const std::string& s, const std::string& key) {
  if (s.empty()) {
    throw std::invalid_argument("empty value for " + key + " in repro");
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    throw std::invalid_argument("malformed value for " + key + " in repro: \"" +
                                s + "\"");
  }
  return v;
}

/// Uniform double in [lo, hi) quantized to 1/256 steps: coarse enough that a
/// repro file stays readable, fine enough to explore the space.
double quantized(util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng.below(256)) / 256.0);
}

}  // namespace

FuzzCase FuzzCase::generate(std::uint64_t master_seed, std::uint64_t index) {
  // One independent stream per case: never draw from a shared run-level RNG,
  // so case N is the same whether or not cases 0..N-1 ran first.
  util::Rng rng(util::SplitMix64(master_seed ^ (index * 0x9e3779b97f4a7c15ULL))
                    .next());

  FuzzCase c;
  c.index = index;
  c.master_seed = master_seed;

  // Machine: geometry constrained so every combination is legal (power-of-two
  // sets, bus at most one line wide).
  c.num_procs = static_cast<std::uint32_t>(rng.range(1, kMaxProcs));
  c.line_bytes = 8u << rng.below(4);                       // 8..64
  c.associativity = 1u << rng.below(3);                    // 1/2/4
  c.sets_log2 = static_cast<std::uint32_t>(rng.range(4, 10));
  c.bus_bytes = 4u << rng.below(3);                        // 4/8/16
  if (c.bus_bytes > c.line_bytes) c.bus_bytes = c.line_bytes;
  c.buffer_depth = static_cast<std::uint32_t>(rng.range(1, 8));
  c.mem_cycles = static_cast<std::uint32_t>(rng.range(1, 16));
  c.mem_in_depth = static_cast<std::uint32_t>(rng.range(1, 4));
  c.mem_out_depth = static_cast<std::uint32_t>(rng.range(1, 4));
  c.consistency = rng.chance(0.5) ? bus::ConsistencyModel::kWeak
                                  : bus::ConsistencyModel::kSequential;
  c.write_policy = rng.chance(0.25) ? cache::WritePolicy::kWriteThrough
                                    : cache::WritePolicy::kWriteBack;
  // Historical 7-scheme draw, frozen: all_scheme_kinds() has since grown
  // (MCS, CLH), and drawing from the live list would change this draw's
  // modulus and re-randomize every historical (seed, index) case.  The new
  // schemes enter via an override draw appended after all historical draws.
  constexpr sync::SchemeKind kHistoricalSchemes[] = {
      sync::SchemeKind::kQueuing,    sync::SchemeKind::kQueuingExact,
      sync::SchemeKind::kTtas,       sync::SchemeKind::kTas,
      sync::SchemeKind::kTasBackoff, sync::SchemeKind::kTicket,
      sync::SchemeKind::kAnderson};
  c.scheme = kHistoricalSchemes[rng.below(7)];

  // Workload.
  c.workload_seed = rng.next_u64();
  c.refs_per_proc = static_cast<std::uint64_t>(
      rng.range(static_cast<std::int64_t>(kMinRefs),
                static_cast<std::int64_t>(kMaxRefs)));
  c.data_ref_fraction = quantized(rng, 0.15, 0.55);
  c.work_cycles_per_ref = quantized(rng, 1.0, 6.0);
  c.private_fraction = quantized(rng, 0.0, 0.9);
  c.write_fraction = quantized(rng, 0.05, 0.5);
  c.shared_rerefs = quantized(rng, 0.0, 0.9);
  c.shared_affinity = quantized(rng, 0.0, 0.9);
  c.cold_fraction = rng.chance(0.3) ? quantized(rng, 0.0, 0.3) : 0.0;
  c.lock_pairs = rng.below(64);
  c.nested_pairs = c.lock_pairs > 1 ? rng.below(c.lock_pairs / 2 + 1) : 0;
  c.cs_work_cycles = quantized(rng, 10.0, 300.0);
  c.num_locks = static_cast<std::uint32_t>(rng.range(1, 8));
  c.dominant_weight = quantized(rng, 1.0 / c.num_locks, 1.0);
  c.cs_region_bias = quantized(rng, 0.0, 0.95);
  c.short_fraction = rng.chance(0.25) ? quantized(rng, 0.0, 0.5) : 0.0;
  c.partitioned = rng.chance(0.2);
  c.barriers = rng.chance(0.3) ? rng.below(5) : 0;

  // PR 9 axes, drawn strictly after every historical field so an old
  // (seed, index) pair reproduces its historical machine+workload half
  // bit-for-bit before the new draws perturb the stream.
  constexpr bus::DisciplineKind kDisciplines[] = {
      bus::DisciplineKind::kRoundRobin, bus::DisciplineKind::kFixedPriority,
      bus::DisciplineKind::kFcfs};
  c.bus_discipline = kDisciplines[rng.below(bus::kNumDisciplines)];
  // (Historically tas x fixed-priority was rerouted to fcfs here — pure
  // priority starved a plain test&set releaser forever.  The discipline's
  // aging escape bounds that inversion now, so the combination terminates
  // and fuzzes like any other.  The reroute rewrote the field *after* the
  // draw, so deleting it leaves the RNG stream untouched.)
  if (rng.chance(0.25)) {
    c.mem_model = core::MemModelKind::kDsm;
    c.dsm_nodes = 1u << rng.below(3);  // 1/2/4 home nodes
    c.dsm_remote_cycles = static_cast<std::uint32_t>(rng.range(4, 48));
  }
  // Occasionally a large machine (the PR 9 hardening sweep's territory).
  // The workload shrinks with it: every case also runs per-cycle under the
  // invariant checker, and P x refs is the cost driver.
  if (rng.chance(0.15)) {
    constexpr std::uint32_t kBigProcs[] = {16, 24, 32, 48, 64, 96, 128};
    c.num_procs = kBigProcs[rng.below(7)];
    c.refs_per_proc = 50 + rng.below(251);  // 50..300
    c.lock_pairs = rng.below(9);
    c.nested_pairs = c.lock_pairs > 1 ? rng.below(c.lock_pairs / 2 + 1) : 0;
    c.barriers = rng.chance(0.3) ? rng.below(3) : 0;
  }
  // PR 10 axis, appended after every prior draw (same reproducibility rule
  // as the PR 9 block): sometimes override the frozen 7-scheme draw with one
  // of the list-based queue locks, so MCS and CLH get fuzz coverage without
  // re-randomizing historical cases' machine/workload halves.
  if (rng.chance(0.2)) {
    c.scheme = rng.chance(0.5) ? sync::SchemeKind::kMcs
                               : sync::SchemeKind::kClh;
  }
  return c;
}

core::MachineConfig FuzzCase::machine_config() const {
  core::MachineConfig cfg;
  cfg.num_procs = num_procs;
  cfg.cache.line_bytes = line_bytes;
  cfg.cache.associativity = associativity;
  cfg.cache.size_bytes = line_bytes * associativity * (1u << sets_log2);
  cfg.write_policy = write_policy;
  cfg.bus_bytes = bus_bytes;
  cfg.cache_bus_buffer_depth = buffer_depth;
  cfg.memory.access_cycles = mem_cycles;
  cfg.memory.input_depth = mem_in_depth;
  cfg.memory.output_depth = mem_out_depth;
  cfg.consistency = consistency;
  cfg.lock_scheme = scheme;
  cfg.bus_discipline = bus_discipline;
  cfg.model = mem_model;
  cfg.dsm.nodes = dsm_nodes;
  cfg.dsm.remote_access_cycles = dsm_remote_cycles;
  return cfg;
}

workload::BenchmarkProfile FuzzCase::profile() const {
  workload::BenchmarkProfile p;
  p.name = "fuzz" + std::to_string(index);
  p.num_procs = num_procs;
  p.refs_per_proc = refs_per_proc;
  p.data_ref_fraction = data_ref_fraction;
  p.work_cycles_per_ref = work_cycles_per_ref;
  p.locality.private_fraction = private_fraction;
  p.locality.write_fraction = write_fraction;
  p.locality.shared_rerefs = shared_rerefs;
  p.locality.shared_affinity = shared_affinity;
  p.locality.cold_fraction = cold_fraction;
  p.locking.pairs_per_proc = lock_pairs;
  p.locking.nested_per_proc = nested_pairs;
  p.locking.cs_work_cycles = cs_work_cycles;
  p.locking.num_locks = num_locks;
  p.locking.dominant_weight = dominant_weight;
  p.locking.cs_region_bias = cs_region_bias;
  p.locking.short_fraction = short_fraction;
  p.locking.partitioned = partitioned;
  p.locking.barriers_per_proc = barriers;
  p.seed = workload_seed;
  return p;
}

std::string FuzzCase::describe() const {
  std::ostringstream out;
  out << "case " << index << ": p" << num_procs << " "
      << sync::scheme_kind_name(scheme) << "/"
      << bus::consistency_name(consistency) << "/"
      << cache::write_policy_name(write_policy) << " cache " << line_bytes
      << "B/" << associativity << "w/2^" << sets_log2 << " bus " << bus_bytes
      << "B buf " << buffer_depth << " mem " << mem_cycles << "cy, refs "
      << refs_per_proc << " pairs " << lock_pairs << " locks " << num_locks
      << " barriers " << barriers << " arb "
      << bus::discipline_name(bus_discipline);
  if (mem_model == core::MemModelKind::kDsm) {
    out << " dsm " << dsm_nodes << "n/+" << dsm_remote_cycles << "cy";
  }
  return out.str();
}

std::string FuzzCase::to_text() const {
  std::ostringstream out;
  out << "syncpat-fuzz-case 1\n";
  out << "index " << index << "\n";
  out << "master_seed " << master_seed << "\n";
  out << "num_procs " << num_procs << "\n";
  out << "line_bytes " << line_bytes << "\n";
  out << "associativity " << associativity << "\n";
  out << "sets_log2 " << sets_log2 << "\n";
  out << "bus_bytes " << bus_bytes << "\n";
  out << "buffer_depth " << buffer_depth << "\n";
  out << "mem_cycles " << mem_cycles << "\n";
  out << "mem_in_depth " << mem_in_depth << "\n";
  out << "mem_out_depth " << mem_out_depth << "\n";
  out << "consistency " << bus::consistency_name(consistency) << "\n";
  out << "write_policy " << cache::write_policy_name(write_policy) << "\n";
  out << "scheme " << sync::scheme_kind_name(scheme) << "\n";
  out << "workload_seed " << workload_seed << "\n";
  out << "refs_per_proc " << refs_per_proc << "\n";
  out << "data_ref_fraction " << double_text(data_ref_fraction) << "\n";
  out << "work_cycles_per_ref " << double_text(work_cycles_per_ref) << "\n";
  out << "private_fraction " << double_text(private_fraction) << "\n";
  out << "write_fraction " << double_text(write_fraction) << "\n";
  out << "shared_rerefs " << double_text(shared_rerefs) << "\n";
  out << "shared_affinity " << double_text(shared_affinity) << "\n";
  out << "cold_fraction " << double_text(cold_fraction) << "\n";
  out << "lock_pairs " << lock_pairs << "\n";
  out << "nested_pairs " << nested_pairs << "\n";
  out << "cs_work_cycles " << double_text(cs_work_cycles) << "\n";
  out << "num_locks " << num_locks << "\n";
  out << "dominant_weight " << double_text(dominant_weight) << "\n";
  out << "cs_region_bias " << double_text(cs_region_bias) << "\n";
  out << "short_fraction " << double_text(short_fraction) << "\n";
  out << "partitioned " << (partitioned ? 1 : 0) << "\n";
  out << "barriers " << barriers << "\n";
  out << "bus_discipline " << bus::discipline_name(bus_discipline) << "\n";
  out << "mem_model " << core::mem_model_name(mem_model) << "\n";
  out << "dsm_nodes " << dsm_nodes << "\n";
  out << "dsm_remote_cycles " << dsm_remote_cycles << "\n";
  return out.str();
}

FuzzCase FuzzCase::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::uint64_t version = 0;
  if (!(in >> header >> version) || header != "syncpat-fuzz-case" ||
      version != 1) {
    throw std::invalid_argument("not a syncpat fuzz repro file");
  }

  std::map<std::string, std::string> kv;
  std::string key, value;
  while (in >> key >> value) {
    if (!kv.emplace(key, value).second) {
      throw std::invalid_argument("duplicate key in repro: " + key);
    }
  }

  FuzzCase c;
  auto take = [&kv](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) {
      throw std::invalid_argument(std::string("repro missing key: ") + k);
    }
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  // PR 9 keys are optional with defaults: repro files written before the
  // discipline/model axes existed must keep replaying unchanged.
  auto take_opt = [&kv](const char* k, const char* dflt) {
    const auto it = kv.find(k);
    if (it == kv.end()) return std::string(dflt);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto take_u64 = [&take](const char* k) {
    return util::parse_u64(take(k), k);
  };
  auto take_u32 = [&take](const char* k) {
    return util::parse_u32(take(k), k);
  };
  auto take_double = [&take](const char* k) {
    return double_from_text(take(k), k);
  };

  c.index = take_u64("index");
  c.master_seed = take_u64("master_seed");
  c.num_procs = take_u32("num_procs");
  c.line_bytes = take_u32("line_bytes");
  c.associativity = take_u32("associativity");
  c.sets_log2 = take_u32("sets_log2");
  c.bus_bytes = take_u32("bus_bytes");
  c.buffer_depth = take_u32("buffer_depth");
  c.mem_cycles = take_u32("mem_cycles");
  c.mem_in_depth = take_u32("mem_in_depth");
  c.mem_out_depth = take_u32("mem_out_depth");
  c.consistency = bus::consistency_from_name(take("consistency"));
  c.write_policy = cache::write_policy_from_name(take("write_policy"));
  c.scheme = sync::scheme_kind_from_name(take("scheme"));
  c.workload_seed = take_u64("workload_seed");
  c.refs_per_proc = take_u64("refs_per_proc");
  c.data_ref_fraction = take_double("data_ref_fraction");
  c.work_cycles_per_ref = take_double("work_cycles_per_ref");
  c.private_fraction = take_double("private_fraction");
  c.write_fraction = take_double("write_fraction");
  c.shared_rerefs = take_double("shared_rerefs");
  c.shared_affinity = take_double("shared_affinity");
  c.cold_fraction = take_double("cold_fraction");
  c.lock_pairs = take_u64("lock_pairs");
  c.nested_pairs = take_u64("nested_pairs");
  c.cs_work_cycles = take_double("cs_work_cycles");
  c.num_locks = take_u32("num_locks");
  c.dominant_weight = take_double("dominant_weight");
  c.cs_region_bias = take_double("cs_region_bias");
  c.short_fraction = take_double("short_fraction");
  c.partitioned = take_u64("partitioned") != 0;
  c.barriers = take_u64("barriers");
  c.bus_discipline =
      bus::discipline_from_name(take_opt("bus_discipline", "round-robin"));
  c.mem_model = core::mem_model_from_name(take_opt("mem_model", "bus"));
  c.dsm_nodes = util::parse_u32(take_opt("dsm_nodes", "4"), "dsm_nodes");
  c.dsm_remote_cycles =
      util::parse_u32(take_opt("dsm_remote_cycles", "20"), "dsm_remote_cycles");

  if (!kv.empty()) {
    throw std::invalid_argument("unknown key in repro: " + kv.begin()->first);
  }
  if (c.num_procs == 0 || c.num_procs > 4096) {
    throw std::invalid_argument("repro num_procs out of range");
  }
  if (c.line_bytes == 0 || (c.line_bytes & (c.line_bytes - 1)) != 0 ||
      c.line_bytes > 64) {
    throw std::invalid_argument("repro line_bytes must be a power of two <= 64");
  }
  if (c.bus_bytes == 0 || (c.bus_bytes & (c.bus_bytes - 1)) != 0) {
    throw std::invalid_argument("repro bus_bytes must be a power of two");
  }
  // The cache's size must fit its 32-bit field, and each set's recency ranks
  // a byte (line_bytes <= 64 keeps the product within 64 bits).
  if (c.associativity == 0 ||
      c.associativity > cache::Cache::kMaxAssociativity || c.sets_log2 > 20 ||
      (std::uint64_t{c.line_bytes} * c.associativity << c.sets_log2) >
          std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("repro cache geometry out of range");
  }
  if (c.num_locks == 0 || c.nested_pairs > c.lock_pairs) {
    throw std::invalid_argument("repro locking model out of range");
  }
  if (c.dsm_nodes == 0) {
    throw std::invalid_argument("repro dsm_nodes must be positive");
  }
  return c;
}

}  // namespace syncpat::fuzz
