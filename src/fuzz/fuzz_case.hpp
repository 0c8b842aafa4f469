// Deterministic random test-case model for the differential fuzzing harness.
//
// A FuzzCase is the complete, self-contained description of one randomized
// scenario: a machine configuration (processor count, cache geometry, bus
// width, buffer depths, memory latency, consistency model, write policy, lock
// scheme) crossed with a synthetic workload (reference counts, locality mix,
// locking behaviour, barriers).  Cases are generated purely from
// (master seed, case index) — the same pair always yields the same case on
// every platform — and serialize to a small key/value text file so a failing
// case can be replayed exactly with `syncpat_fuzz --repro <file>`.
//
// Doubles are serialized as hexfloats: a repro must reproduce the generator
// bit-for-bit, and decimal round-tripping would not guarantee that.
#pragma once

#include <cstdint>
#include <string>

#include "core/machine_config.hpp"
#include "workload/profile.hpp"

namespace syncpat::fuzz {

struct FuzzCase {
  std::uint64_t index = 0;        // position in the run's case sequence
  std::uint64_t master_seed = 0;  // the run's seed (provenance only)

  // --- machine ---------------------------------------------------------
  std::uint32_t num_procs = 4;
  std::uint32_t line_bytes = 16;       // {8, 16, 32, 64}
  std::uint32_t associativity = 2;     // {1, 2, 4}
  std::uint32_t sets_log2 = 7;         // cache size = line * assoc * 2^sets_log2
  std::uint32_t bus_bytes = 8;         // {4, 8, 16}, <= line_bytes
  std::uint32_t buffer_depth = 4;      // cache-bus buffer
  std::uint32_t mem_cycles = 3;
  std::uint32_t mem_in_depth = 2;
  std::uint32_t mem_out_depth = 2;
  bus::ConsistencyModel consistency = bus::ConsistencyModel::kSequential;
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  sync::SchemeKind scheme = sync::SchemeKind::kQueuing;
  // PR 9 axes.  Optional keys in the repro format (defaults below) so every
  // pre-existing repro file still parses.
  bus::DisciplineKind bus_discipline = bus::DisciplineKind::kRoundRobin;
  core::MemModelKind mem_model = core::MemModelKind::kBus;
  std::uint32_t dsm_nodes = 4;           // consulted only when mem_model=dsm
  std::uint32_t dsm_remote_cycles = 20;  // ditto

  // --- workload --------------------------------------------------------
  std::uint64_t workload_seed = 0x5eed;
  std::uint64_t refs_per_proc = 1000;
  double data_ref_fraction = 0.35;
  double work_cycles_per_ref = 2.4;
  double private_fraction = 0.6;
  double write_fraction = 0.3;
  double shared_rerefs = 0.5;
  double shared_affinity = 0.0;
  double cold_fraction = 0.0;
  std::uint64_t lock_pairs = 20;       // per processor
  std::uint64_t nested_pairs = 0;      // <= lock_pairs / 2
  double cs_work_cycles = 80.0;
  std::uint32_t num_locks = 1;
  double dominant_weight = 1.0;
  double cs_region_bias = 0.8;
  double short_fraction = 0.0;
  bool partitioned = false;
  std::uint64_t barriers = 0;

  /// Deterministic generation: same (seed, index) => same case, always.
  [[nodiscard]] static FuzzCase generate(std::uint64_t master_seed,
                                         std::uint64_t index);

  /// The machine half of the case (invariants/trace/metrics/engine left at
  /// their defaults; oracles toggle those per run).
  [[nodiscard]] core::MachineConfig machine_config() const;

  /// The workload half (profile name is "fuzz<index>").
  [[nodiscard]] workload::BenchmarkProfile profile() const;

  /// One-line label for reports: "case 17: p4 ttas/weak/wb 16B/2w/2^7 ...".
  [[nodiscard]] std::string describe() const;

  /// Key/value serialization (the repro file format).  from_text throws
  /// std::invalid_argument on unknown keys, malformed values, or missing
  /// fields — a repro file is test input and must not half-parse.
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static FuzzCase from_text(const std::string& text);

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

}  // namespace syncpat::fuzz
