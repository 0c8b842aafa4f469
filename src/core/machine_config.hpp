// Machine configuration: Figure 1 of the paper as a data structure.
//
// Defaults model the Sequent Symmetry Model B as simulated in §2.2:
// per-processor 64 KB 2-way write-back caches with 16-byte lines and
// Illinois coherence, a 64-bit split-transaction bus with round-robin
// arbitration, a 3-cycle memory with 2-deep input/output buffers, and a
// 4-deep cache-bus buffer per processor.
#pragma once

#include <cstdint>
#include <string>

#include "bus/interface.hpp"
#include "bus/service_discipline.hpp"
#include "cache/cache.hpp"
#include "mem/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sync/scheme_factory.hpp"

namespace syncpat::core {

/// Execution engine for Simulator::run().
///   * kDes (default): the discrete-event core — a deterministic queue of
///     next-action times; cycles where nothing can happen are bulk-advanced.
///     Byte-identical to per-cycle ticking (the 28-config differential suite
///     and fuzz oracle #7 enforce it).
///   * kTick: `while (!all_done()) step();` — the trivially simple per-cycle
///     loop, kept as the differential oracle for the DES core.
enum class EngineKind : std::uint8_t { kDes, kTick };

[[nodiscard]] const char* engine_name(EngineKind kind);
/// Strict: accepts exactly "des" or "tick"; anything else throws
/// std::invalid_argument naming the offending text.
[[nodiscard]] EngineKind engine_from_name(const std::string& name);

/// Memory system cost model.
///   * kBus (default): the paper's machine — uniform memory behind the
///     shared bus, every access costs MemoryConfig::access_cycles.
///   * kDsm: a distributed-shared-memory overlay (Golab's CC-vs-DSM model
///     separation): processors are grouped into nodes, every line has a
///     home node (address-interleaved), and an access whose requester is
///     not on the line's home node pays DsmConfig::remote_access_cycles on
///     top of the base access time.  Coherence traffic still crosses the
///     one shared bus; only the memory module's service time changes, so
///     both engines stay byte-identical by construction.
enum class MemModelKind : std::uint8_t { kBus, kDsm };

[[nodiscard]] const char* mem_model_name(MemModelKind kind);
/// Strict: accepts exactly "bus" or "dsm"; anything else throws
/// std::invalid_argument naming the offending text.
[[nodiscard]] MemModelKind mem_model_from_name(const std::string& name);

/// NUMA geometry for MemModelKind::kDsm: `nodes` home-directory nodes,
/// processors striped across them in contiguous blocks of
/// ceil(num_procs / nodes).  Lines are home-interleaved by line index.
struct DsmConfig {
  std::uint32_t nodes = 4;
  std::uint32_t remote_access_cycles = 20;
};

/// Opt-in runtime invariant checking (see core/invariant_checker.hpp).
/// Compiled in unconditionally; a disabled checker costs one branch per
/// event cycle and one per cache state change, so benches pay nothing.
struct InvariantConfig {
  bool enabled = false;
};

struct MachineConfig {
  std::uint32_t num_procs = 12;

  cache::CacheConfig cache;          // 64 KB, 2-way, 16-byte lines
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBack;
  std::uint32_t bus_bytes = 8;       // 64-bit data path
  std::uint32_t cache_bus_buffer_depth = 4;
  mem::MemoryConfig memory;          // 3 cycles, 2-deep in/out buffers

  /// Bus service discipline (see bus/service_discipline.hpp).  Round-robin
  /// is byte-identical to the historical hardwired arbiter.
  bus::DisciplineKind bus_discipline = bus::DisciplineKind::kRoundRobin;

  /// Memory cost model (see MemModelKind).  `dsm` is only consulted when
  /// model == kDsm.
  MemModelKind model = MemModelKind::kBus;
  DsmConfig dsm;

  bus::ConsistencyModel consistency = bus::ConsistencyModel::kSequential;
  sync::SchemeKind lock_scheme = sync::SchemeKind::kQueuing;
  InvariantConfig invariants;
  /// Opt-in event tracing (see src/obs/): same zero-cost-when-off pattern as
  /// the invariant checker — the simulator holds a null recorder unless this
  /// is enabled, and traced runs produce byte-identical results.
  obs::TraceConfig trace;
  /// Opt-in metrics registry (see obs/metrics.hpp): bus-utilization
  /// windows, machine counters, and an end-of-run copy of the always-on
  /// stall ledgers and per-lock records for export.  Null-unless-enabled
  /// like the checker and recorder; enabled runs are byte-identical to
  /// disabled ones (fuzz oracle #7 proves it).
  obs::MetricsConfig metrics;

  /// Execution engine (see EngineKind).  The invariant checker runs on
  /// either engine.
  EngineKind engine = EngineKind::kDes;

  /// Bus cycles to move one line: line_bytes / bus_bytes.
  [[nodiscard]] std::uint32_t line_transfer_cycles() const {
    return (cache.line_bytes + bus_bytes - 1) / bus_bytes;
  }

  /// Multi-line description in the spirit of Figure 1.
  [[nodiscard]] std::string describe() const;
};

}  // namespace syncpat::core
