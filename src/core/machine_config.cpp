#include "core/machine_config.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace syncpat::core {

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kDes: return "des";
    case EngineKind::kTick: return "tick";
  }
  return "?";
}

EngineKind engine_from_name(const std::string& name) {
  if (name == "des") return EngineKind::kDes;
  if (name == "tick") return EngineKind::kTick;
  throw std::invalid_argument("engine expects \"des\" or \"tick\", got \"" +
                              name + "\"");
}

const char* mem_model_name(MemModelKind kind) {
  switch (kind) {
    case MemModelKind::kBus: return "bus";
    case MemModelKind::kDsm: return "dsm";
  }
  return "?";
}

MemModelKind mem_model_from_name(const std::string& name) {
  if (name == "bus") return MemModelKind::kBus;
  if (name == "dsm") return MemModelKind::kDsm;
  throw std::invalid_argument("memory model expects \"bus\" or \"dsm\", got \"" +
                              name + "\"");
}

std::string MachineConfig::describe() const {
  std::ostringstream out;
  out << "Shared-bus multiprocessor (paper Figure 1)\n"
      << "  processors          : " << num_procs << "\n"
      << "  cache               : " << cache.size_bytes / 1024 << " KB, "
      << cache.associativity << "-way set associative, " << cache.line_bytes
      << "-byte lines, " << cache::write_policy_name(write_policy)
      << ", LRU\n"
      << "  coherence           : Illinois (MESI + cache-to-cache transfer)\n"
      << "  cache-bus buffer    : " << cache_bus_buffer_depth << " entries"
      << " (dirty lines snoop-visible)\n"
      << "  bus                 : " << bus_bytes * 8
      << "-bit split-transaction, " << bus::discipline_name(bus_discipline)
      << " arbitration\n"
      << "  memory              : " << memory.access_cycles << "-cycle access, "
      << memory.input_depth << "-deep input / " << memory.output_depth
      << "-deep output buffers\n";
  if (model == MemModelKind::kDsm) {
    out << "  memory model        : dsm, " << dsm.nodes << " nodes, +"
        << dsm.remote_access_cycles << "-cycle remote access\n";
  }
  out
      << "  uncontended miss    : 1 (request) + " << memory.access_cycles
      << " (memory) + " << line_transfer_cycles()
      << " (line over bus) = "
      << 1 + memory.access_cycles + line_transfer_cycles() << " stall cycles\n"
      << "  consistency model   : " << bus::consistency_name(consistency) << "\n"
      << "  lock scheme         : " << sync::scheme_kind_name(lock_scheme) << "\n"
      << "  execution engine    : " << engine_name(engine)
      << (engine == EngineKind::kDes ? " (discrete-event core)"
                                     : " (per-cycle reference loop)")
      << "\n";
  return out.str();
}

}  // namespace syncpat::core
