#include "obs/event_recorder.hpp"

#include <stdexcept>

namespace syncpat::obs {

TraceSink::~TraceSink() = default;

namespace {

struct NamedCategory {
  const char* name;
  std::uint32_t mask;
};

constexpr NamedCategory kNamed[] = {
    {"locks", category::kLocks},         {"bus", category::kBus},
    {"coherence", category::kCoherence}, {"barriers", category::kBarriers},
    {"all", category::kAll},
};

}  // namespace

std::uint32_t parse_categories(const std::string& list) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  bool any = false;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string token =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? list.size() + 1 : comma + 1;
    bool matched = false;
    for (const NamedCategory& c : kNamed) {
      if (token == c.name) {
        mask |= c.mask;
        matched = true;
        break;
      }
    }
    if (!matched) {
      throw std::invalid_argument(
          "unknown trace category \"" + token +
          "\" (expected a comma-separated list of "
          "locks|bus|coherence|barriers|all)");
    }
    any = true;
  }
  if (!any || mask == 0) {
    throw std::invalid_argument("empty trace category list");
  }
  return mask;
}

std::string categories_to_string(std::uint32_t mask) {
  if (mask == category::kAll) return "all";
  std::string out;
  for (const NamedCategory& c : kNamed) {
    if (c.mask == category::kAll) continue;
    if ((mask & c.mask) == 0) continue;
    if (!out.empty()) out += ',';
    out += c.name;
  }
  return out;
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kAcquireBegin: return "acquire-begin";
    case EventKind::kAcquired: return "acquired";
    case EventKind::kReleaseBegin: return "release-begin";
    case EventKind::kReleased: return "released";
    case EventKind::kHandoff: return "handoff";
    case EventKind::kTransferDone: return "transfer-done";
    case EventKind::kSpinInvalidated: return "spin-invalidated";
    case EventKind::kBusGrant: return "bus-grant";
    case EventKind::kBusComplete: return "bus-complete";
    case EventKind::kMesiTransition: return "mesi-transition";
    case EventKind::kBarrierArrive: return "barrier-arrive";
    case EventKind::kBarrierRelease: return "barrier-release";
  }
  return "?";
}

}  // namespace syncpat::obs
