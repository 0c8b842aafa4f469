#include "sync/scheme_factory.hpp"

#include <stdexcept>

#include "sync/anderson_lock.hpp"
#include "sync/clh_lock.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/queuing_lock.hpp"
#include "sync/tas_lock.hpp"
#include "sync/ticket_lock.hpp"
#include "sync/ttas_lock.hpp"

namespace syncpat::sync {

const char* scheme_kind_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kQueuing: return "queuing";
    case SchemeKind::kQueuingExact: return "queuing-exact";
    case SchemeKind::kTtas: return "ttas";
    case SchemeKind::kTas: return "tas";
    case SchemeKind::kTasBackoff: return "tas-backoff";
    case SchemeKind::kTicket: return "ticket";
    case SchemeKind::kAnderson: return "anderson";
    case SchemeKind::kMcs: return "mcs";
    case SchemeKind::kClh: return "clh";
  }
  return "?";
}

SchemeKind scheme_kind_from_name(const std::string& name) {
  for (const SchemeKind kind : all_scheme_kinds()) {
    if (name == scheme_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown lock scheme: " + name);
}

const std::vector<SchemeKind>& all_scheme_kinds() {
  static const std::vector<SchemeKind> kAll = {
      SchemeKind::kQueuing, SchemeKind::kQueuingExact, SchemeKind::kTtas,
      SchemeKind::kTas,     SchemeKind::kTasBackoff,   SchemeKind::kTicket,
      SchemeKind::kAnderson, SchemeKind::kMcs,         SchemeKind::kClh};
  return kAll;
}

std::unique_ptr<LockScheme> make_scheme(SchemeKind kind, SchemeServices& services,
                                        LockStatsCollector& stats,
                                        std::uint32_t line_bytes) {
  switch (kind) {
    case SchemeKind::kQueuing:
      return std::make_unique<QueuingLock>(services, stats, /*exact=*/false);
    case SchemeKind::kQueuingExact:
      return std::make_unique<QueuingLock>(services, stats, /*exact=*/true);
    case SchemeKind::kTtas:
      return std::make_unique<TtasLock>(services, stats);
    case SchemeKind::kTas:
      return std::make_unique<TasLock>(services, stats, /*backoff=*/false);
    case SchemeKind::kTasBackoff:
      return std::make_unique<TasLock>(services, stats, /*backoff=*/true);
    case SchemeKind::kTicket:
      return std::make_unique<TicketLock>(services, stats, line_bytes);
    case SchemeKind::kAnderson:
      return std::make_unique<AndersonLock>(services, stats);
    case SchemeKind::kMcs:
      return std::make_unique<McsLock>(services, stats);
    case SchemeKind::kClh:
      return std::make_unique<ClhLock>(services, stats);
  }
  throw std::invalid_argument("unknown lock scheme kind");
}

}  // namespace syncpat::sync
