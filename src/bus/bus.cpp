#include "bus/bus.hpp"

namespace syncpat::bus {

const char* txn_kind_name(TxnKind k) {
  switch (k) {
    case TxnKind::kRead: return "Read";
    case TxnKind::kReadX: return "ReadX";
    case TxnKind::kUpgrade: return "Upgrade";
    case TxnKind::kWriteBack: return "WriteBack";
    case TxnKind::kHandoff: return "Handoff";
    case TxnKind::kWriteThrough: return "WriteThrough";
  }
  return "?";
}

}  // namespace syncpat::bus
