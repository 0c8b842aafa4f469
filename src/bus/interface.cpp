#include "bus/interface.hpp"

#include <stdexcept>

namespace syncpat::bus {

const char* consistency_name(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::kSequential: return "sequential";
    case ConsistencyModel::kWeak: return "weak";
  }
  return "?";
}

ConsistencyModel consistency_from_name(const std::string& name) {
  if (name == "sequential") return ConsistencyModel::kSequential;
  if (name == "weak") return ConsistencyModel::kWeak;
  throw std::invalid_argument(
      "consistency model expects \"sequential\" or \"weak\", got \"" + name +
      "\"");
}

bool BusInterface::enqueue(Transaction* txn) {
  if (queue_.full()) return false;

  const bool stalling_read =
      (txn->kind == TxnKind::kRead || txn->kind == TxnKind::kReadX) &&
      txn->stall_cause != StallCause::kNone;

  if (model_ == ConsistencyModel::kWeak && stalling_read && !queue_.empty()) {
    if (has_line(txn->line_addr)) {
      // Same-line entry queued: bypassing would reorder dependent accesses
      // to one line (§4.1); keep program order.
      ++bypass_blocked_;
      queue_.push_back(txn);
    } else {
      ++bypasses_;
      queue_.push_front(txn);
    }
  } else {
    queue_.push_back(txn);
  }
  notify(*txn, /*entered=*/true);
  return true;
}

bool BusInterface::has_line(std::uint32_t line_addr) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_.at(i)->line_addr == line_addr) return true;
  }
  return false;
}

Transaction* BusInterface::snoop_writeback(std::uint32_t line_addr) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Transaction* txn = queue_.at(i);
    if (txn->kind == TxnKind::kWriteBack && txn->line_addr == line_addr) {
      queue_.remove_at(i);
      notify(*txn, /*entered=*/false);
      return txn;
    }
  }
  return nullptr;
}

}  // namespace syncpat::bus
