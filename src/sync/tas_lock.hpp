// Naive test-and-set spin lock (baseline from Anderson [3]), plain or with
// exponential backoff.
//
// Every waiter hammers atomic test-and-set transactions back to back; each
// attempt is an ownership transaction on the lock line, so waiters saturate
// the bus and slow everyone down — the pathology that motivated
// test-and-test-and-set and queuing locks.  Included for the lock-scheme
// shootout ablation; the paper's own experiments use T&T&S and queuing.
//
// The *backoff* variant (Anderson [3]) differs only in what a failed attempt
// does: the processor backs off quietly for an exponentially growing number
// of cycles before retrying, trading acquisition latency for bus bandwidth.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sync/scheme.hpp"

namespace syncpat::sync {

/// The record of a test-and-set style lock (T&S, T&S with backoff, T&T&S).
struct TasState {
  std::int32_t owner = -1;
  std::unordered_set<std::uint32_t> trying;  // procs between begin and win

  /// The lock is held by someone else or other processors contend for it.
  [[nodiscard]] bool contended(std::uint32_t proc) const {
    return (owner >= 0 && owner != static_cast<std::int32_t>(proc)) ||
           trying.size() > 1;
  }
  /// Processors still waiting after the first of `trying` takes the lock.
  [[nodiscard]] std::uint64_t waiters_left() const {
    return trying.empty() ? 0 : trying.size() - 1;
  }
};

class TasLock final : public BasicScheme<TasState> {
 public:
  static constexpr std::uint64_t kInitialBackoff = 4;
  static constexpr std::uint64_t kMaxBackoff = 1024;

  TasLock(SchemeServices& services, LockStatsCollector& stats, bool backoff)
      : BasicScheme(services, stats), backoff_(backoff) {}

  void begin_acquire(std::uint32_t proc, std::uint32_t lock_line) override;
  void begin_release(std::uint32_t proc, std::uint32_t lock_line) override;
  void on_txn_complete(std::uint32_t proc, std::uint32_t line_addr,
                       std::uint8_t step) override;
  void on_spin_invalidated(std::uint32_t proc, std::uint32_t line_addr) override;
  void on_timer(std::uint32_t proc, std::uint32_t line_addr) override;

 private:
  void attempt(std::uint32_t proc, std::uint32_t lock_line);

  bool backoff_;
  std::unordered_map<std::uint32_t, std::uint64_t> delay_;  // per proc
};

}  // namespace syncpat::sync
