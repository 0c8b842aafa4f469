// Lock contention statistics (paper Tables 2, 4, 6, 8).
//
// A *transfer* is "the number of times a lock is released by a processor and
// acquired by another waiting processor"; the *waiters at transfer* count is
// "the number of processors still waiting for the lock after it has been
// released by one processor and acquired by the first waiter".  Transfer
// time measures release-to-next-acquire latency (the paper quotes
// ~1.2-1.5 cycles for its queuing-lock approximation and ~21-25 for T&T&S).
//
// Every lock scheme funnels through LockStatsCollector, so its LockAggregate
// per lock is the one per-lock record: the paper's tables, the per-lock
// report and the metrics export all read it.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/histogram.hpp"
#include "util/running_stat.hpp"

namespace syncpat::obs {
class EventRecorder;
}

namespace syncpat::sync {

struct LockAggregate {
  std::uint64_t acquisitions = 0;
  std::uint64_t transfers = 0;
  util::RunningStat hold_cycles;           // all acquisitions
  util::RunningStat hold_cycles_transfer;  // acquisitions whose release handed off
  util::RunningStat waiters_at_transfer;   // still waiting after the hand-off
  util::RunningStat transfer_cycles;       // release-complete -> next acquire
  util::Histogram transfer_hist;           // the transfer_cycles samples
  util::Histogram hold_hist;               // the hold_cycles samples
  util::Histogram waiters_at_acquire;      // others still waiting, per acquisition
};

/// One LockAggregate per lock, keyed by the lock's line address.
using LockRecords = std::unordered_map<std::uint32_t, LockAggregate>;

class LockStatsCollector {
 public:
  /// Processor `proc` now owns the lock.  `waiters_now` is the number of
  /// *other* processors still waiting at this instant — the scheme's live
  /// queue, not a snapshot from release time, so hand-off-style locks
  /// (MCS/CLH/Anderson) whose successors enqueue before the release count
  /// arrivals during the hand-off window too.
  void acquired(std::uint32_t lock_line, std::uint32_t proc, std::uint64_t now,
                std::uint64_t waiters_now);

  /// The owner issued its releasing access at `now`.  Hold time ends here
  /// (the critical section is over); the release access itself and the
  /// hand-off are transfer overhead, measured separately.
  void release_issued(std::uint32_t lock_line, std::uint64_t now);

  /// The lock was released at `now` with `waiters_left` processors still
  /// waiting *after* the next owner (if any) was chosen.  `transferred` is
  /// true when a waiting processor takes the lock.
  void released(std::uint32_t lock_line, std::uint64_t now, bool transferred,
                std::uint64_t waiters_left);

  /// Every lock scheme funnels through this collector, so mirroring the
  /// calls as trace events here instruments all schemes at once and keeps
  /// hand-off event counts equal to the `transfers` aggregate by
  /// construction.  Null (the default) emits nothing.
  void set_recorder(obs::EventRecorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] const LockAggregate& total() const { return total_; }
  [[nodiscard]] const LockRecords& per_lock() const { return per_lock_; }

 private:
  struct Live {
    std::uint64_t acquire_time = 0;
    std::uint64_t release_time = 0;
    std::uint64_t release_issue_time = 0;
    bool release_issue_valid = false;
    bool transfer_pending = false;
  };

  LockAggregate total_;
  LockRecords per_lock_;
  std::unordered_map<std::uint32_t, Live> live_;
  obs::EventRecorder* recorder_ = nullptr;
};

}  // namespace syncpat::sync
