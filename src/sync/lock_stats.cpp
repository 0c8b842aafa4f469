#include "sync/lock_stats.hpp"

#include <initializer_list>

#include "obs/event_recorder.hpp"
#include "util/assert.hpp"

namespace syncpat::sync {

void LockStatsCollector::acquired(std::uint32_t lock_line, std::uint32_t proc,
                                  std::uint64_t now,
                                  std::uint64_t waiters_now) {
  Live& live = live_[lock_line];
  live.acquire_time = now;
  LockAggregate& lock = per_lock_[lock_line];
  for (LockAggregate* agg : {&total_, &lock}) {
    ++agg->acquisitions;
    agg->waiters_at_acquire.add(waiters_now);
  }
  if (recorder_ != nullptr) {
    recorder_->emit(obs::TraceEvent{now, obs::EventKind::kAcquired,
                                    static_cast<std::int32_t>(proc), lock_line,
                                    0, 0});
  }
  if (live.transfer_pending) {
    // acquired() via a hand-off also closes the transfer-latency window.
    const std::uint64_t latency = now - live.release_time;
    for (LockAggregate* agg : {&total_, &lock}) {
      agg->transfer_cycles.add(static_cast<double>(latency));
      agg->transfer_hist.add(latency);
    }
    live.transfer_pending = false;
    if (recorder_ != nullptr) {
      recorder_->emit(obs::TraceEvent{now, obs::EventKind::kTransferDone,
                                      static_cast<std::int32_t>(proc),
                                      lock_line, 0, latency});
    }
  }
}

void LockStatsCollector::release_issued(std::uint32_t lock_line,
                                        std::uint64_t now) {
  Live& live = live_[lock_line];
  live.release_issue_time = now;
  live.release_issue_valid = true;
}

void LockStatsCollector::released(std::uint32_t lock_line, std::uint64_t now,
                                  bool transferred, std::uint64_t waiters_left) {
  auto it = live_.find(lock_line);
  SYNCPAT_ASSERT_MSG(it != live_.end(), "release of a lock never acquired");
  Live& live = it->second;
  const std::uint64_t hold_end =
      live.release_issue_valid ? live.release_issue_time : now;
  live.release_issue_valid = false;
  const std::uint64_t held = hold_end - live.acquire_time;
  for (LockAggregate* agg : {&total_, &per_lock_[lock_line]}) {
    agg->hold_cycles.add(static_cast<double>(held));
    agg->hold_hist.add(held);
    if (transferred) {
      ++agg->transfers;
      agg->hold_cycles_transfer.add(static_cast<double>(held));
      agg->waiters_at_transfer.add(static_cast<double>(waiters_left));
    }
  }
  if (transferred) {
    live.release_time = now;
    live.transfer_pending = true;
  }
  if (recorder_ != nullptr) {
    recorder_->emit(obs::TraceEvent{
        now,
        transferred ? obs::EventKind::kHandoff : obs::EventKind::kReleased, -1,
        lock_line, waiters_left, 0});
  }
}

}  // namespace syncpat::sync
