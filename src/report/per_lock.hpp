// Per-lock contention breakdown (paper §2.3/§3.1: the Presto scheduler lock
// dominates Grav/Pdsa while the thread-queue lock "is not usually a source
// of contention" — this table makes that visible).
#pragma once

#include <cstddef>

#include "report/table.hpp"
#include "sync/lock_stats.hpp"

namespace syncpat::report {

/// Top `max_rows` locks by acquisition count: address, acquisitions,
/// transfers, waiters at transfer, mean hold, mean transfer latency.  Reads
/// a simulator's LockStatsCollector::per_lock() or a grid cell's
/// ExperimentOutcome::per_lock.
[[nodiscard]] Table per_lock_table(const sync::LockRecords& records,
                                   std::size_t max_rows = 8);

}  // namespace syncpat::report
