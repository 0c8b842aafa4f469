#include "core/invariant_checker.hpp"

#include <algorithm>
#include <cstdio>

#include "core/simulator.hpp"

namespace syncpat::core {

namespace {

[[nodiscard]] bool owns_line(cache::LineState s) {
  return s == cache::LineState::kExclusive || s == cache::LineState::kModified;
}

[[nodiscard]] std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%x", value);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(const InvariantConfig& config,
                                   bool fifo_scheme, std::uint32_t num_procs)
    : config_(config), fifo_scheme_(fifo_scheme) {
  acquiring_.assign(num_procs, kNoLine);
  releasing_.assign(num_procs, kNoLine);
}

void InvariantChecker::record(std::string message) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(std::move(message));
  }
}

// --------------------------------------------------------------------------
// Coherence

void InvariantChecker::check_line_coherence(const Simulator& sim,
                                            std::uint32_t line_addr,
                                            std::uint64_t cycle) {
  std::uint32_t owners = 0, sharers = 0;
  std::int32_t owner_proc = -1, sharer_proc = -1;
  for (std::uint32_t p = 0; p < sim.num_procs(); ++p) {
    const cache::LineState s = sim.caches_[p]->state(line_addr);
    ++checks_;
    if (owns_line(s)) {
      ++owners;
      owner_proc = static_cast<std::int32_t>(p);
    } else if (s == cache::LineState::kShared) {
      ++sharers;
      sharer_proc = static_cast<std::int32_t>(p);
    }
  }
  if (owners > 1) {
    record("MESI single-writer violated: line 0x" + hex(line_addr) +
           " owned (E/M) by " + std::to_string(owners) + " caches at cycle " +
           std::to_string(cycle));
  } else if (owners == 1 && sharers > 0) {
    record("MESI stale sharer: line 0x" + hex(line_addr) +
           " owned (E/M) by proc " + std::to_string(owner_proc) +
           " but Shared in proc " + std::to_string(sharer_proc) +
           " at cycle " + std::to_string(cycle));
  }
}

void InvariantChecker::full_mesi_sweep(const Simulator& sim,
                                       std::uint64_t cycle) {
  // One pass over every cache, grouped by line address: resident states are
  // sparse, so the per-line cross-check above would rescan caches for lines
  // that only one cache holds.  The same pass rebuilds what the simulator's
  // holder directory must say: each line's valid holders, and its
  // write-backs buffered in the cache-bus interfaces.
  struct LineView {
    std::uint32_t owners = 0, sharers = 0;
    std::int32_t owner_proc = -1, sharer_proc = -1;
    std::uint32_t writebacks = 0;
    bool in_directory = false;
  };
  std::unordered_map<std::uint32_t, LineView> lines;
  for (std::uint32_t p = 0; p < sim.num_procs(); ++p) {
    sim.caches_[p]->for_each_valid_line(
        [&](std::uint32_t line_addr, cache::LineState s) {
          ++checks_;
          if (s == cache::LineState::kPending) return;
          LineView& v = lines[line_addr];
          if (owns_line(s)) {
            ++v.owners;
            v.owner_proc = static_cast<std::int32_t>(p);
          } else if (s == cache::LineState::kShared) {
            ++v.sharers;
            v.sharer_proc = static_cast<std::int32_t>(p);
          }
        });
    const bus::BusInterface& iface = *sim.ifaces_[p];
    for (std::size_t i = 0; i < iface.size(); ++i) {
      const bus::Transaction& txn = iface.entry(i);
      if (txn.kind == bus::TxnKind::kWriteBack) ++lines[txn.line_addr].writebacks;
    }
  }
  for (const auto& [line_addr, v] : lines) {
    if (v.owners > 1) {
      record("MESI single-writer violated: line 0x" + hex(line_addr) +
             " owned (E/M) by " + std::to_string(v.owners) +
             " caches at cycle " + std::to_string(cycle));
    } else if (v.owners == 1 && v.sharers > 0) {
      record("MESI stale sharer: line 0x" + hex(line_addr) +
             " owned (E/M) by proc " + std::to_string(v.owner_proc) +
             " but Shared in proc " + std::to_string(v.sharer_proc) +
             " at cycle " + std::to_string(cycle));
    }
  }

  // The holder directory against the rebuilt view, both ways: every line it
  // tracks must have exactly its listed holders and write-back count, and
  // every held or buffered line must be tracked.  A listed processor must
  // hold the line valid; with equal counts and distinct listed ids that
  // makes the holder sets equal.
  std::vector<std::uint32_t> listed(sim.num_procs());
  sim.holders_.for_each_line([&](std::uint32_t line_addr,
                                 std::uint32_t holders,
                                 std::uint32_t writebacks) {
    ++checks_;
    LineView& v = lines[line_addr];
    v.in_directory = true;
    const std::uint32_t n = sim.holders_.holders(line_addr, listed.data());
    for (std::uint32_t i = 0; i < n; ++i) {
      const cache::LineState s = sim.caches_[listed[i]]->state(line_addr);
      if (!owns_line(s) && s != cache::LineState::kShared) {
        record("holder directory lists proc " + std::to_string(listed[i]) +
               " for line 0x" + hex(line_addr) + " in state " +
               cache::state_name(s) + " at cycle " + std::to_string(cycle));
      }
    }
    if (n != holders || holders != v.owners + v.sharers ||
        writebacks != v.writebacks) {
      record("holder directory has " + std::to_string(holders) +
             " holders and " + std::to_string(writebacks) +
             " buffered write-backs for line 0x" + hex(line_addr) +
             ", the machine " + std::to_string(v.owners + v.sharers) +
             " and " + std::to_string(v.writebacks) + " at cycle " +
             std::to_string(cycle));
    }
  });
  for (const auto& [line_addr, v] : lines) {
    if (!v.in_directory) {
      record("holder directory misses line 0x" + hex(line_addr) + " (" +
             std::to_string(v.owners + v.sharers) + " holders, " +
             std::to_string(v.writebacks) + " buffered write-backs) at cycle " +
             std::to_string(cycle));
    }
  }
}

void InvariantChecker::check_one_txn_per_line(const Simulator& sim) {
  // Re-derived from transaction phases, independent of line_inflight_.
  std::unordered_map<std::uint32_t, std::uint64_t> first_on_line;
  for (const auto& [id, txn] : sim.active_) {
    if (!txn->holds_line_slot()) continue;
    ++checks_;
    const auto [it, inserted] = first_on_line.emplace(txn->line_addr, id);
    if (!inserted) {
      record("two transactions in flight for line 0x" +
             hex(txn->line_addr) + " (ids " + std::to_string(it->second) +
             " and " + std::to_string(id) + ") at cycle " +
             std::to_string(sim.now()));
    }
  }
}

void InvariantChecker::on_cycle(const Simulator& sim) {
  check_one_txn_per_line(sim);
  for (const auto& [line_addr, txn] : sim.line_inflight_) {
    check_line_coherence(sim, line_addr, sim.now());
  }
  if (config_.mesi_sweep_period > 0 &&
      sim.now() % config_.mesi_sweep_period == 0) {
    full_mesi_sweep(sim, sim.now());
  }
}

void InvariantChecker::on_span(const Simulator& sim, std::uint64_t last_cycle,
                               std::uint64_t through) {
  const std::uint64_t period = config_.mesi_sweep_period;
  if (period == 0 || through / period == last_cycle / period) return;
  // One sweep stands for every period boundary in the span: the state is the
  // same at all of them.  Label it with the last one.
  full_mesi_sweep(sim, through / period * period);
}

void InvariantChecker::on_run_end(const Simulator& sim) {
  full_mesi_sweep(sim, sim.now());
  for (std::uint32_t p = 0; p < acquiring_.size(); ++p) {
    if (releasing_[p] != kNoLine) {
      record("simulation ended with proc " + std::to_string(p) +
             " mid-release of lock line 0x" + hex(releasing_[p]));
    }
  }
}

// --------------------------------------------------------------------------
// Locks

void InvariantChecker::on_begin_acquire(std::uint32_t proc,
                                        std::uint32_t lock_line) {
  ++checks_;
  if (acquiring_[proc] != kNoLine) {
    record("proc " + std::to_string(proc) + " began acquiring lock line 0x" +
           hex(lock_line) + " while an acquire of 0x" +
           hex(acquiring_[proc]) + " is still pending");
  }
  acquiring_[proc] = lock_line;
}

void InvariantChecker::on_begin_release(std::uint32_t proc,
                                        std::uint32_t lock_line) {
  ++checks_;
  if (releasing_[proc] != kNoLine) {
    record("proc " + std::to_string(proc) + " began releasing lock line 0x" +
           hex(lock_line) + " while a release of 0x" +
           hex(releasing_[proc]) + " is still pending");
  }
  // The critical section ends here: the release transaction may still be
  // draining (buffered under weak ordering) when the next holder acquires,
  // so the holder leaves `holders_` at release *begin*, not completion.
  std::vector<std::uint32_t>& holders = holders_[lock_line];
  const auto it = std::find(holders.begin(), holders.end(), proc);
  if (it == holders.end()) {
    record("lock mutual exclusion violated: proc " + std::to_string(proc) +
           " released lock line 0x" + hex(lock_line) +
           " without holding it");
  } else {
    holders.erase(it);
  }
  releasing_[proc] = lock_line;
}

void InvariantChecker::on_lock_step(std::uint32_t proc,
                                    std::uint32_t line_addr,
                                    std::uint8_t step) {
  // The completion of the initial atomic acquire access is what serializes
  // waiters on the bus: it defines the FIFO order the FIFO schemes (queuing,
  // ticket, Anderson, MCS, CLH) promise to grant in.
  if (!fifo_scheme_ || step != sync::kStepAcquire) return;
  if (acquiring_[proc] != line_addr) return;
  std::deque<std::uint32_t>& queue = fifo_queue_[line_addr];
  if (std::find(queue.begin(), queue.end(), proc) == queue.end()) {
    queue.push_back(proc);
  }
}

void InvariantChecker::on_acquired(std::uint32_t proc) {
  ++checks_;
  if (acquiring_[proc] == kNoLine) {
    record("proc " + std::to_string(proc) +
           " acquired a lock without a pending acquire");
    return;
  }
  const std::uint32_t lock_line = acquiring_[proc];
  acquiring_[proc] = kNoLine;

  std::vector<std::uint32_t>& holders = holders_[lock_line];
  if (!holders.empty()) {
    record("lock mutual exclusion violated: proc " + std::to_string(proc) +
           " acquired lock line 0x" + hex(lock_line) +
           " while held by proc " + std::to_string(holders.front()));
  }
  holders.push_back(proc);

  if (fifo_scheme_) {
    std::deque<std::uint32_t>& queue = fifo_queue_[lock_line];
    if (!queue.empty()) {
      if (queue.front() == proc) {
        queue.pop_front();
      } else {
        record("FIFO hand-off violated: proc " + std::to_string(proc) +
               " acquired lock line 0x" + hex(lock_line) +
               " ahead of proc " + std::to_string(queue.front()));
        const auto it = std::find(queue.begin(), queue.end(), proc);
        if (it != queue.end()) queue.erase(it);
      }
    }
  }
}

void InvariantChecker::on_release_done(std::uint32_t proc) {
  ++checks_;
  if (releasing_[proc] == kNoLine) {
    record("proc " + std::to_string(proc) +
           " finished a release without a pending release");
    return;
  }
  releasing_[proc] = kNoLine;
}

}  // namespace syncpat::core
