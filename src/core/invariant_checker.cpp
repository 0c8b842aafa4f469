#include "core/invariant_checker.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

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

InvariantChecker::InvariantChecker(bool fifo_scheme, std::uint32_t num_procs)
    : fifo_scheme_(fifo_scheme), listed_(num_procs) {
  acquiring_.assign(num_procs, kNoLine);
  releasing_.assign(num_procs, kNoLine);
}

void InvariantChecker::record(std::string message) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(std::move(message));
  }
}

// --------------------------------------------------------------------------
// Coherence

void InvariantChecker::LineCounts::tally(cache::LineState state,
                                         std::int32_t delta) {
  if (owns_line(state)) owners += delta;
  if (state == cache::LineState::kShared) sharers += delta;
}

void InvariantChecker::on_transition(std::uint32_t line_addr,
                                     cache::LineState from,
                                     cache::LineState to) {
  LineCounts& c = counts_[line_addr];
  c.tally(from, -1);
  c.tally(to, 1);
  if (!std::exchange(c.changed, true)) changed_.push_back(line_addr);
}

void InvariantChecker::check_coherence(const Simulator& sim,
                                       std::uint32_t line_addr,
                                       const LineCounts& c) {
  if (!(c.owners > 1 || (c.owners == 1 && c.sharers > 0))) return;
  std::string held;
  for (std::uint32_t p = 0; p < sim.num_procs(); ++p) {
    const cache::LineState s = sim.caches_[p]->state(line_addr);
    if (owns_line(s) || s == cache::LineState::kShared) {
      held += ", proc " + std::to_string(p) + " (" + cache::state_name(s) + ")";
    }
  }
  record((c.owners > 1 ? "MESI single-writer violated: line 0x"
                       : "MESI stale sharer: line 0x") +
         hex(line_addr) + " has " + std::to_string(c.owners) +
         " owners (E/M) and " + std::to_string(c.sharers) +
         " sharers at cycle " + std::to_string(sim.now()) + "; held by " +
         (held.empty() ? "no cache" : held.substr(2)));
}

void InvariantChecker::full_mesi_sweep(const Simulator& sim) {
  // One pass over every cache and cache-bus interface rebuilds each line's
  // owners, sharers and buffered write-backs.  The checker's counts and the
  // holder directory must match it line by line, both ways: every line any
  // of the three knows gets a view.
  struct LineView {
    LineCounts held;               // in the caches
    std::uint32_t writebacks = 0;  // in the interfaces
    std::uint32_t listed = 0, listed_count = 0, listed_writebacks = 0;
  };
  std::unordered_map<std::uint32_t, LineView> lines;
  for (std::uint32_t p = 0; p < sim.num_procs(); ++p) {
    sim.caches_[p]->for_each_valid_line(
        [&](std::uint32_t line_addr, cache::LineState s) {
          ++checks_;
          lines[line_addr].held.tally(s, 1);
        });
    const bus::BusInterface& iface = *sim.ifaces_[p];
    for (std::size_t i = 0; i < iface.size(); ++i) {
      const bus::Transaction& txn = iface.entry(i);
      if (txn.kind == bus::TxnKind::kWriteBack) ++lines[txn.line_addr].writebacks;
    }
  }
  for (const auto& [line_addr, c] : counts_) lines[line_addr];
  const std::string at_cycle = " at cycle " + std::to_string(sim.now());
  // A listed processor must hold the line valid; with as many distinct
  // listed ids as holders, that makes the holder sets equal.
  sim.holders_.for_each_line([&](std::uint32_t line_addr,
                                 std::uint32_t holders,
                                 std::uint32_t writebacks) {
    ++checks_;
    LineView& v = lines[line_addr];
    v.listed = sim.holders_.holders(line_addr, listed_.data());
    v.listed_count = holders;
    v.listed_writebacks = writebacks;
    for (std::uint32_t i = 0; i < v.listed; ++i) {
      const cache::LineState s = sim.caches_[listed_[i]]->state(line_addr);
      if (!owns_line(s) && s != cache::LineState::kShared) {
        record("holder directory lists proc " + std::to_string(listed_[i]) +
               " for line 0x" + hex(line_addr) + " in state " +
               cache::state_name(s) + at_cycle);
      }
    }
  });
  for (const auto& [line_addr, v] : lines) {
    check_coherence(sim, line_addr, v.held);
    const auto it = counts_.find(line_addr);
    const LineCounts counted = it == counts_.end() ? LineCounts{} : it->second;
    const auto holders =
        static_cast<std::uint32_t>(v.held.owners + v.held.sharers);
    if (counted.owners != v.held.owners || counted.sharers != v.held.sharers ||
        v.listed != holders || v.listed_count != holders ||
        v.listed_writebacks != v.writebacks) {
      record("line 0x" + hex(line_addr) + ": the caches hold " +
             std::to_string(v.held.owners) + " owners and " +
             std::to_string(v.held.sharers) + " sharers and the interfaces " +
             std::to_string(v.writebacks) + " write-backs; the transitions " +
             "count " + std::to_string(counted.owners) + " and " +
             std::to_string(counted.sharers) + ", the holder directory " +
             std::to_string(v.listed) + " holders and " +
             std::to_string(v.listed_writebacks) + " write-backs" + at_cycle);
    }
  }
}

void InvariantChecker::check_one_txn_per_line(const Simulator& sim) {
  // Re-derived from transaction phases, independent of line_inflight_.  The
  // reused vector keeps its capacity, so a clean cycle allocates nothing.
  inflight_lines_.clear();
  for (const auto& [id, txn] : sim.active_) {
    if (!txn->holds_line_slot()) continue;
    ++checks_;
    inflight_lines_.push_back(txn->line_addr);
  }
  std::sort(inflight_lines_.begin(), inflight_lines_.end());
  if (std::adjacent_find(inflight_lines_.begin(), inflight_lines_.end()) ==
      inflight_lines_.end()) {
    return;
  }
  // Some line has two: report each later holder beside the line's first, in
  // the order active_ lists them.
  std::unordered_map<std::uint32_t, std::uint64_t> first_on_line;
  for (const auto& [id, txn] : sim.active_) {
    if (!txn->holds_line_slot()) continue;
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
  for (const std::uint32_t line_addr : changed_) {
    const auto it = counts_.find(line_addr);
    LineCounts& c = it->second;
    ++checks_;
    check_coherence(sim, line_addr, c);
    const std::uint32_t listed =
        sim.holders_.holders(line_addr, listed_.data());
    if (c.owners < 0 || c.sharers < 0 ||
        static_cast<std::int64_t>(listed) != c.owners + c.sharers) {
      record("line 0x" + hex(line_addr) + ": the holder directory lists " +
             std::to_string(listed) + " holders, the transitions count " +
             std::to_string(c.owners) + " owners and " +
             std::to_string(c.sharers) + " sharers at cycle " +
             std::to_string(sim.now()));
    }
    c.changed = false;
    if (c.owners == 0 && c.sharers == 0) counts_.erase(it);
  }
  changed_.clear();
}

void InvariantChecker::on_run_end(const Simulator& sim) {
  full_mesi_sweep(sim);
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
