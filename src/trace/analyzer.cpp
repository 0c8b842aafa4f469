#include "trace/analyzer.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::trace {
namespace {

double avg_over(const std::vector<IdealProcStats>& v,
                std::uint64_t IdealProcStats::*field) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (const auto& s : v) total += static_cast<double>(s.*field);
  return total / static_cast<double>(v.size());
}

/// The ideal pass over one processor's stream, one event at a time.
class IdealAccumulator {
 public:
  void consume(const Event& e);
  /// The statistics of the events consumed so far.  Asserts that no lock is
  /// still held: a trace must not end inside a critical section.
  [[nodiscard]] IdealProcStats finish() const;

 private:
  // Locks currently held: (lock address, acquisition time).  Hold time for a
  // pair spans acquire to matching release; nested holds are counted in full
  // for each lock, but held_cycles accumulates wall (work-cycle) time during
  // which at least one lock was held, matching the paper's "% of Time"
  // semantics where nested sections are not double counted.
  struct Held {
    std::uint32_t addr;
    std::uint64_t acquired_at;
  };
  IdealProcStats stats_;
  std::vector<Held> held_;
  std::uint64_t now_ = 0;           // work-cycle clock
  std::uint64_t locked_since_ = 0;  // valid when !held_.empty()
};

void IdealAccumulator::consume(const Event& e) {
  now_ += e.gap;
  switch (e.op) {
    case Op::kIFetch:
      ++stats_.refs_all;
      break;
    case Op::kLoad:
    case Op::kStore:
      ++stats_.refs_all;
      ++stats_.refs_data;
      if (e.op == Op::kStore) ++stats_.stores;
      if (AddressMap::is_shared_data(e.addr)) {
        ++stats_.refs_shared;
        if (e.op == Op::kStore) ++stats_.shared_stores;
      }
      break;
    case Op::kLockAcq:
      if (!held_.empty()) {
        ++stats_.nested_pairs;
      } else {
        locked_since_ = now_;
      }
      held_.push_back(Held{e.addr, now_});
      break;
    case Op::kBarrier:
      ++stats_.barriers;
      break;
    case Op::kLockRel: {
      // Releases match the most recent acquire of the same lock.
      auto it = std::find_if(held_.rbegin(), held_.rend(),
                             [&](const Held& h) { return h.addr == e.addr; });
      SYNCPAT_ASSERT_MSG(it != held_.rend(),
                         "trace releases a lock it does not hold");
      stats_.pair_hold_cycles += now_ - it->acquired_at;
      held_.erase(std::next(it).base());
      ++stats_.lock_pairs;
      if (held_.empty()) stats_.held_cycles += now_ - locked_since_;
      break;
    }
  }
}

IdealProcStats IdealAccumulator::finish() const {
  SYNCPAT_ASSERT_MSG(held_.empty(), "trace ends while holding a lock");
  IdealProcStats stats = stats_;
  stats.work_cycles = now_;
  return stats;
}

}  // namespace

double IdealProgramStats::avg_work_cycles() const {
  return avg_over(per_proc, &IdealProcStats::work_cycles);
}
double IdealProgramStats::avg_refs_all() const {
  return avg_over(per_proc, &IdealProcStats::refs_all);
}
double IdealProgramStats::avg_refs_data() const {
  return avg_over(per_proc, &IdealProcStats::refs_data);
}
double IdealProgramStats::avg_refs_shared() const {
  return avg_over(per_proc, &IdealProcStats::refs_shared);
}
double IdealProgramStats::avg_lock_pairs() const {
  return avg_over(per_proc, &IdealProcStats::lock_pairs);
}
double IdealProgramStats::avg_nested_pairs() const {
  return avg_over(per_proc, &IdealProcStats::nested_pairs);
}
double IdealProgramStats::avg_held_cycles() const {
  return avg_over(per_proc, &IdealProcStats::held_cycles);
}
double IdealProgramStats::avg_pair_hold_cycles() const {
  return avg_over(per_proc, &IdealProcStats::pair_hold_cycles);
}

double IdealProgramStats::avg_hold_per_pair() const {
  const double pairs = avg_lock_pairs();
  return pairs > 0.0 ? avg_pair_hold_cycles() / pairs : 0.0;
}

double IdealProgramStats::held_time_fraction() const {
  const double work = avg_work_cycles();
  return work > 0.0 ? avg_held_cycles() / work : 0.0;
}

IdealProcStats analyze_proc(TraceSource& source) {
  IdealAccumulator acc;
  Event e;
  while (source.next(e)) acc.consume(e);
  return acc.finish();
}

IdealProgramStats analyze_program(ProgramTrace& program) {
  IdealProgramStats stats;
  stats.name = program.name;
  stats.num_procs = static_cast<std::uint32_t>(program.num_procs());
  program.reset_all();
  for (auto& source : program.per_proc) {
    stats.per_proc.push_back(analyze_proc(*source));
  }
  program.reset_all();
  return stats;
}

class IdealTap::Source final : public TraceSource {
 public:
  explicit Source(std::unique_ptr<TraceSource> inner)
      : inner_(std::move(inner)) {}

  bool next(Event& out) override {
    if (inner_->next(out)) {
      acc_.consume(out);
      return true;
    }
    // End of trace: finish here, so a trace that ends inside a critical
    // section fails as soon as it ends, as in the standalone pass.
    if (!stats_) stats_ = acc_.finish();
    return false;
  }

  void reset() override {
    inner_->reset();
    acc_ = IdealAccumulator{};
    stats_.reset();
  }

  [[nodiscard]] const std::optional<IdealProcStats>& stats() const {
    return stats_;
  }

 private:
  std::unique_ptr<TraceSource> inner_;
  IdealAccumulator acc_;
  std::optional<IdealProcStats> stats_;  // set once the trace has ended
};

IdealTap::IdealTap(ProgramTrace& program) : name_(program.name) {
  for (auto& source : program.per_proc) {
    auto tap = std::make_unique<Source>(std::move(source));
    sources_.push_back(tap.get());
    source = std::move(tap);
  }
}

IdealProgramStats IdealTap::finish() const {
  IdealProgramStats stats;
  stats.name = name_;
  stats.num_procs = static_cast<std::uint32_t>(sources_.size());
  for (const Source* source : sources_) {
    SYNCPAT_ASSERT_MSG(source->stats().has_value(),
                       "ideal statistics need the whole trace");
    stats.per_proc.push_back(*source->stats());
  }
  return stats;
}

}  // namespace syncpat::trace
