#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::workload {

using trace::AddressMap;
using trace::Event;
using trace::Op;

namespace {
constexpr std::uint32_t kCodeWorkingSet = 16 * 1024;  // loop working set
constexpr double kJumpProbability = 1.0 / 64.0;       // taken-branch rate
constexpr double kLockOpGap = 2.0;                    // cycles per lock insn
// Budget for the per-processor cold ("streaming array") slices: they must
// stay below the critical-section data regions at shared offset 0x2000'0000,
// with headroom for the hot pools stacked on top of them.  384 MiB keeps
// every historical configuration (cold slices were never clamped below
// P = 97) bit-identical.
constexpr std::uint64_t kColdRegionBudget = 0x1800'0000ull;
}  // namespace

ProfileTraceSource::ProfileTraceSource(const BenchmarkProfile& profile,
                                       std::uint32_t proc)
    : profile_(profile), proc_(proc) {
  derive_rates();
  reset();
}

ProfileTraceSource::ProfileTraceSource(const ProfileTraceSource& sibling,
                                       std::uint32_t proc)
    : ProfileTraceSource(sibling) {
  proc_ = proc;
  reset();
}

void ProfileTraceSource::derive_rates() {
  cold_slice_ = cold_slice_bytes();
  barrier_interval_ =
      profile_.locking.barriers_per_proc > 0
          ? std::max<std::uint64_t>(
                1, profile_.refs_per_proc /
                       (profile_.locking.barriers_per_proc + 1))
          : 0;

  const double mean_gap = std::max(1.0, profile_.work_cycles_per_ref);
  gap_log1m_p_ = mean_gap > 1.0 ? std::log1p(-1.0 / mean_gap) : 0.0;
  gap_sampler_ = gap_log1m_p_ != 0.0 ? util::GeometricSampler(gap_log1m_p_)
                                     : util::GeometricSampler();

  const LockingModel& lk = profile_.locking;
  outer_target_ = lk.pairs_per_proc - lk.nested_per_proc;
  if (outer_target_ > 0) {
    // Expected references spent inside critical sections, so the per-normal-
    // reference start probability lands the right number of sections.
    const double mean_cs = (1.0 - lk.short_fraction) * lk.cs_work_cycles +
                           lk.short_fraction * lk.short_cs_cycles;
    const double body_refs =
        mean_cs / std::max(1.0, profile_.work_cycles_per_ref);
    const double cs_refs = static_cast<double>(outer_target_) * body_refs;
    const double normal_refs =
        std::max(1.0, static_cast<double>(profile_.refs_per_proc) - cs_refs);
    nested_probability_ =
        static_cast<double>(lk.nested_per_proc) / static_cast<double>(outer_target_);

    const double burst_outer =
        lk.burst_fraction * static_cast<double>(outer_target_);
    burst_window_refs_ = static_cast<std::uint64_t>(
        lk.burst_window * static_cast<double>(profile_.refs_per_proc));
    const double burst_normal = std::max(
        1.0, static_cast<double>(burst_window_refs_) - burst_outer * body_refs);
    burst_probability_ = burst_outer > 0.0 ? burst_outer / burst_normal : 0.0;
    cs_probability_ = (static_cast<double>(outer_target_) - burst_outer) /
                      std::max(1.0, normal_refs - burst_normal);
  }
}

void ProfileTraceSource::reset() {
  rng_.reseed(profile_.seed * 0x9e3779b97f4a7c15ULL + proc_ + 1);
  staged_.clear();
  refs_emitted_ = 0;
  outer_emitted_ = 0;
  barriers_emitted_ = 0;
  pc_ = AddressMap::code_addr((proc_ * 4096) % kCodeWorkingSet);
  last_shared_line_ = AddressMap::shared_addr(0);
  cold_pos_ = 0;
  // Historically this computed proc_ * cold_region_bytes unconditionally,
  // which overflowed the shared region (assert) for large P even with the
  // cold stream disabled.  The clamped slice is 0 when there is no cold
  // stream and last_cold_addr_ is then never read before a cold load sets it.
  last_cold_addr_ = AddressMap::shared_addr(proc_ * cold_slice_);
}

std::uint32_t ProfileTraceSource::cold_slice_bytes() const {
  const LocalityModel& loc = profile_.locality;
  if (loc.cold_fraction <= 0.0) return 0;
  const std::uint64_t want = loc.cold_region_bytes;
  if (want * profile_.num_procs <= kColdRegionBudget) {
    return loc.cold_region_bytes;
  }
  // Scale the per-processor slice down so P slices fit the budget, keeping
  // the streaming-march behavior at any machine size (64-byte floor so a
  // slice always spans whole cache lines).
  const std::uint64_t slice = (kColdRegionBudget / profile_.num_procs) & ~63ull;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(slice, 64));
}

bool ProfileTraceSource::in_burst_window() const {
  return refs_emitted_ < burst_window_refs_;
}

void ProfileTraceSource::maybe_emit_barrier() {
  const std::uint64_t target = profile_.locking.barriers_per_proc;
  while (barriers_emitted_ < target &&
         refs_emitted_ >= (barriers_emitted_ + 1) * barrier_interval_) {
    staged_.push_back(Event{AddressMap::barrier_addr(0), 2, Op::kBarrier});
    ++barriers_emitted_;
  }
}

bool ProfileTraceSource::next(Event& out) {
  if (staged_.empty()) {
    if (refs_emitted_ >= profile_.refs_per_proc) {
      // Trailing barriers: every processor must emit the full sequence.
      while (barriers_emitted_ < profile_.locking.barriers_per_proc) {
        staged_.push_back(Event{AddressMap::barrier_addr(0), 2, Op::kBarrier});
        ++barriers_emitted_;
      }
      if (staged_.empty()) return false;
    } else {
      synthesize();
    }
  }
  out = staged_.front();
  staged_.pop_front();
  return true;
}

void ProfileTraceSource::synthesize() {
  // Force remaining critical sections out before the trace ends, so the
  // generated lock-pair count matches the profile even for short traces.
  const std::uint64_t refs_left = profile_.refs_per_proc - refs_emitted_;
  const std::uint64_t outer_left = outer_target_ - outer_emitted_;
  const bool force_cs =
      outer_left > 0 &&
      refs_left <= outer_left * std::max<std::uint64_t>(
                       1, static_cast<std::uint64_t>(
                              profile_.locking.cs_work_cycles /
                              std::max(1.0, profile_.work_cycles_per_ref)) +
                              2);
  const double p = in_burst_window() ? burst_probability_ : cs_probability_;
  if (outer_left > 0 && (force_cs || rng_.chance(p))) {
    emit_critical_section();
  } else {
    emit_normal_ref();
  }
  // Barrier thresholds are reference-count based, so every processor emits
  // the same arrival sequence.  Never inside a critical section (deadlock).
  maybe_emit_barrier();
}

std::uint32_t ProfileTraceSource::next_gap() {
  // gap_log1m_p_ == 0 marks a mean gap of exactly 1: geometric(1.0) draws
  // nothing and contributes 0, matching the original per-event computation.
  std::uint64_t gap =
      1 + (gap_log1m_p_ != 0.0 ? gap_sampler_.draw(rng_) : 0);
  if (profile_.cpi_skew > 0.0 && proc_ == profile_.skew_proc) {
    gap = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(gap) * (1.0 + profile_.cpi_skew)));
  }
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(gap, 1u << 20));
}

Event ProfileTraceSource::make_ifetch() {
  if (rng_.chance(kJumpProbability)) {
    pc_ = AddressMap::code_addr(
        static_cast<std::uint32_t>(rng_.below(kCodeWorkingSet / 4)) * 4);
  } else {
    pc_ += 4;
    if (pc_ >= AddressMap::code_addr(kCodeWorkingSet)) {
      pc_ = AddressMap::code_addr(0);
    }
  }
  return Event{pc_, next_gap(), Op::kIFetch};
}

Event ProfileTraceSource::make_data_ref(bool force_shared) {
  const LocalityModel& loc = profile_.locality;
  const Op op = rng_.chance(loc.write_fraction) ? Op::kStore : Op::kLoad;
  const double r = rng_.uniform();

  if (!force_shared && r < loc.private_fraction) {
    const auto off =
        static_cast<std::uint32_t>(rng_.below(loc.private_hot_bytes / 4)) * 4;
    return Event{AddressMap::private_addr(proc_, off), next_gap(), op};
  }
  if (!force_shared && loc.cold_fraction > 0.0 &&
      r < loc.private_fraction + loc.cold_fraction) {
    // Streaming march through this processor's slice of a large shared
    // region (Qsort's array).  Stores re-touch the last loaded address —
    // "the reads almost always precede the exchanges of the same lines"
    // (§4.2) — so they hit; loads advance the stream.
    const std::uint32_t slice = cold_slice_;
    const std::uint32_t base = proc_ * slice;
    if (op == Op::kStore) {
      // Exchange into the line the last cold load fetched: a write hit.
      return Event{last_cold_addr_, next_gap(), op};
    }
    last_cold_addr_ = AddressMap::shared_addr(base + cold_pos_);
    cold_pos_ = (cold_pos_ + loc.cold_stride_bytes) % slice;
    return Event{last_cold_addr_, next_gap(), op};
  }
  // Hot shared pool, with spatial re-reference locality.
  if (rng_.chance(loc.shared_rerefs)) {
    return Event{last_shared_line_ +
                     static_cast<std::uint32_t>(rng_.below(4)) * 4,
                 next_gap(), op};
  }
  const std::uint32_t pool_off =
      static_cast<std::uint32_t>(rng_.below(loc.shared_hot_bytes / 16)) * 16;
  // Hot shared data lives above the cold slices so the regions never alias;
  // slice 0 is the common (truly contended) pool, slices 1..P are the
  // per-processor affinity partitions.
  const std::uint32_t hot_base = profile_.num_procs * cold_slice_;
  const std::uint32_t slice =
      rng_.chance(loc.shared_affinity) ? (1 + proc_) * loc.shared_hot_bytes : 0;
  last_shared_line_ = AddressMap::shared_addr(hot_base + slice + pool_off);
  return Event{last_shared_line_, next_gap(), op};
}

void ProfileTraceSource::emit_normal_ref() {
  const bool data = rng_.chance(profile_.data_ref_fraction);
  staged_.push_back(data ? make_data_ref(false) : make_ifetch());
  ++refs_emitted_;
}

std::uint32_t ProfileTraceSource::pick_lock() {
  const LockingModel& lk = profile_.locking;
  if (lk.partitioned) {
    // Per-processor lock space: partition locks never collide.
    const auto slot = static_cast<std::uint32_t>(rng_.below(lk.num_locks));
    return AddressMap::lock_addr(1 + proc_ * lk.num_locks + slot);
  }
  if (lk.num_locks <= 1 || rng_.chance(lk.dominant_weight)) {
    return AddressMap::lock_addr(0);
  }
  // Uniform over the non-dominant locks, skipping the inner (nested) lock:
  // locks are non-reentrant, so an outer section must never sit on the lock
  // that nested acquisitions take.
  std::uint32_t id;
  do {
    id = 1 + static_cast<std::uint32_t>(rng_.below(lk.num_locks - 1));
  } while (id == lk.inner_lock && lk.num_locks > 2);
  if (id == lk.inner_lock) return AddressMap::lock_addr(0);
  return AddressMap::lock_addr(id);
}

trace::Event ProfileTraceSource::make_cs_data_ref(std::uint32_t lock_addr) {
  // The data the lock protects: a small per-lock region far above the hot
  // pools (offset 0x2000'0000 into the shared segment).
  const LockingModel& lk = profile_.locking;
  const std::uint32_t lock_id = (lock_addr - AddressMap::kLockBase) / 64;
  const std::uint32_t base =
      0x2000'0000u + lock_id * std::max<std::uint32_t>(lk.cs_region_bytes, 16);
  const std::uint32_t off =
      static_cast<std::uint32_t>(rng_.below(lk.cs_region_bytes / 4)) * 4;
  const Op op = rng_.chance(profile_.locality.write_fraction) ? Op::kStore
                                                              : Op::kLoad;
  return Event{AddressMap::shared_addr(base + off), next_gap(), op};
}

void ProfileTraceSource::emit_critical_section() {
  const LockingModel& lk = profile_.locking;
  ++outer_emitted_;

  // Bimodal sections: a short one always targets lock 0.
  const bool short_section = rng_.chance(lk.short_fraction);
  const std::uint32_t lock =
      short_section ? AddressMap::lock_addr(0) : pick_lock();

  // Draw the section's ideal duration and convert to a reference count.
  const double wcpr = std::max(1.0, profile_.work_cycles_per_ref);
  const double mean = short_section ? lk.short_cs_cycles : lk.cs_work_cycles;
  const double duration =
      1.0 + static_cast<double>(rng_.exponential_cycles(mean));
  auto body_refs = static_cast<std::uint64_t>(std::llround(duration / wcpr));
  body_refs = std::max<std::uint64_t>(body_refs, 1);

  const bool nested = rng_.chance(nested_probability_) &&
                      lock != AddressMap::lock_addr(lk.inner_lock);
  // The inner (thread-queue) lock pair nests in the middle, held for about a
  // quarter of the section (Presto's short queue manipulation).
  const std::uint64_t inner_len = nested ? std::max<std::uint64_t>(1, body_refs / 4) : 0;
  const std::uint64_t inner_start = nested ? body_refs / 2 : 0;

  staged_.push_back(Event{lock, static_cast<std::uint32_t>(kLockOpGap),
                          Op::kLockAcq});
  for (std::uint64_t i = 0; i < body_refs; ++i) {
    if (nested && i == inner_start) {
      staged_.push_back(Event{AddressMap::lock_addr(lk.inner_lock),
                              static_cast<std::uint32_t>(kLockOpGap),
                              Op::kLockAcq});
    }
    // Section bodies keep the program's instruction/data mix; data refs
    // mostly touch the lock's protected region (first touches migrate the
    // data from the previous holder, the rest hit in cache).
    const bool data = rng_.chance(profile_.data_ref_fraction);
    const Event body = !data              ? make_ifetch()
                       : rng_.chance(lk.cs_region_bias)
                           ? make_cs_data_ref(lock)
                           : make_data_ref(false);
    staged_.push_back(body);
    ++refs_emitted_;
    if (nested && i == inner_start + inner_len) {
      staged_.push_back(Event{AddressMap::lock_addr(lk.inner_lock),
                              static_cast<std::uint32_t>(kLockOpGap),
                              Op::kLockRel});
    }
  }
  if (nested && inner_start + inner_len >= body_refs) {
    staged_.push_back(Event{AddressMap::lock_addr(lk.inner_lock),
                            static_cast<std::uint32_t>(kLockOpGap),
                            Op::kLockRel});
  }
  staged_.push_back(Event{lock, static_cast<std::uint32_t>(kLockOpGap),
                          Op::kLockRel});
}

trace::ProgramTrace make_program_trace(const BenchmarkProfile& profile) {
  trace::ProgramTrace program;
  program.name = profile.name;
  const ProfileTraceSource prototype(profile, 0);
  for (std::uint32_t p = 0; p < profile.num_procs; ++p) {
    program.per_proc.push_back(
        std::make_unique<ProfileTraceSource>(prototype, p));
  }
  return program;
}

}  // namespace syncpat::workload
