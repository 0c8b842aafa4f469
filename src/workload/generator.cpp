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
constexpr std::uint32_t kLockOpGap = 2;               // cycles per lock insn
constexpr std::uint64_t kNoBarrier = ~0ull;
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
  using util::chance_threshold;
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

  const LocalityModel& loc = profile_.locality;
  const LockingModel& lk = profile_.locking;
  data_threshold_ = chance_threshold(profile_.data_ref_fraction);
  write_threshold_ = chance_threshold(loc.write_fraction);
  jump_threshold_ = chance_threshold(kJumpProbability);
  private_threshold_ = chance_threshold(loc.private_fraction);
  cold_threshold_ =
      loc.cold_fraction > 0.0
          ? chance_threshold(loc.private_fraction + loc.cold_fraction)
          : 0;
  reref_threshold_ = chance_threshold(loc.shared_rerefs);
  affinity_threshold_ = chance_threshold(loc.shared_affinity);
  short_threshold_ = chance_threshold(lk.short_fraction);
  dominant_threshold_ = chance_threshold(lk.dominant_weight);
  cs_region_threshold_ = chance_threshold(lk.cs_region_bias);
  force_budget_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             lk.cs_work_cycles / std::max(1.0, profile_.work_cycles_per_ref)) +
             2);

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
    nested_threshold_ = chance_threshold(
        static_cast<double>(lk.nested_per_proc) /
        static_cast<double>(outer_target_));

    const double burst_outer =
        lk.burst_fraction * static_cast<double>(outer_target_);
    burst_window_refs_ = static_cast<std::uint64_t>(
        lk.burst_window * static_cast<double>(profile_.refs_per_proc));
    const double burst_normal = std::max(
        1.0, static_cast<double>(burst_window_refs_) - burst_outer * body_refs);
    burst_threshold_ =
        chance_threshold(burst_outer > 0.0 ? burst_outer / burst_normal : 0.0);
    cs_threshold_ = chance_threshold(
        (static_cast<double>(outer_target_) - burst_outer) /
        std::max(1.0, normal_refs - burst_normal));
  }
}

void ProfileTraceSource::reset() {
  rng_.reseed(profile_.seed * 0x9e3779b97f4a7c15ULL + proc_ + 1);
  skewed_ = profile_.cpi_skew > 0.0 && proc_ == profile_.skew_proc;
  section_ = Section{};
  refs_emitted_ = 0;
  outer_emitted_ = 0;
  barriers_emitted_ = 0;
  next_barrier_at_ =
      profile_.locking.barriers_per_proc > 0 ? barrier_interval_ : kNoBarrier;
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

Event ProfileTraceSource::barrier_arrival() {
  ++barriers_emitted_;
  next_barrier_at_ = barriers_emitted_ < profile_.locking.barriers_per_proc
                         ? (barriers_emitted_ + 1) * barrier_interval_
                         : kNoBarrier;
  return Event{AddressMap::barrier_addr(0), 2, Op::kBarrier};
}

bool ProfileTraceSource::next(Event& out) {
  if (section_.body_refs > 0) {
    out = section_event();
  } else if (refs_emitted_ >= next_barrier_at_) {
    // Barrier thresholds are reference-count based, so every processor
    // emits the same arrival sequence.  Never inside a critical section
    // (deadlock): an arrival that falls due there follows its release.
    out = barrier_arrival();
  } else if (refs_emitted_ < profile_.refs_per_proc) {
    out = starts_section() ? open_section() : make_normal_ref();
  } else if (barriers_emitted_ < profile_.locking.barriers_per_proc) {
    // Trailing barriers: every processor must emit the full sequence.
    out = barrier_arrival();
  } else {
    return false;
  }
  return true;
}

bool ProfileTraceSource::starts_section() {
  const std::uint64_t outer_left = outer_target_ - outer_emitted_;
  if (outer_left == 0) return false;
  // Force remaining critical sections out before the trace ends, so the
  // generated lock-pair count matches the profile even for short traces.
  const std::uint64_t refs_left = profile_.refs_per_proc - refs_emitted_;
  return refs_left <= outer_left * force_budget_ ||
         rng_.chance_below(in_burst_window() ? burst_threshold_
                                             : cs_threshold_);
}

std::uint32_t ProfileTraceSource::next_gap() {
  // gap_log1m_p_ == 0 marks a mean gap of exactly 1: geometric(1.0) draws
  // nothing and contributes 0, matching the original per-event computation.
  std::uint64_t gap =
      1 + (gap_log1m_p_ != 0.0 ? gap_sampler_.draw(rng_) : 0);
  if (skewed_) {
    gap = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(gap) * (1.0 + profile_.cpi_skew)));
  }
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(gap, 1u << 20));
}

Event ProfileTraceSource::make_ifetch() {
  if (rng_.chance_below(jump_threshold_)) {
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

Event ProfileTraceSource::make_data_ref() {
  const LocalityModel& loc = profile_.locality;
  const Op op = rng_.chance_below(write_threshold_) ? Op::kStore : Op::kLoad;
  const std::uint64_t r = rng_.next_u53();

  if (r < private_threshold_) {
    const auto off =
        static_cast<std::uint32_t>(rng_.below(loc.private_hot_bytes / 4)) * 4;
    return Event{AddressMap::private_addr(proc_, off), next_gap(), op};
  }
  if (r < cold_threshold_) {
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
  if (rng_.chance_below(reref_threshold_)) {
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
  const std::uint32_t slice = rng_.chance_below(affinity_threshold_)
                                  ? (1 + proc_) * loc.shared_hot_bytes
                                  : 0;
  last_shared_line_ = AddressMap::shared_addr(hot_base + slice + pool_off);
  return Event{last_shared_line_, next_gap(), op};
}

Event ProfileTraceSource::make_normal_ref() {
  ++refs_emitted_;
  return rng_.chance_below(data_threshold_) ? make_data_ref() : make_ifetch();
}

std::uint32_t ProfileTraceSource::pick_lock() {
  const LockingModel& lk = profile_.locking;
  if (lk.partitioned) {
    // Per-processor lock space: partition locks never collide.
    const auto slot = static_cast<std::uint32_t>(rng_.below(lk.num_locks));
    return AddressMap::lock_addr(1 + proc_ * lk.num_locks + slot);
  }
  if (lk.num_locks <= 1 || rng_.chance_below(dominant_threshold_)) {
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
  const Op op = rng_.chance_below(write_threshold_) ? Op::kStore : Op::kLoad;
  return Event{AddressMap::shared_addr(base + off), next_gap(), op};
}

Event ProfileTraceSource::open_section() {
  const LockingModel& lk = profile_.locking;
  ++outer_emitted_;

  // Bimodal sections: a short one always targets lock 0.
  const bool short_section = rng_.chance_below(short_threshold_);
  const std::uint32_t lock =
      short_section ? AddressMap::lock_addr(0) : pick_lock();

  // Draw the section's ideal duration and convert to a reference count.
  const double wcpr = std::max(1.0, profile_.work_cycles_per_ref);
  const double mean = short_section ? lk.short_cs_cycles : lk.cs_work_cycles;
  const double duration =
      1.0 + static_cast<double>(rng_.exponential_cycles(mean));
  auto body_refs = static_cast<std::uint64_t>(std::llround(duration / wcpr));
  body_refs = std::max<std::uint64_t>(body_refs, 1);

  const bool nested = rng_.chance_below(nested_threshold_) &&
                      lock != AddressMap::lock_addr(lk.inner_lock);
  // The inner (thread-queue) lock pair nests in the middle, held for about a
  // quarter of the section (Presto's short queue manipulation).
  const std::uint64_t inner_len = nested ? std::max<std::uint64_t>(1, body_refs / 4) : 0;
  const std::uint64_t inner_start = nested ? body_refs / 2 : 0;
  section_ = Section{body_refs,
                     0,
                     inner_start,
                     std::min(inner_start + inner_len + 1, body_refs),
                     lock,
                     nested ? InnerPair::kPending : InnerPair::kNone};
  return Event{lock, kLockOpGap, Op::kLockAcq};
}

Event ProfileTraceSource::section_event() {
  Section& s = section_;
  const std::uint32_t inner = AddressMap::lock_addr(profile_.locking.inner_lock);
  if (s.inner == InnerPair::kPending && s.next_ref == s.inner_start) {
    s.inner = InnerPair::kHeld;
    return Event{inner, kLockOpGap, Op::kLockAcq};
  }
  if (s.inner == InnerPair::kHeld && s.next_ref == s.inner_stop) {
    s.inner = InnerPair::kNone;
    return Event{inner, kLockOpGap, Op::kLockRel};
  }
  if (s.next_ref == s.body_refs) {
    s.body_refs = 0;
    return Event{s.lock, kLockOpGap, Op::kLockRel};
  }
  // Section bodies keep the program's instruction/data mix; data refs
  // mostly touch the lock's protected region (first touches migrate the
  // data from the previous holder, the rest hit in cache).
  const bool data = rng_.chance_below(data_threshold_);
  const Event ref = !data ? make_ifetch()
                    : rng_.chance_below(cs_region_threshold_)
                        ? make_cs_data_ref(s.lock)
                        : make_data_ref();
  ++s.next_ref;
  ++refs_emitted_;
  return ref;
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
