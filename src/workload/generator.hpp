// Statistical trace generator: a streaming TraceSource synthesized from a
// BenchmarkProfile.
//
// The generator is deterministic (seeded per processor), streams events one
// at a time (paper-scale traces are never materialized), and is calibrated
// so the ideal analyzer recovers the profile's Table 1/2 targets.
#pragma once

#include <cstdint>

#include "trace/source.hpp"
#include "util/rng.hpp"
#include "workload/profile.hpp"

namespace syncpat::workload {

class ProfileTraceSource final : public trace::TraceSource {
 public:
  ProfileTraceSource(const BenchmarkProfile& profile, std::uint32_t proc);
  /// Processor `proc`'s source of `sibling`'s profile.  It copies the set-up
  /// that depends only on the profile (the gap table alone is ~1,700 log1p
  /// calls), so make_program_trace derives it once per program.
  ProfileTraceSource(const ProfileTraceSource& sibling, std::uint32_t proc);

  bool next(trace::Event& out) override;
  /// Rewinds the stream: reseeds the RNG and clears the counters and the
  /// locality cursors.  The profile-derived set-up is kept.
  void reset() override;

 private:
  void derive_rates();  // the profile-only set-up
  /// While references remain: whether the next one starts a critical
  /// section (forced near the end of the trace, else a coin flip).
  [[nodiscard]] bool starts_section();
  /// Draws a section's lock, length and nesting, opens it and returns its
  /// acquire.
  [[nodiscard]] trace::Event open_section();
  /// The open section's next event: a body reference or a lock event; its
  /// outer release closes it.
  [[nodiscard]] trace::Event section_event();
  /// Counts one barrier arrival and returns its event.
  [[nodiscard]] trace::Event barrier_arrival();
  [[nodiscard]] std::uint32_t next_gap();
  /// A reference outside any section; counts it.
  [[nodiscard]] trace::Event make_normal_ref();
  [[nodiscard]] trace::Event make_data_ref();
  [[nodiscard]] trace::Event make_cs_data_ref(std::uint32_t lock_addr);
  [[nodiscard]] trace::Event make_ifetch();
  [[nodiscard]] std::uint32_t pick_lock();
  [[nodiscard]] bool in_burst_window() const;

  BenchmarkProfile profile_;
  std::uint32_t proc_;

  // Derived from the profile alone (derive_rates); sibling sources copy it.
  // Every coin flip compares a 53-bit draw with the util::chance_threshold
  // of its probability, which gives exactly rng.chance(p)'s result.
  std::uint64_t cs_threshold_ = 0;       // per normal ref: start a section
  std::uint64_t burst_threshold_ = 0;    // same, inside the burst window
  std::uint64_t nested_threshold_ = 0;   // per outer CS: contains an inner pair
  std::uint64_t data_threshold_ = 0;     // data reference, not an ifetch
  std::uint64_t write_threshold_ = 0;    // a data reference stores
  std::uint64_t jump_threshold_ = 0;     // an ifetch takes a branch
  std::uint64_t private_threshold_ = 0;  // data ref draw r: private below this,
  std::uint64_t cold_threshold_ = 0;     // cold stream below this (0: none)
  std::uint64_t reref_threshold_ = 0;     // shared ref re-touches its line
  std::uint64_t affinity_threshold_ = 0;  // shared ref uses own partition
  std::uint64_t short_threshold_ = 0;     // a section is a short one
  std::uint64_t dominant_threshold_ = 0;  // a section takes lock 0
  std::uint64_t cs_region_threshold_ = 0;  // body data ref hits its region
  double gap_log1m_p_ = 0.0;         // log1p(-1/mean_gap), hoisted out of the
                                     // per-event geometric draw in next_gap();
                                     // 0 means mean_gap == 1 (no draw at all)
  util::GeometricSampler gap_sampler_;  // bit-identical table-drawn gaps
  std::uint64_t outer_target_ = 0;
  // Sections are forced once refs_left <= outer_left * force_budget_, so the
  // generated lock-pair count matches the profile even for short traces.
  std::uint64_t force_budget_ = 0;
  std::uint64_t burst_window_refs_ = 0;
  std::uint64_t barrier_interval_ = 0;
  std::uint32_t cold_slice_ = 0;     // per-processor cold slice, clamped so
                                     // P slices fit the shared region (see
                                     // cold_slice_bytes)

  // Stream state, rewound by reset().
  util::Rng rng_;
  bool skewed_ = false;              // this processor's gaps take cpi_skew
  // Where next() stands in the open critical section's events.
  enum class InnerPair : std::uint8_t { kNone, kPending, kHeld };
  struct Section {
    std::uint64_t body_refs = 0;    // 0 while no section is open
    std::uint64_t next_ref = 0;     // body index of the next reference
    std::uint64_t inner_start = 0;  // the nested pair's acquire precedes
    std::uint64_t inner_stop = 0;   // this body ref, its release this one
                                    // (body_refs: the outer release)
    std::uint32_t lock = 0;
    InnerPair inner = InnerPair::kNone;  // the nested pair's events to come
  } section_;
  std::uint64_t refs_emitted_ = 0;   // memory references only (Table 1 "All")
  std::uint64_t outer_emitted_ = 0;
  std::uint64_t barriers_emitted_ = 0;
  std::uint64_t next_barrier_at_ = 0;  // refs_emitted_ that makes the next
                                       // arrival due; ~0 when none is left

  // Locality cursors, also rewound by reset().
  std::uint32_t pc_ = 0;             // instruction pointer within code region
  std::uint32_t last_shared_line_ = 0;
  std::uint32_t cold_pos_ = 0;
  std::uint32_t last_cold_addr_ = 0;

  [[nodiscard]] std::uint32_t cold_slice_bytes() const;
};

/// Builds a full program trace (one generator per processor, sharing one
/// derivation of the profile's rates and gap table).
[[nodiscard]] trace::ProgramTrace make_program_trace(const BenchmarkProfile& profile);

}  // namespace syncpat::workload
