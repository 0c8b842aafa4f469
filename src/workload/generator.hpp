// Statistical trace generator: a streaming TraceSource synthesized from a
// BenchmarkProfile.
//
// The generator is deterministic (seeded per processor), streams events one
// at a time (paper-scale traces are never materialized), and is calibrated
// so the ideal analyzer recovers the profile's Table 1/2 targets.
#pragma once

#include <cstdint>
#include <deque>

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
  void derive_rates();                  // the profile-only set-up
  void synthesize();                    // refills staged_ with >= 1 event
  void emit_normal_ref();
  void emit_critical_section();
  [[nodiscard]] std::uint32_t next_gap();
  [[nodiscard]] trace::Event make_data_ref(bool force_shared);
  [[nodiscard]] trace::Event make_cs_data_ref(std::uint32_t lock_addr);
  [[nodiscard]] trace::Event make_ifetch();
  [[nodiscard]] std::uint32_t pick_lock();
  [[nodiscard]] bool in_burst_window() const;
  void maybe_emit_barrier();

  BenchmarkProfile profile_;
  std::uint32_t proc_;

  // Derived from the profile alone (derive_rates); sibling sources copy it.
  double cs_probability_ = 0.0;      // per normal ref: start a critical section
  double burst_probability_ = 0.0;   // same, inside the burst window
  double nested_probability_ = 0.0;  // per outer CS: contains an inner pair
  double gap_log1m_p_ = 0.0;         // log1p(-1/mean_gap), hoisted out of the
                                     // per-event geometric draw in next_gap();
                                     // 0 means mean_gap == 1 (no draw at all)
  util::GeometricSampler gap_sampler_;  // bit-identical table-drawn gaps
  std::uint64_t outer_target_ = 0;
  std::uint64_t burst_window_refs_ = 0;
  std::uint64_t barrier_interval_ = 0;
  std::uint32_t cold_slice_ = 0;     // per-processor cold slice, clamped so
                                     // P slices fit the shared region (see
                                     // cold_slice_bytes)

  // Stream state, rewound by reset().
  util::Rng rng_;
  std::deque<trace::Event> staged_;
  std::uint64_t refs_emitted_ = 0;   // memory references only (Table 1 "All")
  std::uint64_t outer_emitted_ = 0;
  std::uint64_t barriers_emitted_ = 0;

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
