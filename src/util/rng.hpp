// Deterministic, seedable random number generation for workload synthesis.
//
// Trace generation must be exactly reproducible across runs and platforms, so
// we avoid std::mt19937 + std::*_distribution (whose outputs are not pinned by
// the standard for all distributions) and implement xoshiro256** with our own
// distribution helpers.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <span>

#include "util/assert.hpp"

namespace syncpat::util {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna), a fast high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) {
    SYNCPAT_ASSERT(bound > 0);
    // Rejection-free fast path is fine for simulation workloads; bias from the
    // plain multiply-shift is < 2^-64 * bound which is irrelevant here, but we
    // reject anyway to keep the generator exactly uniform.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    SYNCPAT_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// The 53-bit integer n that uniform() scales to n * 2^-53.
  std::uint64_t next_u53() { return next_u64() >> 11; }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u53()) * 0x1.0p-53; }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// chance(p) with p given as chance_threshold(p): the same draw and the
  /// same result, with no floating point per trial.
  bool chance_below(std::uint64_t threshold) { return next_u53() < threshold; }

  /// Geometric number of failures before success; mean = (1-p)/p.
  std::uint64_t geometric(double p) {
    SYNCPAT_ASSERT(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 0;
    return geometric_from_log(std::log1p(-p));
  }

  /// geometric() with the invariant log1p(-p) precomputed by the caller:
  /// hot loops drawing many values at a fixed p hoist the log out of the
  /// per-draw path.  Same division, so results stay bit-identical.
  std::uint64_t geometric_from_log(double log1m_p) {
    const double u = uniform();
    return static_cast<std::uint64_t>(std::log1p(-u) / log1m_p);
  }

  /// Exponential with the given mean, rounded to an integer cycle count.
  std::uint64_t exponential_cycles(double mean) {
    SYNCPAT_ASSERT(mean >= 0.0);
    if (mean == 0.0) return 0;
    const double u = uniform();
    return static_cast<std::uint64_t>(-mean * std::log1p(-u));
  }

  /// Pick an index weighted by `weights` (need not be normalized).  Weights
  /// must be finite and non-negative with a positive sum: a NaN weight would
  /// make the subtraction scan below never go negative and silently return
  /// the last index (and NaN also slips past a plain `total > 0.0` assert,
  /// since every comparison with NaN is false), so the check is explicit and
  /// always on.
  std::size_t weighted_pick(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) {
      SYNCPAT_ASSERT_MSG(std::isfinite(w) && w >= 0.0,
                         "weighted_pick weights must be finite and >= 0");
      total += w;
    }
    SYNCPAT_ASSERT_MSG(std::isfinite(total) && total > 0.0,
                       "weighted_pick weights must sum to a positive value");
    double x = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// The integer form of probability `p`: uniform() < p holds exactly when
/// next_u53() < chance_threshold(p).  uniform() is n * 2^-53 exactly, scaling
/// by a power of two is exact, and an integer n is below x exactly when it
/// is below ceil(x); so the threshold is ceil(p * 2^53), 0 when p <= 0 or
/// NaN (never true) and 2^53 when p >= 1 (always true).
[[nodiscard]] inline std::uint64_t chance_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Repeated geometric draws at a fixed p, bit-identical to
/// Rng::geometric_from_log(log1m_p) but without a libm call per draw.
///
/// geometric_from_log maps u = next_u53() * 2^-53 to
/// floor(log1p(-u) / log1m_p), which is a monotone non-decreasing step
/// function of the 53-bit integer n = next_u53().  The constructor
/// binary-searches the exact n at which the result steps from k to k+1 for
/// the first kTable values, so a draw is one next_u64() plus a short integer
/// scan.  Draws that land past the table (probability (1-p)^kTable) fall
/// back to the original formula on the same n, so every draw consumes
/// exactly one next_u64() and yields exactly the value the formula would.
///
/// When p is so small that most draws would overrun the table (mean gap
/// beyond ~tens of cycles), the table is skipped entirely and every draw
/// uses the formula — same results, and those profiles draw rarely anyway.
class GeometricSampler {
 public:
  GeometricSampler() = default;

  explicit GeometricSampler(double log1m_p) : log1m_p_(log1m_p) {
    SYNCPAT_ASSERT(log1m_p < 0.0);
    // Worthwhile only if at least half the draws resolve inside the table.
    use_table_ = static_cast<double>(kTable) * log1m_p < kLnHalf;
    if (!use_table_) return;
    std::uint64_t lo = 0;
    for (std::uint32_t k = 0; k < kTable; ++k) {
      // bound_[k] = smallest n with value(n) >= k+1 (sentinel 2^53 if none);
      // boundaries are non-decreasing, so each search resumes at the last.
      std::uint64_t hi = 1ull << 53;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (value(mid) >= k + 1) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      bound_[k] = lo;
    }
  }

  /// One geometric draw; consumes exactly one next_u64().
  std::uint64_t draw(Rng& rng) { return value_of(rng.next_u53()); }

  /// The draw that the 53-bit integer n maps to.
  [[nodiscard]] std::uint64_t value_of(std::uint64_t n) const {
    if (use_table_) {
      std::uint32_t k = 0;
      while (k < kTable && n >= bound_[k]) ++k;
      if (k < kTable) return k;
    }
    return value(n);
  }

 private:
  static constexpr std::uint32_t kTable = 32;
  static constexpr double kLnHalf = -0.6931471805599453;

  /// The reference mapping — the identical expression geometric_from_log
  /// evaluates, on the integer the uniform draw quantizes to.
  [[nodiscard]] std::uint64_t value(std::uint64_t n) const {
    const double u = static_cast<double>(n) * 0x1.0p-53;
    return static_cast<std::uint64_t>(std::log1p(-u) / log1m_p_);
  }

  double log1m_p_ = 0.0;
  bool use_table_ = false;
  std::array<std::uint64_t, kTable> bound_{};
};

}  // namespace syncpat::util
