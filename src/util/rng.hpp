#pragma once

#include <cstdint>
#include <limits>

namespace llamp {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).  Used by
/// the cluster emulator's noise model, the property-test graph generators,
/// and the proxy applications so that every experiment in the repository is
/// exactly reproducible from its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

  /// Raw 64 random bits.
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

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).  Bitmask rejection sampling:
  /// draw ceil(log2(span)) bits and retry until the value lands in range,
  /// so every value is exactly equally likely (`next_u64() % span` would
  /// bias toward small values whenever span does not divide 2^64).  Still
  /// fully deterministic per seed; expected < 2 draws per call.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    // All arithmetic in uint64: `hi - lo` and `lo + v` could overflow the
    // signed type for spans beyond 2^63 (wrapping unsigned math gives the
    // right answer in two's complement either way).
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    std::uint64_t mask = span - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    std::uint64_t v = next_u64() & mask;
    while (v >= span) v = next_u64() & mask;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v);
  }

  /// Standard normal via Box-Muller (one value per call; the pair's second
  /// member is discarded to keep the generator state trivially seekable).
  double normal() {
    const double u1 = open_uniform();
    const double u2 = uniform();
    constexpr double kTwoPi = 6.283185307179586;
    return nonstd_sqrt(-2.0 * nonstd_log(u1)) * nonstd_cos(kTwoPi * u2);
  }

  /// Advance the state exactly as normal() does, without the
  /// transcendentals: for a caller whose draw cannot change its result but
  /// whose later draws must stay where they are.
  void skip_normal() {
    (void)open_uniform();
    (void)uniform();
  }

  /// Normal with explicit mean / standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  /// Uniform in (0, 1): normal()'s u1, redrawn while 0 (log(0) = -inf).
  double open_uniform() {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return u;
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // Thin indirection so <cmath> stays out of this header's public surface.
  static double nonstd_sqrt(double v);
  static double nonstd_log(double v);
  static double nonstd_cos(double v);

  std::uint64_t state_[4];
};

inline double Rng::nonstd_sqrt(double v) { return __builtin_sqrt(v); }
inline double Rng::nonstd_log(double v) { return __builtin_log(v); }
inline double Rng::nonstd_cos(double v) { return __builtin_cos(v); }

}  // namespace llamp
