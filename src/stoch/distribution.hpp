#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace llamp::stoch {

/// Declarative distributions over LogGPS parameters for the Monte Carlo
/// uncertainty-quantification engine (stoch/mc.hpp).  The paper reads its
/// tolerances off a single measured LogGPS operating point; these
/// distributions express how uncertain that operating point is (run-to-run
/// o and G jitter, per-cluster L spread), so the analysis can report
/// tolerance *bands* instead of point estimates.
///
/// A distribution is sampled relative to a scenario's deterministic base
/// value, so one spec applies across scenarios with different operating
/// points (kBase and kRelNormal read the base; kConstant/kNormal/kUniform
/// ignore it).  All LogGPS quantities are nonnegative, so normal draws are
/// truncated at zero (documented in DESIGN.md §4c); specs whose support
/// includes negative values are rejected by validate().
struct Distribution {
  enum class Kind : std::uint8_t {
    kBase,       ///< degenerate: always the scenario's base value
    kConstant,   ///< degenerate: always `a`
    kNormal,     ///< Normal(mean = a, stddev = b), truncated at 0
    kRelNormal,  ///< Normal(mean = base, stddev = a * base), truncated at 0
    kUniform,    ///< Uniform[a, b)
  };

  Kind kind = Kind::kBase;
  double a = 0.0;
  double b = 0.0;

  static Distribution base() { return {}; }
  static Distribution constant(double v) {
    return {Kind::kConstant, v, 0.0};
  }
  static Distribution normal(double mean, double stddev) {
    return {Kind::kNormal, mean, stddev};
  }
  static Distribution rel_normal(double sigma) {
    return {Kind::kRelNormal, sigma, 0.0};
  }
  static Distribution uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }

  /// Draw one value given the scenario's deterministic base value.
  /// Degenerate distributions return their value *bitwise* (no arithmetic
  /// on the rng path can disturb it) — the contract the degenerate-MC
  /// reproduction tests pin.
  double sample(Rng& rng, double base_value) const;

  /// True when every draw returns the same value (zero variance).  The MC
  /// engine uses this to pick its fast paths and to decide whether a run is
  /// degenerate (reproducing the deterministic analysis exactly).
  bool degenerate() const;

  /// Throws UsageError when the spec is malformed (negative stddev,
  /// inverted or negative uniform bounds, negative constant).
  void validate(const std::string& what) const;

  /// Spec-string form, parseable by parse_distribution.
  std::string to_string() const;
};

/// Parse a CLI distribution spec: "base", "const:V", "normal:MEAN,SD",
/// "relnormal:SIGMA", "uniform:LO,HI".  Throws UsageError on anything else.
Distribution parse_distribution(const std::string& spec);

/// Per-edge multiplicative cost noise, sharing the cluster emulator's
/// noise-model conventions (injector/cluster_emulator.cpp): each edge's
/// factor is 1 + bias + |N(0, sigma)| — system noise only ever slows an
/// edge down (folded normal) on top of a systematic relative bias.  With
/// sigma == 0 and bias == 0 the factor is exactly 1.0 and the MC engine
/// skips perturbation entirely.
struct EdgeNoise {
  double sigma = 0.0;  ///< relative stddev of per-edge slowdown
  double bias = 0.0;   ///< systematic relative offset, > -1

  bool degenerate() const { return sigma == 0.0 && bias == 0.0; }
  double factor(Rng& rng) const;
  /// Advance `rng` exactly as factor(rng) does without computing the
  /// factor: nothing when degenerate, else normal()'s uniforms.  For an
  /// edge that carries no cost, whose factor multiplies zero.
  void skip(Rng& rng) const {
    if (!degenerate()) rng.skip_normal();
  }
  /// True when every factor() draw is finite: 1 + bias + sigma·|z| stays
  /// below overflow for the largest |z| normal() returns (< 9).  Only
  /// then may a zero-cost edge's draw be skipped, since a non-finite
  /// factor anywhere is an error.
  bool factors_finite() const {
    return std::isfinite(1.0 + bias + sigma * 9.0);
  }
  /// Throws UsageError on sigma < 0 or bias <= -1 (a factor of zero or
  /// below would break edge-cost monotonicity).
  void validate() const;
};

/// Per-sample seeding: sample i of a run seeded with `seed` draws from
/// Rng(sample_seed(seed, i)).  SplitMix64 over the combined words, so
/// consecutive sample indices land in decorrelated xoshiro states and a
/// sample's stream depends only on (seed, i) — never on which worker thread
/// serves it or how many samples precede it.  This is the determinism
/// anchor of the whole subsystem.
std::uint64_t sample_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace llamp::stoch
