#pragma once

#include <cstdint>
#include <string>

#include "trace/trace.hpp"

namespace llamp::apps {

/// NAS Parallel Benchmarks proxies (Bailey et al.), reproducing the
/// communication skeletons the solver-runtime comparison of Table I /
/// Fig. 7 exercises:
///
///   BT/SP — ADI on a square process grid: per iteration, three pipelined
///           line-solve sweeps (dependent send->compute->send chains) plus
///           face halos.  SP has thinner compute per message.
///   CG    — sparse CG on a 2-D grid: transpose exchanges + two dot-product
///           Allreduces per iteration.
///   EP    — embarrassingly parallel: one long compute and a single final
///           reduction (the tiny-event-count row of Table I).
///   FT    — 3-D FFT: one large Alltoall plus compute per iteration.
///   LU    — SSOR wavefront: 2-D pipelined lower/upper sweeps of many small
///           dependent messages (the largest graphs in Table I).
///   MG    — multigrid V-cycles: halos with geometrically shrinking sizes
///           and a coarse-level Allreduce.
enum class NpbKernel : std::uint8_t { kBT, kCG, kEP, kFT, kLU, kMG, kSP };

NpbKernel npb_kernel_from_name(const std::string& name);

struct NpbConfig {
  NpbKernel kernel = NpbKernel::kCG;
  int nranks = 16;
  int iterations = 25;
  /// Problem-size knob: per-rank working-set scale (class A/B/C analogue).
  double size = 1.0;
  double jitter = 0.01;
  std::uint64_t seed = 8;
};

trace::Trace make_npb_trace(const NpbConfig& cfg);

}  // namespace llamp::apps
