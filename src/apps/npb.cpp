#include "apps/npb.hpp"

#include <cmath>

#include "apps/common.hpp"
#include "util/error.hpp"

namespace llamp::apps {

NpbKernel npb_kernel_from_name(const std::string& name) {
  if (name == "bt") return NpbKernel::kBT;
  if (name == "cg") return NpbKernel::kCG;
  if (name == "ep") return NpbKernel::kEP;
  if (name == "ft") return NpbKernel::kFT;
  if (name == "lu") return NpbKernel::kLU;
  if (name == "mg") return NpbKernel::kMG;
  if (name == "sp") return NpbKernel::kSP;
  throw Error("unknown NPB kernel '" + name + "'");
}

namespace {

/// Pipelined ADI sweeps of BT/SP: along each grid dimension, each line of
/// ranks forms a dependent chain (forward elimination then back
/// substitution).
void adi_iteration(trace::TraceBuilder& tb, const Grid<2>& grid, int nranks,
                   std::uint64_t line_bytes, TimeNs cell_ns, double jitter,
                   std::uint64_t seed, int it) {
  for (int dim = 0; dim < 2; ++dim) {
    const std::size_t d = static_cast<std::size_t>(dim);
    // Forward sweep.
    for (int r = 0; r < nranks; ++r) {
      if (grid.has_neighbor(r, d, -1)) {
        tb.recv(r, grid.neighbor(r, d, -1), line_bytes, 10 + dim);
      }
      tb.compute(r, jittered_compute(cell_ns, jitter, seed, r, it * 8 + dim));
      if (grid.has_neighbor(r, d, +1)) {
        tb.send(r, grid.neighbor(r, d, +1), line_bytes, 10 + dim);
      }
    }
    // Backward substitution.
    for (int r = 0; r < nranks; ++r) {
      if (grid.has_neighbor(r, d, +1)) {
        tb.recv(r, grid.neighbor(r, d, +1), line_bytes, 20 + dim);
      }
      tb.compute(r,
                 jittered_compute(cell_ns * 0.6, jitter, seed, r, it * 8 + 4 + dim));
      if (grid.has_neighbor(r, d, -1)) {
        tb.send(r, grid.neighbor(r, d, -1), line_bytes, 20 + dim);
      }
    }
  }
}

}  // namespace

trace::Trace make_npb_trace(const NpbConfig& cfg) {
  trace::TraceBuilder tb(cfg.nranks);
  const double size = cfg.size;
  const double per_rank_work = 2.0e6 * size;  // ns of compute per iteration

  switch (cfg.kernel) {
    case NpbKernel::kBT:
    case NpbKernel::kSP: {
      const Grid<2> grid = make_grid2(cfg.nranks);
      const auto line_bytes =
          static_cast<std::uint64_t>(4096.0 * std::sqrt(size));
      const double work_scale = cfg.kernel == NpbKernel::kBT ? 1.0 : 0.45;
      for (int it = 0; it < cfg.iterations; ++it) {
        adi_iteration(tb, grid, cfg.nranks, line_bytes,
                      per_rank_work * work_scale / 6.0, cfg.jitter, cfg.seed,
                      it);
      }
      break;
    }
    case NpbKernel::kCG: {
      const Grid<2> grid = make_grid2(cfg.nranks);
      const auto vec_bytes =
          static_cast<std::uint64_t>(16384.0 * std::sqrt(size));
      for (int it = 0; it < cfg.iterations; ++it) {
        for (int r = 0; r < cfg.nranks; ++r) {
          // Transpose exchange across the processor row.
          halo_exchange(tb, grid, r, {vec_bytes, vec_bytes}, /*tag=*/1);
          tb.compute(r, jittered_compute(per_rank_work * 0.4, cfg.jitter,
                                         cfg.seed, r, it));
        }
        tb.allreduce_all(8);
        for (int r = 0; r < cfg.nranks; ++r) {
          tb.compute(r, jittered_compute(per_rank_work * 0.1, cfg.jitter,
                                         cfg.seed, r, it + 1000));
        }
        tb.allreduce_all(8);
      }
      break;
    }
    case NpbKernel::kEP: {
      for (int r = 0; r < cfg.nranks; ++r) {
        tb.compute(r, jittered_compute(per_rank_work * cfg.iterations,
                                       cfg.jitter, cfg.seed, r, 0));
      }
      tb.allreduce_all(16 * 3);  // final statistics reduction
      break;
    }
    case NpbKernel::kFT: {
      const auto slab_bytes =
          static_cast<std::uint64_t>(65536.0 * size / cfg.nranks + 1024.0);
      for (int it = 0; it < cfg.iterations; ++it) {
        for (int r = 0; r < cfg.nranks; ++r) {
          tb.compute(r, jittered_compute(per_rank_work, cfg.jitter, cfg.seed,
                                         r, it));
        }
        tb.alltoall_all(slab_bytes);  // the 3-D FFT transpose
      }
      tb.allreduce_all(16);  // checksum
      break;
    }
    case NpbKernel::kLU: {
      const Grid<2> grid = make_grid2(cfg.nranks);
      const auto pencil_bytes =
          static_cast<std::uint64_t>(1024.0 * std::sqrt(size));
      const double block_ns = per_rank_work / 10.0;
      for (int it = 0; it < cfg.iterations; ++it) {
        // Lower-triangular wavefront from the north-west corner.
        for (int r = 0; r < cfg.nranks; ++r) {
          if (grid.has_neighbor(r, 0, -1)) {
            tb.recv(r, grid.neighbor(r, 0, -1), pencil_bytes, 1);
          }
          if (grid.has_neighbor(r, 1, -1)) {
            tb.recv(r, grid.neighbor(r, 1, -1), pencil_bytes, 2);
          }
          tb.compute(r, jittered_compute(block_ns, cfg.jitter, cfg.seed, r,
                                         it * 4));
          if (grid.has_neighbor(r, 0, +1)) {
            tb.send(r, grid.neighbor(r, 0, +1), pencil_bytes, 1);
          }
          if (grid.has_neighbor(r, 1, +1)) {
            tb.send(r, grid.neighbor(r, 1, +1), pencil_bytes, 2);
          }
        }
        // Upper-triangular wavefront from the south-east corner.
        for (int r = cfg.nranks - 1; r >= 0; --r) {
          if (grid.has_neighbor(r, 0, +1)) {
            tb.recv(r, grid.neighbor(r, 0, +1), pencil_bytes, 3);
          }
          if (grid.has_neighbor(r, 1, +1)) {
            tb.recv(r, grid.neighbor(r, 1, +1), pencil_bytes, 4);
          }
          tb.compute(r, jittered_compute(block_ns, cfg.jitter, cfg.seed, r,
                                         it * 4 + 1));
          if (grid.has_neighbor(r, 0, -1)) {
            tb.send(r, grid.neighbor(r, 0, -1), pencil_bytes, 3);
          }
          if (grid.has_neighbor(r, 1, -1)) {
            tb.send(r, grid.neighbor(r, 1, -1), pencil_bytes, 4);
          }
        }
      }
      break;
    }
    case NpbKernel::kMG: {
      const Grid<3> grid = make_grid3(cfg.nranks);
      const int levels = 4;
      for (int it = 0; it < cfg.iterations; ++it) {
        for (int level = 0; level < levels; ++level) {
          const auto face = static_cast<std::uint64_t>(
              std::max(8.0, 8192.0 * size / std::pow(4.0, level)));
          const TimeNs work =
              per_rank_work / (2.0 * std::pow(8.0, level));
          for (int r = 0; r < cfg.nranks; ++r) {
            halo_exchange(tb, grid, r, {face, face, face},
                          /*tag=*/1 + level);
            tb.compute(r, jittered_compute(work, cfg.jitter, cfg.seed, r,
                                           it * 16 + level));
          }
        }
        tb.allreduce_all(8);  // coarse-level residual norm
      }
      break;
    }
  }
  return tb.finish();
}

}  // namespace llamp::apps
