#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>

#include "apps/registry.hpp"
#include "core/placement.hpp"
#include "topo/spaces.hpp"
#include "schedgen/schedgen.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"

namespace llamp::core {
namespace {

graph::Graph ring_heavy_graph(int nranks) {
  // A ring of heavy traffic: rank r exchanges with (r+1) mod n repeatedly.
  trace::TraceBuilder tb(nranks);
  for (int iter = 0; iter < 6; ++iter) {
    for (int r = 0; r < nranks; ++r) {
      const int right = (r + 1) % nranks;
      tb.send(r, right, 32 * 1024);
      tb.recv(right, r, 32 * 1024);
      tb.compute(r, 20'000.0);
    }
  }
  return schedgen::build_graph(tb.finish());
}

loggops::Params params() {
  loggops::Params p;
  p.L = 1'400.0;
  p.o = 2'000.0;
  p.G = 0.013;
  return p;
}

TEST(CommunicationVolume, CountsBytesSymmetric) {
  trace::TraceBuilder tb(3);
  tb.send(0, 1, 100);
  tb.recv(1, 0, 100);
  tb.send(0, 2, 50);
  tb.recv(2, 0, 50);
  const auto g = schedgen::build_graph(tb.finish());
  const auto vol = communication_volume(g);
  EXPECT_EQ(vol[0 * 3 + 1], 100u);
  EXPECT_EQ(vol[1 * 3 + 0], 100u);
  EXPECT_EQ(vol[0 * 3 + 2], 50u);
  EXPECT_EQ(vol[1 * 3 + 2], 0u);
}

TEST(BlockPlacement, IdentityMapping) {
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  const auto res = block_placement(g, params(), ft, WireCost{});
  EXPECT_EQ(res.placement, topo::identity_placement(8));
  EXPECT_GT(res.predicted_runtime, 0.0);
}

TEST(VolumeGreedy, ProducesValidPermutation) {
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  const auto res = volume_greedy_placement(g, params(), ft, WireCost{});
  std::vector<int> sorted = res.placement;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 8; ++i) {
    EXPECT_GE(sorted[static_cast<std::size_t>(i)], 0);
  }
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(VolumeGreedy, OverflowingWireCostsStillPlaceEveryRank) {
  // A finite but huge wire latency makes every volume-weighted cost +inf,
  // so no free node compares below the initial best; each rank must then
  // take the lowest-numbered free node, never node -1.
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  for (const WireCost wire : {WireCost{1e308, 108.0}, WireCost{274.0, 1e308}}) {
    const auto res = volume_greedy_placement(g, params(), ft, wire);
    std::vector<int> sorted = res.placement;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, topo::identity_placement(8));
  }
}

TEST(OptimizePlacement, NeverWorseThanItsStartingPoint) {
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  const auto block = block_placement(g, params(), ft, WireCost{});
  const auto opt = optimize_placement(g, params(), ft, WireCost{});
  EXPECT_LE(opt.predicted_runtime, block.predicted_runtime + 1e-6);
  // The result is a valid permutation over the topology's nodes.
  std::vector<int> sorted = opt.placement;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(OptimizePlacement, ImprovesAnAdversarialInitialMapping) {
  // Scatter ring neighbors across pods, then let Algorithm 3 fix it.
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);  // 16 nodes, pods of 4
  std::vector<int> adversarial{0, 4, 8, 12, 1, 5, 9, 13};
  const double before =
      placement_runtime(g, params(), ft, WireCost{}, adversarial);
  const auto opt =
      optimize_placement(g, params(), ft, WireCost{}, adversarial);
  EXPECT_LE(opt.predicted_runtime, before + 1e-6);
  if (opt.swaps > 0) {
    EXPECT_LT(opt.predicted_runtime, before);
  }
}

TEST(OptimizePlacement, Validation) {
  const auto g = ring_heavy_graph(8);
  const topo::FatTree tiny(2);  // 2 nodes < 8 ranks
  EXPECT_THROW((void)optimize_placement(g, params(), tiny, WireCost{}),
               TopoError);
  const topo::FatTree ft(4);
  EXPECT_THROW(
      (void)optimize_placement(g, params(), ft, WireCost{}, {0, 1, 2}),
      Error);
}

/// Forwards to a real topology and counts path() calls.
class PathCountingTopology final : public topo::Topology {
 public:
  explicit PathCountingTopology(const topo::Topology& inner) : inner_(inner) {}
  int nnodes() const override { return inner_.nnodes(); }
  topo::Path path(int a, int b) const override {
    ++calls;
    return inner_.path(a, b);
  }
  std::string name() const override { return inner_.name(); }
  mutable std::size_t calls = 0;

 private:
  const topo::Topology& inner_;
};

TEST(OptimizePlacement, SwapScanReadsTheRoundsLatencyMatrix) {
  // Each round's pairwise matrices take n·(n-1) routes; the O(n³) swap scan
  // reads that round's latency matrix and routes nothing itself.
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  const PathCountingTopology counting(ft);
  std::vector<int> adversarial{0, 4, 8, 12, 1, 5, 9, 13};
  const auto opt =
      optimize_placement(g, params(), counting, WireCost{}, adversarial);
  EXPECT_GT(opt.swaps, 0);
  EXPECT_EQ(counting.calls, static_cast<std::size_t>(opt.iterations) * 8 * 7);
  const auto ref = optimize_placement(g, params(), ft, WireCost{}, adversarial);
  EXPECT_EQ(opt.placement, ref.placement);
  EXPECT_EQ(opt.swaps, ref.swaps);
}

TEST(OptimizePlacement, InitialRuntimeIsTheBlockPlacementsRuntime) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const topo::FatTree ft(4);
  const WireCost wire{310.5, 97.0};
  for (const auto& g :
       {ring_heavy_graph(8),
        schedgen::build_graph(apps::make_app_trace("icon", 8, 0.1))}) {
    const auto block = block_placement(g, params(), ft, wire);
    for (const int rounds : {1, 64}) {
      const auto opt = optimize_placement(g, params(), ft, wire, {}, rounds);
      EXPECT_EQ(bits(opt.initial_runtime), bits(block.predicted_runtime));
    }
  }
}

TEST(PlacementRuntime, SensitiveToMapping) {
  // Packing ring neighbors under shared switches must beat scattering them
  // across pods.
  const auto g = ring_heavy_graph(8);
  const topo::FatTree ft(4);
  const double packed =
      placement_runtime(g, params(), ft, WireCost{},
                        topo::identity_placement(8));
  const double scattered = placement_runtime(g, params(), ft, WireCost{},
                                             {0, 4, 8, 12, 2, 6, 10, 14});
  EXPECT_LT(packed, scattered);
}

TEST(AppPlacement, LlampNotWorseThanBlockOnIcon) {
  const auto g =
      schedgen::build_graph(apps::make_app_trace("icon", 8, 0.1));
  const topo::FatTree ft(4);
  const auto block = block_placement(g, params(), ft, WireCost{});
  const auto llamp = optimize_placement(g, params(), ft, WireCost{});
  EXPECT_LE(llamp.predicted_runtime, block.predicted_runtime + 1e-6);
}

}  // namespace
}  // namespace llamp::core
