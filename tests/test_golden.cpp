#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "loggops/params.hpp"
#include "schedgen/schedgen.hpp"
#include "tools/cli_driver.hpp"
#include "util/strings.hpp"

// Golden-output wall for the llamp emitters: the exact bytes of
// `llamp analyze`, `sweep`, and `campaign` in every format are pinned
// against committed files, so a formatting regression fails CTest instead
// of silently shifting bench output or downstream CSV/JSON consumers.
//
// All invocations are pure LP analyses of seeded proxy traces — no wall
// clock, no RNG beyond the seeded trace generators — so the bytes are
// deterministic.  To regenerate after an *intentional* change:
//   tests/golden/regen.sh <path-to-llamp-binary>

namespace llamp {
namespace {

/// The pinned invocations.  Keep in sync with tests/golden/regen.sh.
struct GoldenCase {
  const char* file;
  std::vector<const char*> args;
};

const std::vector<GoldenCase>& cases() {
  static const std::vector<GoldenCase> kCases = {
      {"analyze_lulesh.table.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50"}},
      {"analyze_lulesh.csv.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50", "--format=csv"}},
      {"analyze_lulesh.json.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50", "--format=json"}},
      {"sweep_hpcg.table.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30"}},
      {"sweep_hpcg.csv.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30", "--format=csv"}},
      {"sweep_hpcg.json.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30", "--format=json"}},
      {"campaign_grid.table.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20"}},
      {"campaign_grid.csv.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20", "--format=csv"}},
      {"campaign_grid.json.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20", "--format=json"}},
  };
  return kCases;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LLAMP_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "llamp");
  std::ostringstream out, err;
  const int code =
      tools::run(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_EQ(code, 0) << err.str();
  return out.str();
}

TEST(GoldenOutput, EmittersMatchCommittedBytes) {
  for (const GoldenCase& gc : cases()) {
    const std::string expected = read_golden(gc.file);
    ASSERT_FALSE(expected.empty()) << gc.file;
    const std::string actual = run_cli(gc.args);
    EXPECT_EQ(actual, expected)
        << gc.file << " drifted; if the change is intentional, regenerate "
        << "with tests/golden/regen.sh";
  }
}

// Graph identity wall: schedgen's output for every registered app, pinned
// as an FNV-1a digest of its vertices, its edges in id order, its topo
// order and memory_bytes().  Any change to vertex or edge ids, to the
// topological order, or to the trimmed footprint shows up here.  Both
// network presets share S = 256 KiB, so the second threshold is 1 KiB,
// which sends most messages through the rendezvous protocol.

/// 64-bit FNV-1a over the little-endian bytes of each value fed in.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t graph_digest(const graph::Graph& g) {
  Fnv1a f;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const graph::Vertex& x = g.vertex(v);
    f.add(static_cast<std::uint64_t>(x.kind), 1);
    f.add(static_cast<std::uint32_t>(x.rank), 4);
    f.add(static_cast<std::uint32_t>(x.peer), 4);
    f.add(static_cast<std::uint32_t>(x.tag), 4);
    f.add(x.bytes, 8);
    f.add(std::bit_cast<std::uint64_t>(x.duration), 8);
  }
  for (const graph::Edge& e : g.edges()) {
    f.add(e.from, 4);
    f.add(e.to, 4);
    f.add(static_cast<std::uint64_t>(e.kind), 1);
    f.add(e.o_mult, 1);
    f.add(e.l_mult, 1);
    f.add(e.bytes, 8);
  }
  for (const graph::VertexId v : g.topo_order()) f.add(v, 4);
  f.add(g.memory_bytes(), 8);
  return f.h;
}

/// One line per (app, ranks, scale, S): the pinned graph digests.  Every
/// registered app at 8 and 64 ranks and two scales, then the many-rank
/// classes the cold-distinct benchmark draws (up to 1024 ranks) at one.
std::string graph_digest_lines() {
  std::string out;
  const std::uint64_t preset_s = loggops::NetworkConfig::cscs_testbed().S;
  EXPECT_EQ(preset_s, loggops::NetworkConfig::piz_daint().S);
  const auto add = [&](const std::string& app, int ranks, double scale) {
    for (const std::uint64_t S : {preset_s, std::uint64_t{1024}}) {
      schedgen::Options opts;
      opts.rendezvous_threshold = S;
      const auto g = schedgen::build_graph(
          apps::make_app_trace(app, ranks, scale), opts);
      out += strformat("%s %d %.2f %llu %zu %zu %016llx\n", app.c_str(),
                       ranks, scale, static_cast<unsigned long long>(S),
                       g.num_vertices(), g.num_edges(),
                       static_cast<unsigned long long>(graph_digest(g)));
    }
  };
  for (const std::string& app : apps::app_names()) {
    for (const int want : {8, 64}) {
      const int ranks = apps::supported_ranks(app, want);
      for (const double scale : {0.02, 0.05}) add(app, ranks, scale);
    }
  }
  const std::pair<const char*, int> many_ranks[] = {
      {"lulesh", 216}, {"lulesh", 1000}, {"icon", 256},  {"lammps", 128},
      {"npb-cg", 1024}, {"npb-ep", 1024}, {"npb-lu", 1024}};
  for (const auto& [app, want] : many_ranks) {
    const int ranks = apps::supported_ranks(app, want);
    EXPECT_EQ(ranks, want) << app;
    add(app, ranks, 0.02);
  }
  return out;
}

TEST(GoldenGraphs, SchedgenGraphsMatchCommittedDigests) {
  const std::string actual = graph_digest_lines();
  // tests/golden/regen.sh sets this to rewrite the golden file.
  if (const char* out = std::getenv("LLAMP_REGEN_GRAPHS_GOLDEN")) {
    std::ofstream(out, std::ios::binary) << actual;
    GTEST_SKIP() << "wrote " << out;
  }
  EXPECT_EQ(actual, read_golden("graphs.golden"))
      << "schedgen output drifted; if the change is intentional, "
      << "regenerate with tests/golden/regen.sh";
}

}  // namespace
}  // namespace llamp
