#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One generated request: the op (also the /v1/<op> route) and the
/// canonical request JSON the program receives — the benchmark hands the
/// program bytes only, never pre-parsed structures.
struct Item {
  std::string op;
  std::string body;
  std::size_t distinct = 0;  ///< index of this body among the stream's distinct bodies
  std::string graph;         ///< "app/ranks/scale" (campaigns: their first scenario)
  int ranks = 0;             ///< resolved rank count of `graph`
  int samples = 0;           ///< mc samples; 0 for other ops
  bool mc_general = false;   ///< mc with edge noise (no shared-solver fast path)
};

/// A workload's whole request stream, generated from the seed alone.  Runs
/// consume a prefix (cold-distinct) or cycle through it (the warm mixes).
struct Stream {
  std::string workload;
  std::vector<Item> items;
  std::vector<std::size_t> first_of;  ///< distinct index -> first item index
  std::uint64_t digest = 0;           ///< FNV-1a over every body, in order

  // Workload properties (see README.md).
  double repeat_frac = 0.0;   ///< share of items repeating an earlier body
  std::size_t graph_keys = 0; ///< distinct (app, ranks, scale) scenarios
  double large_share = 0.0;   ///< share of items on >= 1000-rank graphs
  /// Items sharing one api::Engine session (cold-distinct); 0 = one session.
  std::size_t session_block = 0;
};

/// The three workloads: "serve-warm-mix", "cold-distinct", "mc-uq".
bool known_workload(const std::string& name);
Stream make_stream(const std::string& workload, std::uint64_t seed);

/// The (app, ranks) classes cold-distinct draws from.
struct AppClass {
  const char* app;
  int ranks;
  int per_round;  ///< draws per round (one round = one engine session)
};
const std::vector<AppClass>& cold_classes();
/// cold-distinct's scale grid: level k in [0, kScaleLevels) is scale
/// 0.02 + 0.0001 k, up to 0.08.
inline constexpr int kScaleLevels = 601;
inline double cold_scale(int level) { return (200.0 + level) / 10000.0; }

}  // namespace perfbench
