#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "api/request.hpp"
#include "apps/registry.hpp"
#include "common.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using llamp::Rng;
namespace api = llamp::api;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[pick(rng, i)]);
}

api::AppSpec app_spec(const char* app, int ranks, double scale) {
  api::AppSpec a;
  a.app = app;
  a.ranks = ranks;
  a.scale = scale;
  return a;
}

std::string graph_name(const api::AppSpec& a) {
  return llamp::strformat("%s/%d/%g", a.app.c_str(),
                          llamp::apps::supported_ranks(a.app, a.ranks), a.scale);
}

void push(Stream& s, const api::Request& req, const api::AppSpec& first_app,
          int samples, bool mc_general = false) {
  Item it;
  it.op = api::op_name(req);
  it.body = api::to_json(req);
  it.graph = graph_name(first_app);
  it.ranks = llamp::apps::supported_ranks(first_app.app, first_app.ranks);
  it.samples = samples;
  it.mc_general = mc_general;
  s.items.push_back(std::move(it));
}

// -- serve-warm-mix ---------------------------------------------------------
// A daemon's steady state: a fixed working set of four scenarios, every op
// type in a fixed proportion, and request parameters drawn from small sets
// so nearly every request repeats an earlier one (both caches only hit).

struct Scenario {
  const char* app;
  int ranks;
};
constexpr std::array<Scenario, 4> kWorkingSet = {
    {{"lulesh", 8}, {"hpcg", 64}, {"milc", 64}, {"icon", 64}}};
constexpr double kWarmScale = 0.05;
constexpr std::array<double, 4> kDlMaxUs = {10.0, 20.0, 25.0, 50.0};

Stream serve_warm_mix(std::uint64_t seed) {
  Stream s;
  s.workload = "serve-warm-mix";
  Rng rng(seed);
  // One block of 20 ops fixes the mix exactly: analyze 40%, sweep 25%,
  // topo/place/mc 10% each, campaign 5%.
  const std::vector<std::string> block = {
      "analyze", "analyze", "analyze", "analyze", "analyze", "analyze",
      "analyze", "analyze", "sweep",   "sweep",   "sweep",   "sweep",
      "sweep",   "topo",    "topo",    "place",   "place",   "mc",
      "mc",      "campaign"};
  std::map<std::string, std::size_t> turn;  // per-op round-robin over the set
  for (const std::string& op : block) turn[op] = pick(rng, kWorkingSet.size());
  const auto next_app = [&](const std::string& op) {
    const Scenario& sc = kWorkingSet[turn[op]++ % kWorkingSet.size()];
    return app_spec(sc.app, sc.ranks, kWarmScale);
  };
  constexpr int kBlocks = 200;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<std::string> ops = block;
    shuffle(rng, ops);
    for (const std::string& op : ops) {
      if (op == "analyze" || op == "sweep") {
        api::GridSpec grid;
        grid.dl_max_us = kDlMaxUs[pick(rng, kDlMaxUs.size())];
        grid.points = op == "analyze" ? (pick(rng, 2) == 0 ? 3 : 5)
                                      : (pick(rng, 2) == 0 ? 5 : 11);
        const api::AppSpec app = next_app(op);
        if (op == "analyze") {
          push(s, api::AnalyzeRequest{app, grid, 1}, app, 0);
        } else {
          push(s, api::SweepRequest{app, grid, 1}, app, 0);
        }
      } else if (op == "topo") {
        api::TopoRequest r;
        r.app = next_app(op);
        push(s, r, r.app, 0);
      } else if (op == "place") {
        api::PlaceRequest r;
        r.app = next_app(op);
        push(s, r, r.app, 0);
      } else if (op == "mc") {
        api::McRequest r;
        r.app = next_app(op);
        r.grid = {20.0, 3};
        r.samples = 64;
        r.seed = 1 + pick(rng, 4);
        r.sigma_L = 0.05;
        r.threads = 1;
        push(s, r, r.app, r.samples);
      } else {
        // Small campaigns over working-set scenarios only.
        api::CampaignRequest r;
        r.scales = {kWarmScale};
        r.threads = 1;
        switch (pick(rng, 3)) {
          case 0:
            r.apps = {"hpcg", "icon"};
            r.ranks = {64};
            r.grid = {20.0, 3};
            break;
          case 1:
            r.apps = {"lulesh"};
            r.ranks = {8};
            r.grid = {50.0, 5};
            break;
          default:
            r.apps = {"milc", "hpcg"};
            r.ranks = {64};
            r.grid = {25.0, 3};
            break;
        }
        push(s, r, app_spec(r.apps[0].c_str(), r.ranks[0], kWarmScale), 0);
      }
    }
  }
  return s;
}

// -- cold-distinct ------------------------------------------------------------
// Every request names a scenario never seen before, so each one pays trace
// generation, schedgen, lowering and dense solves.  A round draws each class
// AppClass::per_round times in a seeded order; a class's scales follow a
// golden-ratio sequence, so any prefix of the stream spreads them evenly and
// runs of different seeds see the same work mix.

Stream cold_distinct(std::uint64_t seed) {
  Stream s;
  s.workload = "cold-distinct";
  Rng rng(seed);
  const std::vector<AppClass>& classes = cold_classes();
  const std::size_t nc = classes.size();
  std::vector<std::size_t> order;  // one entry per draw of a round
  for (std::size_t c = 0; c < nc; ++c) {
    order.insert(order.end(), static_cast<std::size_t>(classes[c].per_round), c);
  }
  // One engine session per round.
  s.session_block = order.size();
  // The scale schedule is the same for every seed, so each session (round)
  // holds the same graphs whatever the seed and peak memory is comparable
  // across runs; the seed orders every round and offsets the grid choices.
  std::vector<double> phase(nc);
  std::vector<std::size_t> turn(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    phase[c] = std::fmod(0.7548776662466927 * static_cast<double>(c + 1), 1.0);
    turn[c] = pick(rng, 20);
  }
  std::vector<std::set<int>> used(nc);
  std::vector<std::size_t> draws(nc, 0);
  constexpr double kGolden = 0.6180339887498949;
  constexpr int kRounds = 160;
  for (int r = 0; r < kRounds; ++r) {
    shuffle(rng, order);
    for (const std::size_t c : order) {
      const std::size_t n = draws[c]++;
      const double u = std::fmod(phase[c] + kGolden * static_cast<double>(n), 1.0);
      int level = std::min(static_cast<int>(u * kScaleLevels), kScaleLevels - 1);
      while (used[c].count(level) != 0) level = (level + 1) % kScaleLevels;
      used[c].insert(level);
      const api::AppSpec app = app_spec(classes[c].app, classes[c].ranks, cold_scale(level));
      // A class cycles through its grid choices from a seeded offset: one
      // draw in five is a sweep (~20% sweeps), and both the ΔL ceiling and
      // the point count alternate.
      const std::size_t k = n + turn[c];
      const bool sweep = k % 5 == 0;
      api::GridSpec grid;
      grid.dl_max_us = k % 2 == 0 ? 20.0 : 50.0;
      grid.points = sweep ? ((k / 5) % 2 == 0 ? 5 : 11) : ((k / 2) % 2 == 0 ? 3 : 5);
      if (sweep) {
        push(s, api::SweepRequest{app, grid, 1}, app, 0);
      } else {
        push(s, api::AnalyzeRequest{app, grid, 1}, app, 0);
      }
    }
  }
  return s;
}

// -- mc-uq --------------------------------------------------------------------
// Monte Carlo UQ on two warmed graphs, alternating the L-only batched fast
// path (256 samples) and the edge-noise general path (32 samples).

Stream mc_uq(std::uint64_t seed) {
  Stream s;
  s.workload = "mc-uq";
  Rng rng(seed);
  constexpr std::array<Scenario, 2> kGraphs = {{{"hpcg", 64}, {"milc", 64}}};
  constexpr int kItems = 512;
  for (int i = 0; i < kItems; ++i) {
    const bool general = i % 2 == 1;
    const Scenario& sc = kGraphs[static_cast<std::size_t>(i / 2) % kGraphs.size()];
    api::McRequest r;
    r.app = app_spec(sc.app, sc.ranks, kWarmScale);
    r.grid = {20.0, 3};
    r.samples = general ? 32 : 256;
    r.seed = 1000 + pick(rng, 8);
    r.sigma_L = 0.05;
    r.edge_sigma = general ? 0.02 : 0.0;
    r.threads = 2;
    push(s, r, r.app, r.samples, general);
  }
  return s;
}

void finish(Stream& s) {
  std::map<std::string, std::size_t> seen;
  std::set<std::string> graphs;
  std::size_t large = 0;
  s.digest = fnv1a("");
  for (std::size_t i = 0; i < s.items.size(); ++i) {
    Item& it = s.items[i];
    s.digest = fnv1a(it.body, s.digest);
    s.digest = fnv1a("\n", s.digest);
    const auto [pos, fresh] = seen.emplace(it.body, s.first_of.size());
    if (fresh) s.first_of.push_back(i);
    it.distinct = pos->second;
    graphs.insert(it.graph);
    if (it.ranks >= 1000) ++large;
  }
  const auto n = static_cast<double>(s.items.size());
  s.repeat_frac = static_cast<double>(s.items.size() - s.first_of.size()) / n;
  s.graph_keys = graphs.size();
  s.large_share = static_cast<double>(large) / n;
}

}  // namespace

const std::vector<AppClass>& cold_classes() {
  // Every class x scale level x grid of this list analyzes without error
  // (checked with `llamp_perfbench --validate`); classes whose tolerance
  // search fails to converge at some scale are left out.
  // The two large graphs (lulesh-1000: 142k vertices at scale 0.05;
  // npb-cg-1024) come once per round and every other class twice, so they
  // are ~6% of requests: p90 then falls among mid-size graphs, which vary
  // far less between runs on a shared host than the memory-bound giants.
  static const std::vector<AppClass> classes = {
      {"lulesh", 8, 2},     {"lulesh", 64, 2},   {"lulesh", 216, 2},
      {"lulesh", 1000, 1},  {"hpcg", 64, 2},     {"milc", 64, 2},
      {"icon", 64, 2},      {"icon", 256, 2},    {"lammps", 64, 2},
      {"lammps", 128, 2},   {"openmx", 64, 2},   {"cloverleaf", 64, 2},
      {"npb-cg", 64, 2},    {"npb-cg", 1024, 1}, {"npb-ft", 64, 2},
      {"npb-mg", 64, 2},    {"namd", 64, 2},     {"npb-ep", 1024, 2},
      {"npb-lu", 1024, 2},
  };
  return classes;
}

bool known_workload(const std::string& name) {
  return name == "serve-warm-mix" || name == "cold-distinct" || name == "mc-uq";
}

Stream make_stream(const std::string& workload, std::uint64_t seed) {
  Stream s;
  if (workload == "serve-warm-mix") {
    s = serve_warm_mix(seed);
  } else if (workload == "cold-distinct") {
    s = cold_distinct(seed);
  } else if (workload == "mc-uq") {
    s = mc_uq(seed);
  } else {
    throw llamp::UsageError("unknown workload '" + workload + "'");
  }
  finish(s);
  return s;
}

}  // namespace perfbench
