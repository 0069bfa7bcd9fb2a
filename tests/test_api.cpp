#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "core/report.hpp"
#include "tools/cli_driver.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace llamp {
namespace {

// ---------------------------------------------------------------------------
// JSON round trip: serialize → parse → serialize must be byte-identical for
// every request type, and the parsed request must execute identically.
// ---------------------------------------------------------------------------

void expect_round_trip(const api::Request& req) {
  const std::string json = api::to_json(req);
  const api::Request parsed = api::parse_request(json);
  EXPECT_EQ(api::to_json(parsed), json) << json;
  EXPECT_EQ(req.index(), parsed.index());
  EXPECT_STREQ(api::op_name(req), api::op_name(parsed));
}

api::AppSpec fancy_app() {
  api::AppSpec app;
  app.app = "hpcg";
  app.ranks = 27;
  app.scale = 0.05;
  app.net = "daint";
  app.L = 2500.0;
  app.o = 4321.5;
  app.G = 0.021;
  app.S = 1024;
  return app;
}

TEST(ApiRequestJson, AnalyzeRoundTrip) {
  api::AnalyzeRequest req;
  expect_round_trip(req);  // all defaults
  req.app = fancy_app();
  req.grid = {42.5, 7};
  req.threads = 3;
  expect_round_trip(req);
}

TEST(ApiRequestJson, SweepRoundTrip) {
  api::SweepRequest req;
  expect_round_trip(req);
  req.app = fancy_app();
  req.grid = {30.0, 4};
  expect_round_trip(req);
}

TEST(ApiRequestJson, McRoundTrip) {
  api::McRequest req;
  expect_round_trip(req);
  req.app = fancy_app();
  req.grid = {20.0, 3};
  req.samples = 64;
  req.seed = 7;
  req.dist_L = "uniform:2500,3500";
  req.sigma_o = 0.02;
  req.edge_sigma = 0.003;
  req.edge_bias = 0.001;
  req.bands = {1.0, 2.5};
  req.threads = 2;
  expect_round_trip(req);
}

TEST(ApiRequestJson, CampaignRoundTrip) {
  api::CampaignRequest req;
  expect_round_trip(req);
  req.apps = {"lulesh", "hpcg"};
  req.ranks = {8, 27};
  req.scales = {0.02, 0.05};
  req.topologies = {"none", "fat-tree"};
  req.nets = {"cscs", "daint"};
  req.L_list = {"5000", "1e4"};
  req.o_list = {"4000"};
  req.S = 2048;
  req.grid = {20.0, 3};
  req.topo.ft_radix = 16;
  req.mc_samples = 8;
  req.seed = 3;
  req.mc_sigma_L = 0.05;
  req.probe = "emulator";
  req.probe_runs = 2;
  req.noise_sigma = 0.004;
  req.threads = 4;
  expect_round_trip(req);
}

TEST(ApiRequestJson, TopoRoundTrip) {
  api::TopoRequest req;
  expect_round_trip(req);
  req.app = fancy_app();
  req.l_wire = 300.0;
  req.d_switch = 100.0;
  req.ft_radix = 16;
  req.df_groups = 4;
  expect_round_trip(req);
}

TEST(ApiRequestJson, PlaceRoundTrip) {
  api::PlaceRequest req;
  expect_round_trip(req);
  req.app = fancy_app();
  req.max_rounds = 16;
  expect_round_trip(req);
}

TEST(ApiRequestJson, ParseAppliesDefaults) {
  const api::Request req = api::parse_request("{\"op\": \"analyze\"}");
  const auto& r = std::get<api::AnalyzeRequest>(req);
  EXPECT_EQ(r.app.app, "lulesh");
  EXPECT_EQ(r.app.ranks, 8);
  EXPECT_DOUBLE_EQ(r.app.scale, 0.25);
  EXPECT_FALSE(r.app.L.has_value());
  EXPECT_DOUBLE_EQ(r.grid.dl_max_us, 100.0);
  EXPECT_EQ(r.grid.points, 11);
  EXPECT_EQ(r.threads, 0);
}

// The JSON surface takes the CLI's typo stance: unknown fields, wrong
// types, malformed documents, and orphaned probe knobs are usage errors.
TEST(ApiRequestJson, RejectsMalformedRequests) {
  const std::vector<std::string> bad = {
      "",
      "not json",
      "[]",
      "42",
      "{\"op\": \"frobnicate\"}",
      "{}",
      "{\"op\": \"analyze\", \"pionts\": 3}",
      "{\"op\": \"analyze\", \"app\": {\"nmae\": \"lulesh\"}}",
      "{\"op\": \"analyze\", \"grid\": {\"points\": \"three\"}}",
      "{\"op\": \"analyze\", \"grid\": {\"points\": 2.5}}",
      "{\"op\": \"mc\", \"seed\": -1}",
      "{\"op\": \"mc\", \"dist_L\": \"\"}",
      "{\"op\": \"analyze\", \"app\": {\"ranks\": 1e300}}",
      "{\"op\": \"campaign\", \"probe_runs\": 2}",
      "{\"op\": \"campaign\", \"probe\": \"\"}",
      "{\"op\": \"analyze\"} trailing",
      "{\"op\": \"analyze\", \"op\": \"sweep\"}",
  };
  for (const std::string& json : bad) {
    EXPECT_THROW((void)api::parse_request(json), UsageError) << json;
  }
}

TEST(ApiRequestJson, SeedsAboveDoublePrecisionSurviveExactly) {
  // Seeds are u64; going through a double would silently round anything
  // above 2^53 and break the reproducibility contract.
  const auto parsed = api::parse_request(
      "{\"op\": \"mc\", \"seed\": 9007199254740993}");
  EXPECT_EQ(std::get<api::McRequest>(parsed).seed, 9007199254740993ull);

  const auto max = api::parse_request(
      "{\"op\": \"mc\", \"seed\": 18446744073709551615}");
  EXPECT_EQ(std::get<api::McRequest>(parsed).seed, 9007199254740993ull);
  EXPECT_EQ(std::get<api::McRequest>(max).seed, 18446744073709551615ull);

  api::McRequest req;
  req.seed = 18446744073709551615ull;
  expect_round_trip(req);

  // Scientific spellings stay usable while exact; overflow is an error.
  const auto sci = api::parse_request("{\"op\": \"mc\", \"seed\": 5e3}");
  EXPECT_EQ(std::get<api::McRequest>(sci).seed, 5000ull);
  EXPECT_THROW(
      (void)api::parse_request(
          "{\"op\": \"mc\", \"seed\": 18446744073709551616}"),
      UsageError);
  EXPECT_THROW((void)api::parse_request("{\"op\": \"mc\", \"seed\": 1e300}"),
               UsageError);
}

TEST(ApiRequestJson, NumberSpellingSurvivesTheOverrideAxes) {
  // L_list entries name config variants, so "1e4" must not be rewritten
  // as "10000" by a (de)serialization pass.
  const api::Request req = api::parse_request(
      "{\"op\": \"campaign\", \"L_list\": [\"1e4\", 5000]}");
  const auto& r = std::get<api::CampaignRequest>(req);
  ASSERT_EQ(r.L_list.size(), 2u);
  EXPECT_EQ(r.L_list[0], "1e4");
  EXPECT_EQ(r.L_list[1], "5000");
}

// ---------------------------------------------------------------------------
// Canonical request bytes: to_json of a default and a fully populated
// request per op, pinned against tests/golden/requests.jsonl.golden.  The
// round-trip tests above only compare the serializer with itself; this
// catches a reordered, renamed, or newly conditional field.
// ---------------------------------------------------------------------------

/// One default and one fully populated request per op, in Request variant
/// order: every field of the populated request differs from its default and
/// every optional field is engaged, so each canonical field is pinned.
std::vector<api::Request> golden_requests() {
  api::AppSpec app;
  app.app = "hpcg";
  app.ranks = 27;
  app.scale = 0.05;
  app.net = "daint";
  app.L = 2500.0;
  app.o = 4321.5;
  app.G = 0.021;
  app.S = 1024;
  const api::GridSpec grid{42.5, 7};

  api::McRequest mc;
  mc.app = app;
  mc.grid = grid;
  mc.samples = 64;
  mc.seed = 7;
  mc.dist_L = "uniform:2500,3500";
  mc.dist_o = "relnormal:0.1";
  mc.dist_G = "const:0.02";
  mc.sigma_L = 0.01;
  mc.sigma_o = 0.02;
  mc.sigma_G = 0.03;
  mc.edge_sigma = 0.003;
  mc.edge_bias = 0.001;
  mc.bands = {1.0, 2.5};
  mc.threads = 2;

  api::CampaignRequest camp;
  camp.apps = {"lulesh", "hpcg"};
  camp.ranks = {8, 27};
  camp.scales = {0.02, 0.05};
  camp.topologies = {"none", "fat-tree"};
  camp.nets = {"cscs", "daint"};
  camp.L_list = {"5000", "1e4"};
  camp.o_list = {"4000"};
  camp.G_list = {"0.02", "0.03"};
  camp.S = 2048;
  camp.grid = grid;
  camp.topo = {300.0, 100.0, 16, 4, 2, 4};
  camp.mc_samples = 8;
  camp.seed = 3;
  camp.mc_sigma_L = 0.05;
  camp.mc_sigma_o = 0.04;
  camp.mc_sigma_G = 0.03;
  camp.mc_edge_sigma = 0.002;
  camp.mc_edge_bias = 0.001;
  camp.probe = "emulator";
  camp.probe_runs = 2;
  camp.noise_sigma = 0.004;
  camp.threads = 4;

  return {api::AnalyzeRequest{},
          api::AnalyzeRequest{app, grid, 3},
          api::SweepRequest{},
          api::SweepRequest{app, grid, 5},
          api::CampaignRequest{},
          camp,
          api::McRequest{},
          mc,
          api::TopoRequest{},
          api::TopoRequest{app, 300.0, 100.0, 16, 4, 2, 4},
          api::PlaceRequest{},
          api::PlaceRequest{app, 300.0, 100.0, 16, 16}};
}

TEST(ApiRequestJson, CanonicalBytesMatchGolden) {
  std::ifstream in(std::string(LLAMP_GOLDEN_DIR) + "/requests.jsonl.golden",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing requests.jsonl.golden";
  std::ostringstream golden;
  golden << in.rdbuf();
  std::string actual;
  for (const api::Request& req : golden_requests()) {
    actual += api::to_json(req) + '\n';
    // Parsing the pinned bytes back gives the same request.
    EXPECT_EQ(api::to_json(api::parse_request(api::to_json(req))),
              api::to_json(req));
  }
  EXPECT_EQ(actual, golden.str())
      << "request bytes drifted; if intentional, regenerate the golden from "
         "the to_json lines of golden_requests()";
}

// ---------------------------------------------------------------------------
// CLI ↔ Engine byte equivalence: the CLI is a thin adapter, so building
// the request by hand and rendering the engine's result must reproduce the
// subcommand's bytes exactly, for every subcommand and format.
// ---------------------------------------------------------------------------

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "llamp");
  std::ostringstream out, err;
  CliResult r;
  r.code = tools::run(static_cast<int>(args.size()), args.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

api::AppSpec small_app(const char* name) {
  api::AppSpec app;
  app.app = name;
  app.ranks = 8;
  app.scale = 0.02;
  return app;
}

template <typename Result>
std::string rendered(const Result& res, core::OutputFormat format) {
  std::ostringstream os;
  res.render(format, os);
  return os.str();
}

TEST(ApiCliEquivalence, Analyze) {
  api::AnalyzeRequest req;
  req.app = small_app("lulesh");
  req.grid = {50.0, 3};
  api::Engine engine;
  const auto res = engine.analyze(req);
  const std::vector<const char*> args = {"analyze", "--app=lulesh",
                                         "--ranks=8", "--scale=0.02",
                                         "--points=3", "--dl-max-us=50"};
  for (const auto& [flag, format] :
       std::vector<std::pair<const char*, core::OutputFormat>>{
           {"--format=table", core::OutputFormat::kTable},
           {"--format=csv", core::OutputFormat::kCsv},
           {"--format=json", core::OutputFormat::kJson}}) {
    auto cli_args = args;
    cli_args.push_back(flag);
    const auto cli = run_cli(cli_args);
    ASSERT_EQ(cli.code, 0) << cli.err;
    EXPECT_EQ(cli.out, rendered(res, format)) << flag;
  }
}

TEST(ApiCliEquivalence, Sweep) {
  api::SweepRequest req;
  req.app = small_app("hpcg");
  req.grid = {30.0, 4};
  api::Engine engine;
  const auto res = engine.sweep(req);
  const auto cli = run_cli({"sweep", "--app=hpcg", "--ranks=8",
                            "--scale=0.02", "--points=4", "--dl-max-us=30"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

TEST(ApiCliEquivalence, Campaign) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.topologies = {"none", "fat-tree"};
  req.grid = {20.0, 3};
  api::Engine engine;
  const auto res = engine.campaign(req);
  for (const char* fmt : {"--format=table", "--format=csv", "--format=json"}) {
    const auto cli =
        run_cli({"campaign", "--apps=lulesh,hpcg", "--scales=0.02",
                 "--topos=none,fat-tree", "--points=3", "--dl-max-us=20",
                 fmt});
    ASSERT_EQ(cli.code, 0) << cli.err;
    const auto format = core::parse_output_format(fmt + 9);
    EXPECT_EQ(cli.out, rendered(res, format)) << fmt;
  }
}

TEST(ApiCliEquivalence, Mc) {
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 8;
  req.seed = 7;
  req.sigma_L = 0.05;
  req.edge_sigma = 0.003;
  api::Engine engine;
  const auto res = engine.mc(req);
  const auto cli = run_cli({"mc", "--app=lulesh", "--ranks=8",
                            "--scale=0.02", "--points=3", "--dl-max-us=20",
                            "--samples=8", "--seed=7", "--sigma-L=0.05",
                            "--edge-sigma=0.003", "--format=csv"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kCsv));
}

TEST(ApiCliEquivalence, Topo) {
  api::TopoRequest req;
  req.app = small_app("icon");
  req.app.scale = 0.05;
  api::Engine engine;
  const auto res = engine.topo(req);
  const auto cli =
      run_cli({"topo", "--app=icon", "--ranks=8", "--scale=0.05"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

TEST(ApiCliEquivalence, Place) {
  api::PlaceRequest req;
  req.app = small_app("icon");
  req.app.scale = 0.05;
  api::Engine engine;
  const auto res = engine.place(req);
  const auto cli =
      run_cli({"place", "--app=icon", "--ranks=8", "--scale=0.05"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

// ---------------------------------------------------------------------------
// CLI ↔ JSON parity wall: both surfaces decode through the one request
// schema, so every field must land identically whichever surface set it,
// and the CLI must accept exactly the schema's flags plus its own.
// ---------------------------------------------------------------------------

/// `"a": {"b": V}` for the dotted path "a.b".
std::string json_member(const std::string& path, const std::string& value) {
  const auto dot = path.find('.');
  if (dot == std::string::npos) return "\"" + path + "\": " + value;
  return "\"" + path.substr(0, dot) + "\": {" +
         json_member(path.substr(dot + 1), value) + "}";
}

/// `--flag=3` (plus `--gate=3` for a gated field) must build the same
/// request as the JSON key set to 3 in whichever spelling its type takes:
/// number, string, number list, or string list.  3 is no field's default.
TEST(ApiSchemaParity, FlagAndJsonKeySetTheSameField) {
  for (std::size_t op = 0; op < api::kOpNames.size(); ++op) {
    const std::string tag =
        "{\"op\": \"" + std::string(api::kOpNames[op]) + "\"";
    const std::string blank = api::to_json(api::parse_request(tag + "}"));
    const std::vector<api::FieldInfo> fields = api::request_fields(op);
    for (const api::FieldInfo& f : fields) {
      std::vector<std::string> flags = {"--" + std::string(f.flag) + "=3"};
      std::string gate_path;
      for (const api::FieldInfo& g : fields) {
        if (!f.gate_flag.empty() && g.flag == f.gate_flag) {
          flags.push_back("--" + std::string(g.flag) + "=3");
          gate_path = g.json_path;
        }
      }
      std::vector<const char*> argv = {"llamp"};
      for (const std::string& a : flags) argv.push_back(a.c_str());
      const Cli cli(static_cast<int>(argv.size()), argv.data());
      const std::string via_flag =
          api::to_json(api::request_from_flags(op, cli));
      std::string via_json;
      for (const char* spelling : {"3", "\"3\"", "[3]", "[\"3\"]"}) {
        std::string json = tag + ", " + json_member(f.json_path, spelling);
        if (!gate_path.empty()) json += ", " + json_member(gate_path, "\"3\"");
        try {
          via_json = api::to_json(api::parse_request(json + "}"));
          break;
        } catch (const UsageError&) {
        }
      }
      EXPECT_EQ(via_flag, via_json) << flags[0];
      EXPECT_NE(via_flag, blank) << flags[0] << " left the request at default";
    }
  }
}

TEST(ApiSchemaParity, U64FieldsTakeTheFullRangeOnBothSurfaces) {
  // Every u64 field (--seed, --S) reads the same exact decimal rule from a
  // flag and from JSON: values past 2^63 build equal requests, and values
  // outside [0, 2^64 - 1] are usage errors on both surfaces.
  const auto from_flag = [](std::size_t op, const std::string& flag,
                            const std::string& value) {
    const std::string arg = "--" + flag + "=" + value;
    const char* argv[] = {"llamp", arg.c_str()};
    return api::to_json(api::request_from_flags(op, Cli(2, argv)));
  };
  const auto from_json = [](std::size_t op, const std::string& path,
                            const std::string& value) {
    return api::to_json(api::parse_request(
        "{\"op\": \"" + std::string(api::kOpNames[op]) + "\", " +
        json_member(path, value) + "}"));
  };
  int checked = 0;
  for (std::size_t op = 0; op < api::kOpNames.size(); ++op) {
    for (const api::FieldInfo& f : api::request_fields(op)) {
      if (f.flag != "seed" && f.flag != "S") continue;
      const std::string flag(f.flag);
      SCOPED_TRACE(std::string(api::kOpNames[op]) + " --" + flag);
      for (const char* v : {"9223372036854775808", "18446744073709551615"}) {
        const std::string via_flag = from_flag(op, flag, v);
        EXPECT_EQ(via_flag, from_json(op, f.json_path, v));
        EXPECT_NE(via_flag.find(v), std::string::npos) << via_flag;
      }
      for (const char* v : {"18446744073709551616", "-1"}) {
        EXPECT_THROW(from_flag(op, flag, v), UsageError) << v;
        EXPECT_THROW(from_json(op, f.json_path, v), UsageError) << v;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 4);  // --S on every app op, --seed on mc and campaign
}

TEST(ApiSchemaParity, SubcommandFlagSetsAreTableFlagsPlusSurface) {
  const std::set<std::string_view> surface = {
      "format", "csv",     "threads", "trace-out",
      "file",   "metrics", "port",    "max-inflight"};
  const std::vector<std::string_view> app = {"app", "ranks", "scale", "net",
                                             "L",   "o",     "G",     "S"};
  const std::vector<std::string_view> grid = {"dl-max-us", "points",
                                              "threads", "format"};
  const std::vector<std::string_view> topo = {
      "l-wire", "d-switch", "ft-radix", "df-groups", "df-routers", "df-hosts"};
  const auto cat = [](std::initializer_list<std::vector<std::string_view>> parts) {
    std::set<std::string_view> out;
    for (const auto& p : parts) out.insert(p.begin(), p.end());
    out.insert("trace-out");
    return out;
  };
  // The accepted sets before the schema existed, flag for flag.
  const std::map<std::string, std::set<std::string_view>> expected = {
      {"analyze", cat({app, grid})},
      {"sweep", cat({app, grid, {"csv"}})},
      {"mc", cat({app, grid,
                  {"samples", "seed", "sigma-L", "sigma-o", "sigma-G",
                   "dist-L", "dist-o", "dist-G", "edge-sigma", "edge-bias",
                   "bands"}})},
      {"campaign",
       cat({grid, topo,
            {"apps", "ranks", "scales", "topos", "nets", "L-list", "o-list",
             "G-list", "S", "seed", "probe", "probe-runs", "noise-sigma",
             "mc-samples", "mc-sigma-L", "mc-sigma-o", "mc-sigma-G",
             "mc-edge-sigma", "mc-edge-bias"}})},
      {"topo", cat({app, topo})},
      {"place", cat({app, {"l-wire", "d-switch", "ft-radix", "max-rounds"}})},
      {"batch", cat({{"file", "threads", "metrics"}})},
      {"stats", cat({{"file", "threads", "format"}})},
      {"serve", cat({{"port", "max-inflight"}})},
      {"apps", {}},
  };
  for (const auto& [sub, want] : expected) {
    const auto flags = tools::subcommand_flags(sub);
    ASSERT_TRUE(flags.has_value()) << sub;
    const std::set<std::string_view> got(flags->begin(), flags->end());
    EXPECT_EQ(got, want) << sub;
    EXPECT_EQ(got.size(), flags->size()) << sub << " lists a flag twice";
    // Whatever the schema does not supply is a surface flag.
    std::set<std::string_view> table;
    if (const auto op = api::op_index(sub)) {
      for (const api::FieldInfo& f : api::request_fields(*op)) {
        table.insert(f.flag);
      }
    }
    for (const std::string_view flag : got) {
      EXPECT_TRUE(table.count(flag) != 0 || surface.count(flag) != 0)
          << sub << " --" << flag;
    }
    for (const std::string_view flag : table) {
      EXPECT_TRUE(got.count(flag) != 0) << sub << " --" << flag;
    }
  }
  EXPECT_FALSE(tools::subcommand_flags("frobnicate").has_value());
}

TEST(ApiSchemaParity, EveryTableFlagIsDocumentedInHelp) {
  const auto help = run_cli({"help"});
  ASSERT_EQ(help.code, 0);
  for (std::size_t op = 0; op < api::kOpNames.size(); ++op) {
    for (const api::FieldInfo& f : api::request_fields(op)) {
      const std::string flag = "--" + std::string(f.flag);
      bool found = false;
      for (auto pos = help.out.find(flag); pos != std::string::npos;
           pos = help.out.find(flag, pos + 1)) {
        const char next = help.out[pos + flag.size()];
        found = found || next == '=' || next == ' ' || next == ',' ||
                next == '\n';
      }
      EXPECT_TRUE(found) << flag << " (" << api::kOpNames[op] << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine session caching: a repeated request must re-lower nothing, and
// the cache must be shared across request types.
// ---------------------------------------------------------------------------

TEST(ApiEngineCache, RepeatedRequestHitsTheGraphCache) {
  api::Engine engine;
  api::AnalyzeRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  const auto first = engine.analyze(req);
  const auto after_first = engine.cache_stats();
  EXPECT_EQ(after_first.built, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  const auto second = engine.analyze(req);
  const auto after_second = engine.cache_stats();
  EXPECT_EQ(after_second.built, 1u) << "second request re-built the graph";
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(rendered(first, core::OutputFormat::kTable),
            rendered(second, core::OutputFormat::kTable));
}

TEST(ApiEngineCache, CacheIsSharedAcrossRequestTypes) {
  api::Engine engine;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("lulesh");
  analyze.grid = {20.0, 3};
  (void)engine.analyze(analyze);
  EXPECT_EQ(engine.cache_stats().built, 1u);

  // Same scenario through sweep and a campaign: no new graph.
  api::SweepRequest sweep;
  sweep.app = small_app("lulesh");
  sweep.grid = {20.0, 3};
  (void)engine.sweep(sweep);
  EXPECT_EQ(engine.cache_stats().built, 1u);

  api::CampaignRequest campaign;
  campaign.apps = {"lulesh", "hpcg"};
  campaign.scales = {0.02};
  campaign.grid = {20.0, 3};
  (void)engine.campaign(campaign);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.built, 2u) << "only hpcg was new";
  EXPECT_GE(stats.hits, 2u);
}

TEST(ApiEngineCache, WarmCacheNeverChangesCampaignBytes) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.grid = {20.0, 3};

  api::Engine cold;
  const auto cold_res = cold.campaign(req);

  api::Engine warm;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("hpcg");
  analyze.grid = {20.0, 3};
  (void)warm.analyze(analyze);  // pre-populates hpcg's graph
  const auto warm_res = warm.campaign(req);

  for (const auto format :
       {core::OutputFormat::kTable, core::OutputFormat::kCsv,
        core::OutputFormat::kJson}) {
    EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
  }
}

// ---------------------------------------------------------------------------
// Solver warm-starting (PR 7): responses must be byte-identical whether the
// solver cache is cold, warm, or shared across threads — across repeated
// and nearby requests, every output format, and every request type — and
// repeats must re-lower nothing.
// ---------------------------------------------------------------------------

constexpr core::OutputFormat kAllFormats[] = {core::OutputFormat::kTable,
                                              core::OutputFormat::kCsv,
                                              core::OutputFormat::kJson};

TEST(ApiSolverCache, RepeatedAndNearbyRequestsMatchColdBytes) {
  std::vector<api::SweepRequest> sweeps;
  for (const double dl : {20.0, 20.0, 21.0, 20.5, 20.0}) {
    api::SweepRequest req;
    req.app = small_app("hpcg");
    req.grid = {dl, 3};
    sweeps.push_back(req);
  }
  // Analyze at repeated and nearby ranges: every report quantity (curve,
  // bands, λ_G, Algorithm 2) must match a cold engine whether it was
  // replayed, looked up in a memo, or computed.
  std::vector<api::AnalyzeRequest> analyzes;
  for (const double dl : {20.0, 20.0, 21.0, 20.5}) {
    for (const int points : {3, 5}) {
      api::AnalyzeRequest req;
      req.app = small_app("hpcg");
      req.grid = {dl, points};
      analyzes.push_back(req);
    }
  }

  api::Engine warm;
  for (int round = 0; round < 2; ++round) {
    for (const auto& req : sweeps) {
      const auto warm_res = warm.sweep(req);
      api::Engine cold;
      const auto cold_res = cold.sweep(req);
      for (const auto format : kAllFormats) {
        EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
      }
      EXPECT_EQ(cold_res.to_json_line(), warm_res.to_json_line());
    }
    for (const auto& req : analyzes) {
      const auto warm_rep = warm.analyze(req);
      api::Engine cold;
      const auto cold_rep = cold.analyze(req);
      for (const auto format : kAllFormats) {
        EXPECT_EQ(rendered(cold_rep, format), rendered(warm_rep, format))
            << "dl_max_us=" << req.grid.dl_max_us
            << " points=" << req.grid.points;
      }
      EXPECT_EQ(cold_rep.to_json_line(), warm_rep.to_json_line());
    }
  }

  // A repeated analyze is all replays and memo hits: no forward pass, no
  // memoized computation.
  const auto before = warm.solver_cache_stats();
  (void)warm.analyze(analyzes.front());
  const auto after = warm.solver_cache_stats();
  EXPECT_EQ(after.anchor_solves, before.anchor_solves);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_GT(after.memo_hits, before.memo_hits);
  EXPECT_GT(after.memo_bytes, 0u);

  // One scenario, one latency lowering (λ_G reads its critical path);
  // every repeat and nearby grid reused it.
  const auto stats = warm.solver_cache_stats();
  EXPECT_EQ(stats.built, 1u) << warm.solver_cache_stats_string();
  EXPECT_GE(stats.hits, 10u);
  EXPECT_GT(stats.replays, 0u) << "repeats should replay cached anchors";

  // A larger graph (hpcg at 64 ranks), queried the way a long-lived
  // session is: the same ΔL again, a hair away or far out, each on the
  // smallest grid {0, ΔL}, plus repeated analyzes.  Warm bytes match a
  // cold engine, and so does a parallel warm batch of the same stream.
  api::AppSpec big = small_app("hpcg");
  big.ranks = 64;
  big.scale = 0.05;
  std::vector<api::Request> stream;
  for (const double dl : {20.0, 20.0, 20.5, 21.0, 20.0, 60.0, 60.25, 20.0,
                          80.0, 20.125, 60.0, 80.5}) {
    api::SweepRequest req;
    req.app = big;
    req.grid = {dl, 2};
    stream.emplace_back(req);
  }
  api::AnalyzeRequest big_analyze;
  big_analyze.app = big;
  big_analyze.grid = {20.0, 3};
  stream.insert(stream.end(), 3, api::Request(big_analyze));

  const auto bytes = [](const api::Response& res) {
    std::ostringstream all;
    for (const auto format : kAllFormats) api::render(res, format, all);
    return all.str() + api::to_json_line(res);
  };
  std::vector<std::string> cold_bytes;
  for (const auto& req : stream) cold_bytes.push_back(bytes(api::Engine().run(req)));
  api::Engine session;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(bytes(session.run(stream[i])), cold_bytes[i])
          << "round " << round << " request " << i;
    }
  }
  const auto outcomes = session.run_batch(stream, 4);
  ASSERT_EQ(outcomes.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(outcomes[i].response) << outcomes[i].error;
    EXPECT_EQ(bytes(*outcomes[i].response), cold_bytes[i]) << "batch request " << i;
  }
}

TEST(ApiSolverCache, McWarmPathMatchesColdBytes) {
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 8;
  req.seed = 7;
  req.sigma_L = 0.05;  // only L jittered: the shared-solver path engages

  api::Engine warm;
  api::SweepRequest pre;
  pre.app = small_app("lulesh");
  pre.grid = {20.0, 3};
  (void)warm.sweep(pre);  // pre-warms the very lowering mc should reuse
  const auto warm_res = warm.mc(req);
  api::Engine cold;
  const auto cold_res = cold.mc(req);
  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
  }
  EXPECT_EQ(cold_res.to_json_line(), warm_res.to_json_line());

  // With edge noise the shared path disengages (per-sample perturbed
  // spaces); bytes still cannot depend on the session's cache.
  req.edge_sigma = 0.003;
  const auto warm_noise = warm.mc(req);
  const auto cold_noise = cold.mc(req);
  EXPECT_EQ(cold_noise.to_json_line(), warm_noise.to_json_line());
}

TEST(ApiSolverCache, RepeatedFastPathMcRunsNoSearchPass) {
  // The fast path's band searches read through the entry's tolerance
  // memo: a repeat of the same request is all hits (samples x bands), no
  // miss, so no pooled search runs, and its bytes match a cold engine in
  // every format and at any thread count.
  api::McRequest req;
  req.app = small_app("hpcg");
  req.grid = {20.0, 3};
  req.samples = 37;  // two full lane groups and a ragged one
  req.seed = 11;
  req.sigma_L = 0.05;
  req.threads = 1;
  ASSERT_EQ(req.bands.size(), 3u);
  const std::size_t searches = 37 * req.bands.size();

  api::Engine cold;
  const auto cold_res = cold.mc(req);
  ASSERT_TRUE(cold_res.result.batched);

  api::Engine warm;
  const auto first = warm.mc(req);
  const auto before = warm.solver_cache_stats();
  const auto second = warm.mc(req);
  const auto after = warm.solver_cache_stats();
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_EQ(after.memo_hits - before.memo_hits, searches);
  EXPECT_EQ(after.memo_bytes, before.memo_bytes);
  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(first, format));
    EXPECT_EQ(rendered(cold_res, format), rendered(second, format));
  }
  EXPECT_EQ(cold_res.to_json_line(), second.to_json_line());

  // Four threads on the warm engine (all hits) and on a cold one (the
  // groups race their first stores): the same bytes as one thread.
  req.threads = 4;
  const auto warm4 = warm.mc(req);
  api::Engine cold4_engine;
  const auto cold4 = cold4_engine.mc(req);
  EXPECT_EQ(warm.solver_cache_stats().memo_misses, before.memo_misses);
  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(warm4, format));
    EXPECT_EQ(rendered(cold_res, format), rendered(cold4, format));
  }
}

TEST(ApiSolverCache, CampaignWarmVsColdBytesIncludingMcAxis) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.grid = {20.0, 3};
  req.mc_samples = 4;
  req.mc_sigma_L = 0.05;

  api::Engine cold;
  const auto cold_res = cold.campaign(req);

  api::Engine warm;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("hpcg");
  analyze.grid = {20.0, 3};
  (void)warm.analyze(analyze);  // pre-warms hpcg's graph AND its lowering
  const auto first = warm.campaign(req);
  const auto second = warm.campaign(req);  // fully warm repeat

  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(first, format));
    EXPECT_EQ(rendered(cold_res, format), rendered(second, format));
  }
  EXPECT_EQ(cold_res.to_json_line(), second.to_json_line());
  EXPECT_GT(warm.solver_cache_stats().replays, 0u);
}

// ---------------------------------------------------------------------------
// Batch execution.
// ---------------------------------------------------------------------------

std::string mixed_workload_jsonl() {
  // >= 20 requests mixing every op, small enough to stay fast.
  std::string in;
  for (const char* app : {"lulesh", "hpcg", "milc", "icon"}) {
    in += std::string("{\"op\": \"analyze\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}}\n";
    in += std::string("{\"op\": \"sweep\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}}\n";
    in += std::string("{\"op\": \"mc\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}, \"samples\": 4, \"sigma_L\": 0.05}\n";
    in += std::string("{\"op\": \"topo\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}}\n";
    in += std::string("{\"op\": \"place\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}}\n";
  }
  in +=
      "{\"op\": \"campaign\", \"apps\": [\"lulesh\", \"hpcg\"], "
      "\"scales\": [0.02], \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n";
  return in;  // 21 requests
}

TEST(ApiSolverCache, WarmBatchBytesAreThreadCountInvariant) {
  // The full mixed workload, served twice on one engine: the warm pass
  // must reproduce the cold pass byte for byte, at 1 and at 8 threads.
  const std::string input = mixed_workload_jsonl();
  auto serve_twice = [&](int threads) {
    api::Engine engine(api::Engine::Options{.threads = threads});
    std::istringstream in1(input);
    std::ostringstream out1;
    (void)api::serve_jsonl(engine, in1, out1, threads);
    std::istringstream in2(input);
    std::ostringstream out2;
    (void)api::serve_jsonl(engine, in2, out2, threads);
    EXPECT_EQ(out1.str(), out2.str())
        << "warm pass changed bytes at threads=" << threads;
    return out2.str();
  };
  EXPECT_EQ(serve_twice(1), serve_twice(8));
}

TEST(ApiBatch, ByteDeterministicAcrossThreadCounts) {
  const std::string input = mixed_workload_jsonl();
  auto serve = [&](int threads) {
    // Capped at the requested count; the 8-thread run starts 8 workers
    // whatever the host's core count.
    api::Engine engine(api::Engine::Options{.threads = threads});
    std::istringstream in(input);
    std::ostringstream out;
    const auto outcome = api::serve_jsonl(engine, in, out, threads);
    EXPECT_EQ(outcome.requests, 21u);
    EXPECT_EQ(outcome.failures, 0u);
    return out.str();
  };
  const std::string serial = serve(1);
  const std::string parallel = serve(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ApiBatch, ResultsComeBackInInputOrder) {
  const std::string input = mixed_workload_jsonl();
  api::Engine engine(api::Engine::Options{.threads = 8});
  std::istringstream in(input);
  std::ostringstream out;
  (void)api::serve_jsonl(engine, in, out, 8);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t expect_id = 0;
  while (std::getline(lines, line)) {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* id = doc.find("id");
    ASSERT_NE(id, nullptr) << line;
    EXPECT_EQ(id->as_number("id"), static_cast<double>(expect_id));
    EXPECT_NE(doc.find("result"), nullptr) << line;
    ++expect_id;
  }
  EXPECT_EQ(expect_id, 21u);
}

TEST(ApiBatch, BadLinesFailInBandAndDoNotAbortTheBatch) {
  const std::string input =
      "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": "
      "0.02}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
      "\n"  // blank lines are skipped
      "this is not json\n"
      "{\"op\": \"sweep\", \"grid\": {\"points\": 1}}\n"
      "{\"op\": \"analyze\", \"app\": {\"name\": \"no-such-app\"}}\n"
      "{\"op\": \"sweep\", \"bogus_field\": 1}\n"
      "{\"op\": \"place\", \"app\": {\"name\": \"icon\", \"scale\": "
      "0.02}}\n";
  api::Engine engine;
  std::istringstream in(input);
  std::ostringstream out;
  const auto outcome = api::serve_jsonl(engine, in, out, 2);
  EXPECT_EQ(outcome.requests, 6u);
  EXPECT_EQ(outcome.failures, 4u);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"result\""), std::string::npos);
  // Unparseable JSON: error with no op to echo.
  EXPECT_NE(lines[1].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"usage\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"op\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\": \"usage\""), std::string::npos);
  EXPECT_NE(lines[2].find("points"), std::string::npos);
  EXPECT_NE(lines[3].find("\"kind\": \"analysis\""), std::string::npos);
  // A rejected-but-readable request still echoes its op.
  EXPECT_NE(lines[4].find("\"op\": \"sweep\""), std::string::npos);
  EXPECT_NE(lines[4].find("bogus_field"), std::string::npos);
  EXPECT_NE(lines[5].find("\"result\""), std::string::npos);
}

TEST(ApiBatch, RunBatchSharesTheSessionCache) {
  api::Engine engine(api::Engine::Options{.threads = 4});
  std::vector<api::Request> requests;
  for (int i = 0; i < 6; ++i) {
    api::SweepRequest req;
    req.app = small_app("lulesh");
    req.grid = {20.0, 3};
    requests.emplace_back(req);
  }
  const auto outcomes = engine.run_batch(requests, 4);
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.response.has_value());
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.built, 1u) << "identical requests must share one graph";
  EXPECT_EQ(stats.hits, 5u);
}

TEST(ApiBatch, ConcurrentRunBatchCallsMatchSerialBytes) {
  // Two batches really run at once on one engine, racing the shared graph
  // and solver caches over the same scenarios; each must produce the bytes
  // of a serial run on a fresh engine.
  auto batch_of = [](const char* first, const char* second) {
    std::vector<api::Request> reqs;
    for (const char* app : {first, second}) {
      api::SweepRequest sweep;
      sweep.app = small_app(app);
      sweep.grid = {20.0, 3};
      reqs.emplace_back(sweep);
      api::AnalyzeRequest analyze;
      analyze.app = small_app(app);
      analyze.grid = {20.0, 3};
      reqs.emplace_back(analyze);
      api::McRequest mc;
      mc.app = small_app(app);
      mc.grid = {20.0, 3};
      mc.samples = 16;
      mc.edge_sigma = 0.003;
      reqs.emplace_back(mc);
      api::TopoRequest topo;
      topo.app = small_app(app);
      reqs.emplace_back(topo);
    }
    return reqs;
  };
  const auto lines = [](const std::vector<api::Engine::Outcome>& outcomes) {
    std::vector<std::string> out;
    for (const auto& o : outcomes) {
      EXPECT_TRUE(o.response.has_value()) << o.error;
      out.push_back(o.response ? api::to_json_line(*o.response) : o.error);
    }
    return out;
  };
  const auto a_reqs = batch_of("lulesh", "hpcg");
  const auto b_reqs = batch_of("hpcg", "lulesh");
  api::Engine engine(api::Engine::Options{.threads = 4});
  std::vector<api::Engine::Outcome> a, b;
  std::thread t1([&] { a = engine.run_batch(a_reqs, 4); });
  std::thread t2([&] { b = engine.run_batch(b_reqs, 4); });
  t1.join();
  t2.join();
  api::Engine serial_a;
  api::Engine serial_b;
  EXPECT_EQ(lines(a), lines(serial_a.run_batch(a_reqs, 1)));
  EXPECT_EQ(lines(b), lines(serial_b.run_batch(b_reqs, 1)));
}

TEST(ApiBatch, CrlfBlankLinesAndMissingTrailingNewlineAreHandled) {
  const std::string sweep_line =
      "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": "
      "0.02}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}}";
  const std::string place_line =
      "{\"op\": \"place\", \"app\": {\"name\": \"icon\", \"scale\": 0.02}}";
  const std::string lf = sweep_line + "\n" + place_line + "\n";
  // Same two requests: CRLF endings, a whitespace-only CR line between
  // them, and no trailing newline on the last request.
  const std::string crlf = sweep_line + "\r\n\r\n" + place_line;

  auto serve = [](const std::string& input) {
    api::Engine engine;
    std::istringstream in(input);
    std::ostringstream out;
    const auto outcome = api::serve_jsonl(engine, in, out, 2);
    EXPECT_EQ(outcome.requests, 2u);
    EXPECT_EQ(outcome.failures, 0u);
    return out.str();
  };
  EXPECT_EQ(serve(lf), serve(crlf));
}

TEST(ApiBatch, ParseErrorsNameThePhysicalInputLine) {
  // Leading blanks shift request ids off physical line numbers — the
  // in-band error must name the physical line, id stays the request index.
  const std::string input = "\n\nnot json\r\n{\"op\": \"sweep\"[]}\n";
  api::Engine engine;
  std::istringstream in(input);
  std::ostringstream out;
  const auto outcome = api::serve_jsonl(engine, in, out, 1);
  EXPECT_EQ(outcome.requests, 2u);
  EXPECT_EQ(outcome.failures, 2u);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("input line 3:"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("input line 4:"), std::string::npos) << lines[1];
}

// ---------------------------------------------------------------------------
// Non-finite hygiene (PR 7): inf/nan must never reach any serializer as a
// bare JSON token — parameters are rejected at validation, and every value
// emitter degrades to null.
// ---------------------------------------------------------------------------

TEST(ApiNonFinite, ParamOverridesAreRejectedAtValidation) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  api::Engine engine;
  for (const double bad : {nan, inf}) {
    api::AnalyzeRequest req;
    req.app = small_app("lulesh");
    req.grid = {20.0, 3};
    req.app.L = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
    req.app.L.reset();
    req.app.o = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
    req.app.o.reset();
    req.app.G = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
  }
}

TEST(ApiNonFinite, ReportJsonEmitsNullForNonFiniteValues) {
  core::ToleranceReport rep;
  rep.params = loggops::NetworkConfig::cscs_testbed();
  rep.base_runtime = std::numeric_limits<double>::infinity();
  rep.lambda_L_base = std::numeric_limits<double>::quiet_NaN();
  rep.lambda_G = -std::numeric_limits<double>::infinity();
  rep.bands.push_back({1.0, std::numeric_limits<double>::infinity()});
  core::LatencyAnalyzer::SweepPoint pt;
  pt.delta_L = 0.0;
  pt.runtime = std::numeric_limits<double>::quiet_NaN();
  pt.lambda_L = std::numeric_limits<double>::infinity();
  pt.rho_L = 0.5;
  rep.curve.push_back(pt);
  rep.critical_latencies.push_back(
      std::numeric_limits<double>::infinity());

  for (const std::string& json : {rep.to_json(), rep.to_json_line()}) {
    // Must parse as JSON at all (bare inf/nan tokens would throw) ...
    const JsonValue doc = JsonValue::parse(json);
    // ... and the non-finite members must have degraded to null.
    EXPECT_NE(json.find("\"base_runtime_ns\": null"), std::string::npos);
    EXPECT_NE(json.find("\"lambda_l\": null"), std::string::npos);
    EXPECT_NE(json.find("\"lambda_g\": null"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    (void)doc;
  }
}

TEST(ApiNonFinite, TableEmittersQuoteNonFiniteCells) {
  // The table→JSON renderers type cells by "parses as a finite number":
  // non-finite cells (unbounded tolerances) must come out as strings or
  // null, never bare tokens.  mc summaries with unbounded samples are the
  // natural producer.
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 2;
  req.seed = 3;
  api::Engine engine;
  const auto res = engine.mc(req);  // degenerate: tolerances unbounded iff flat
  const std::string line = res.to_json_line();
  (void)JsonValue::parse(line);
  const std::string json = rendered(res, core::OutputFormat::kJson);
  std::istringstream rows(json);
  std::string row;
  while (std::getline(rows, row)) {
    EXPECT_EQ(row.find(": inf"), std::string::npos) << row;
    EXPECT_EQ(row.find(": nan"), std::string::npos) << row;
  }
}

// Degenerate-input hygiene of the JSON layer itself.
TEST(ApiJsonValue, ParserEdgeCases) {
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 01}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": +1}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": tru}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": \"x}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("[1, 2,]"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 1, \"a\": 2}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("nullx"), UsageError);

  const JsonValue v = JsonValue::parse(
      " {\"s\": \"a\\u0041\\n\", \"n\": -1.5e3, \"b\": true, "
      "\"x\": null, \"arr\": [1, \"two\"]} ");
  EXPECT_EQ(v.find("s")->as_string("s"), "aA\n");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number("n"), -1500.0);
  EXPECT_TRUE(v.find("b")->as_bool("b"));
  EXPECT_TRUE(v.find("x")->is_null());
  EXPECT_EQ(v.find("arr")->as_array("arr").size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ApiJsonValue, JsonDoubleRoundTrips) {
  for (const double x : {0.0, 0.25, 0.1, 1e-9, 3.0000000001, 12345.678,
                         1.7976931348623157e308}) {
    const std::string s = json_double(x);
    EXPECT_EQ(std::stod(s), x) << s;
  }
  EXPECT_EQ(json_double(0.25), "0.25");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace llamp
