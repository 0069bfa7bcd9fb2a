#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lp/parametric.hpp"
#include "tools/cli_driver.hpp"
#include "util/strings.hpp"

namespace llamp {
namespace {

/// Drive the unified CLI in-process and capture its streams.
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

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(CliSmoke, AnalyzeSmallApp) {
  const auto r =
      run_cli({"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05",
               "--points=3", "--dl-max-us=50"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "app: lulesh"));
  EXPECT_TRUE(contains(r.out, "base runtime T(L):"));
  EXPECT_TRUE(contains(r.out, "lambda_L"));
  EXPECT_TRUE(contains(r.out, "latency tolerance"));
}

TEST(CliSmoke, SweepEmitsCsvRows) {
  const auto r = run_cli({"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05",
                          "--points=4", "--dl-max-us=30", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "delta_l_ns,runtime_ns,lambda_l,rho_l"));
  // Header + the 4 grid points.
  EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 5);
}

TEST(CliSmoke, SweepAcceptsSpaceSeparatedFlags) {
  const auto r = run_cli({"sweep", "--app", "lulesh", "--ranks", "8",
                          "--scale", "0.05", "--points", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "app: lulesh   ranks: 8"));
  EXPECT_TRUE(contains(r.out, "lambda_L"));
}

TEST(CliSmoke, TopoComparesTopologies) {
  const auto r =
      run_cli({"topo", "--app=icon", "--ranks=8", "--scale=0.05"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "fat-tree"));
  EXPECT_TRUE(contains(r.out, "dragonfly"));
  EXPECT_TRUE(contains(r.out, "dT/dl_wire"));
  EXPECT_TRUE(contains(r.out, "l_tc"));  // per-class breakdown
}

TEST(CliSmoke, PlaceComparesStrategies) {
  const auto r =
      run_cli({"place", "--app=icon", "--ranks=8", "--scale=0.05"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "block (default)"));
  EXPECT_TRUE(contains(r.out, "volume-greedy"));
  EXPECT_TRUE(contains(r.out, "algorithm 3"));
  EXPECT_TRUE(contains(r.out, "predicted runtime"));
}

// Applications outside the paper's Table II (npb-*, namd) must still be
// analyzable: they fall back to the network preset's default overhead.
TEST(CliSmoke, AnalyzeAppWithoutTable2Overhead) {
  const auto r = run_cli({"analyze", "--app=npb-cg", "--ranks=8",
                          "--scale=0.05", "--points=3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "base runtime T(L):"));
}

TEST(CliSmoke, AppsListsRegistry) {
  const auto r = run_cli({"apps"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(contains(r.out, "lulesh"));
  EXPECT_TRUE(contains(r.out, "icon"));
  EXPECT_TRUE(contains(r.out, "npb-cg"));
}

TEST(CliSmoke, HelpAndUsageErrors) {
  const auto help = run_cli({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_TRUE(contains(help.out, "usage: llamp"));

  // A bare `llamp` is a question, not a mistake: usage on stdout, exit 0.
  const auto none = run_cli({});
  EXPECT_EQ(none.code, 0);
  EXPECT_TRUE(contains(none.out, "usage: llamp"));
  EXPECT_TRUE(none.err.empty());

  // So is `llamp <sub> --help`, even next to flags the subcommand would
  // otherwise reject.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"sweep", "--help"},
           {"campaign", "-h"},
           {"batch", "--help"},
           {"analyze", "--points=1", "--help"},
           {"mc", "--no-such-flag=1", "--help"},
       }) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 0) << args[0];
    EXPECT_TRUE(contains(r.out, "usage: llamp"));
  }

  const auto unknown = run_cli({"frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_TRUE(contains(unknown.err, "unknown subcommand"));
}

TEST(CliSmoke, VersionFlag) {
  for (const char* spelling : {"--version", "version"}) {
    const auto r = run_cli({spelling});
    EXPECT_EQ(r.code, 0);
    EXPECT_TRUE(contains(r.out, "llamp 0.6"));
    // Build metadata rides along: "llamp 0.6.0 (gcc 13.2.0, Release)".
    // /healthz reuses these fields verbatim (pinned in test_serve.cpp).
    EXPECT_TRUE(contains(r.out, "("));
    EXPECT_TRUE(contains(r.out, ", "));
    EXPECT_TRUE(r.err.empty());
  }
}

// --format=json consumers must never have to scrape stderr: errors are
// additionally emitted as one structured {"error": ...} object on stdout,
// with exit codes unchanged.
TEST(CliSmoke, JsonModeEmitsStructuredErrors) {
  const auto usage = run_cli(
      {"sweep", "--app=lulesh", "--points=1", "--format=json"});
  EXPECT_EQ(usage.code, 2);
  EXPECT_TRUE(contains(usage.out, "\"error\""));
  EXPECT_TRUE(contains(usage.out, "\"kind\": \"usage\""));
  EXPECT_TRUE(contains(usage.out, "\"subcommand\": \"sweep\""));
  EXPECT_TRUE(contains(usage.err, "need --points >= 2"));

  const auto analysis = run_cli(
      {"analyze", "--app=not-an-app", "--format=json"});
  EXPECT_EQ(analysis.code, 1);
  EXPECT_TRUE(contains(analysis.out, "\"kind\": \"analysis\""));

  const auto typo = run_cli({"sweep", "--pionts=5", "--format=json"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_TRUE(contains(typo.out, "unrecognized argument"));

  // Without --format=json, stdout stays clean.
  const auto text = run_cli({"sweep", "--app=lulesh", "--points=1"});
  EXPECT_EQ(text.code, 2);
  EXPECT_TRUE(text.out.empty());
}

// A typo'd option or stray positional must be a usage error (exit 2), not a
// silent fall-back to the default value.
TEST(CliSmoke, RejectsUnknownOptionsAndPositionals) {
  const auto typo = run_cli({"sweep", "--app=lulesh", "--pionts=5"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_TRUE(contains(typo.err, "unrecognized argument '--pionts=5'"));

  const auto wrong_sub = run_cli({"place", "--app=icon", "--csv"});
  EXPECT_EQ(wrong_sub.code, 2);  // --csv is a sweep option, not place

  const auto stray = run_cli({"apps", "lulesh"});
  EXPECT_EQ(stray.code, 2);
  EXPECT_TRUE(contains(stray.err, "unrecognized argument 'lulesh'"));

  // A boolean flag must not swallow a following stray token as its value.
  const auto after_bool = run_cli({"sweep", "--app=lulesh", "--ranks=8",
                                   "--scale=0.05", "--points=2", "--csv",
                                   "extra"});
  EXPECT_EQ(after_bool.code, 2);
  EXPECT_TRUE(contains(after_bool.err, "unrecognized argument 'extra'"));
}

TEST(CliSmoke, CampaignEmitsGridInEveryFormat) {
  const std::vector<const char*> base = {
      "campaign", "--apps=lulesh,hpcg", "--ranks=8",   "--scales=0.02",
      "--topos=none",                   "--points=3",  "--dl-max-us=20"};
  auto with_format = [&](const char* fmt) {
    auto args = base;
    args.push_back(fmt);
    return run_cli(args);
  };
  const auto table = run_cli(base);
  EXPECT_EQ(table.code, 0) << table.err;
  EXPECT_TRUE(contains(table.out, "campaign: 2 scenarios"));
  EXPECT_TRUE(contains(table.out, "lulesh"));
  EXPECT_TRUE(contains(table.out, "hpcg"));

  const auto csv = with_format("--format=csv");
  EXPECT_EQ(csv.code, 0) << csv.err;
  EXPECT_TRUE(contains(
      csv.out,
      "app,ranks,scale,topology,config,delta_l_ns,runtime_ns,lambda_l,rho_l"));
  // Header + 2 scenarios x 3 points.
  EXPECT_EQ(std::count(csv.out.begin(), csv.out.end(), '\n'), 7);

  const auto json = with_format("--format=json");
  EXPECT_EQ(json.code, 0) << json.err;
  EXPECT_TRUE(contains(json.out, "\"app\": \"lulesh\""));
  EXPECT_TRUE(contains(json.out, "\"topology\": \"none\""));
}

// The campaign determinism wall (the engine's core contract): the same grid
// must produce byte-identical output under --threads=1 and --threads=8, in
// every output format.  This is the acceptance grid of ISSUE 2: 3 apps x
// 2 rank counts x 2 topologies.
TEST(CliCampaignDeterminism, ThreadCountNeverChangesTheBytes) {
  for (const char* fmt : {"--format=csv", "--format=json", "--format=table"}) {
    auto run_with = [&](const char* threads) {
      return run_cli({"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
                      "--topos=none,fat-tree", "--scales=0.02", "--points=3",
                      "--dl-max-us=20", fmt, threads});
    };
    const auto serial = run_with("--threads=1");
    const auto parallel = run_with("--threads=8");
    ASSERT_EQ(serial.code, 0) << serial.err;
    ASSERT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_FALSE(serial.out.empty());
    EXPECT_EQ(serial.out, parallel.out) << "format " << fmt;
  }
}

// Degenerate grid specs must exit 2 with a clear message — never UB, a
// crash, or silent empty output.
TEST(CliGridEdgeCases, DegenerateGridsAreUsageErrors) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"sweep", "--app=lulesh", "--points=0"},
           {"sweep", "--app=lulesh", "--points=1"},
           {"analyze", "--app=lulesh", "--points=1"},
           {"campaign", "--apps=lulesh", "--points=1"},
           {"sweep", "--app=lulesh", "--dl-max-us=0"},
           {"campaign", "--apps=lulesh", "--dl-max-us=0"},
           {"campaign", "--apps=lulesh", "--dl-max-us=-5"},
           {"campaign", "--apps="},
           {"campaign", "--apps=lulesh", "--ranks="},
           {"campaign", "--apps=lulesh", "--topos=torus"},
           {"campaign", "--apps=lulesh", "--nets=slurm"},
           {"sweep", "--app=lulesh", "--net=slurm"},
           {"campaign", "--apps=lulesh", "--ranks=abc"},
           {"campaign", "--apps=lulesh", "--L-list=-5"},
           {"campaign", "--apps=lulesh", "--scales=inf"},
           {"sweep", "--app=lulesh", "--scale=inf"},
           {"sweep", "--app=lulesh", "--scale=0"},
           {"analyze", "--app=lulesh", "--scale=-1"},
           {"campaign", "--apps=lulesh", "--S=-5"},
           {"sweep", "--app=lulesh", "--S=-5"},
           {"campaign", "--apps=hpcg", "--ranks=512", "--topos=fat-tree"},
           {"campaign", "--apps=lulesh", "--topos=fat-tree", "--ft-radix=0"},
           {"sweep", "--app=lulesh", "--points=abc"},
           {"sweep", "--app=lulesh", "--points=4294967298"},
           {"campaign", "--apps=lulesh", "--ranks=4294967304"},
           {"analyze", "--app=lulesh", "--dl-max-us=abc"},
           {"sweep", "--app=lulesh", "--format=yaml"},
           // Used to skip Algorithm 3 and report it as 0.0 ns (-100%).
           {"place", "--app=lulesh", "--scale=0.02", "--max-rounds=0"},
           {"place", "--app=lulesh", "--scale=0.02", "--max-rounds=-3"},
       }) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[0] << ' ' << args[1];
    EXPECT_FALSE(r.err.empty());
  }
}

// --S is graph-shaping (it selects eager vs rendezvous per message), so the
// same scenario must forecast identically through sweep and campaign.
TEST(CliSmoke, RendezvousThresholdShapesTheGraphConsistently) {
  const auto sweep =
      run_cli({"sweep", "--app=lulesh", "--ranks=8", "--scale=0.02",
               "--points=2", "--dl-max-us=10", "--S=1024", "--format=csv"});
  const auto camp = run_cli({"campaign", "--apps=lulesh", "--ranks=8",
                             "--scales=0.02", "--points=2", "--dl-max-us=10",
                             "--S=1024", "--format=csv"});
  ASSERT_EQ(sweep.code, 0) << sweep.err;
  ASSERT_EQ(camp.code, 0) << camp.err;
  // The sweep row (delta,runtime,lambda,rho) must be the tail of the
  // campaign row (app,ranks,scale,topology,config,delta,runtime,...).
  const auto last_line = [](const std::string& s) {
    const auto end = s.find_last_not_of('\n');
    const auto start = s.rfind('\n', end);
    return s.substr(start + 1, end - start);
  };
  const std::string sweep_row = last_line(sweep.out);
  const std::string camp_row = last_line(camp.out);
  ASSERT_GE(camp_row.size(), sweep_row.size());
  EXPECT_EQ(camp_row.substr(camp_row.size() - sweep_row.size()), sweep_row);
}

TEST(CliSmoke, SweepFormatFlagMatchesCsvShorthand) {
  const std::vector<const char*> common = {"sweep", "--app=hpcg", "--ranks=8",
                                           "--scale=0.02", "--points=3"};
  auto shorthand = common;
  shorthand.push_back("--csv");
  auto explicit_fmt = common;
  explicit_fmt.push_back("--format=csv");
  EXPECT_EQ(run_cli(shorthand).out, run_cli(explicit_fmt).out);

  auto json = common;
  json.push_back("--format=json");
  const auto r = run_cli(json);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "\"delta_l_ns\": "));
}

TEST(CliSmoke, AnalyzeJsonIsAStructuredReport) {
  const auto r = run_cli({"analyze", "--app=lulesh", "--ranks=8",
                          "--scale=0.02", "--points=3", "--format=json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "\"base_runtime_ns\": "));
  EXPECT_TRUE(contains(r.out, "\"bands\": "));
  EXPECT_TRUE(contains(r.out, "\"critical_latencies_ns\": "));
}

// ---------------------------------------------------------------------------
// The mc subcommand and the uniform --seed contract: on every stochastic
// CLI path (mc, the campaign mc axis, the campaign emulator probe),
// identical seeds reproduce identical bytes and the thread count never
// changes them; a different seed re-rolls the noise.
// ---------------------------------------------------------------------------

TEST(CliMc, SmokeTableReport) {
  const auto r = run_cli({"mc", "--app=lulesh", "--ranks=8", "--scale=0.05",
                          "--points=3", "--dl-max-us=50", "--samples=8",
                          "--sigma-L=0.05"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "app: lulesh"));
  EXPECT_TRUE(contains(r.out, "mc: 8 samples"));
  EXPECT_TRUE(contains(r.out, "lambda_L"));
  EXPECT_TRUE(contains(r.out, "q95"));
  EXPECT_TRUE(contains(r.out, "tol 1%"));
}

TEST(CliMc, EmitsEveryFormat) {
  const std::vector<const char*> common = {
      "mc",           "--app=lulesh",  "--ranks=8",
      "--scale=0.02", "--points=3",    "--dl-max-us=20",
      "--samples=4",  "--sigma-L=0.1", "--bands=1"};
  auto with_format = [&](const char* fmt) {
    auto args = common;
    args.push_back(fmt);
    return run_cli(args);
  };
  const auto csv = with_format("--format=csv");
  EXPECT_EQ(csv.code, 0) << csv.err;
  EXPECT_TRUE(contains(
      csv.out, "metric,n,unbounded,mean,stddev,min,q05,median,q95,max"));
  // Header + 3 runtime rows + lambda + rho + 1 band.
  EXPECT_EQ(std::count(csv.out.begin(), csv.out.end(), '\n'), 7);

  const auto json = with_format("--format=json");
  EXPECT_EQ(json.code, 0) << json.err;
  EXPECT_TRUE(contains(json.out, "\"metric\": \"lambda_l\""));
  EXPECT_TRUE(contains(json.out, "\"mean\": "));
  // The JSON config echo is self-describing bench provenance: it records
  // whether the batched sample-axis kernel engaged and its lane count.
  // L-only jitter keeps the shared operating point, so this run batches.
  EXPECT_TRUE(contains(json.out, "\"batched\": true"));
  EXPECT_TRUE(contains(
      json.out,
      strformat("\"batch_width\": %d",
                static_cast<int>(llamp::lp::kBatchWidth))));
}

TEST(CliMc, JsonConfigEchoReportsScalarFallback) {
  // Edge noise forces per-sample lowering, so the echo must say so.
  const auto json = run_cli({"mc", "--app=lulesh", "--ranks=8",
                             "--scale=0.02", "--points=3", "--dl-max-us=20",
                             "--samples=4", "--sigma-L=0.1",
                             "--edge-sigma=0.003", "--format=json"});
  EXPECT_EQ(json.code, 0) << json.err;
  EXPECT_TRUE(contains(json.out, "\"batched\": false"));
}

TEST(CliMc, SeedReproducesIdenticalBytes) {
  const std::vector<const char*> base = {
      "mc",           "--app=lulesh",    "--ranks=8",
      "--scale=0.02", "--points=3",      "--dl-max-us=20",
      "--samples=16", "--sigma-L=0.05",  "--edge-sigma=0.003",
      "--seed=7",     "--format=csv"};
  const auto a = run_cli(base);
  const auto b = run_cli(base);
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);

  auto reseeded = base;
  reseeded[9] = "--seed=8";
  const auto c = run_cli(reseeded);
  ASSERT_EQ(c.code, 0) << c.err;
  EXPECT_NE(a.out, c.out);
}

TEST(CliMc, ThreadCountNeverChangesTheBytes) {
  for (const char* fmt : {"--format=csv", "--format=json", "--format=table"}) {
    auto run_with = [&](const char* threads) {
      return run_cli({"mc", "--app=hpcg", "--ranks=8", "--scale=0.02",
                      "--points=3", "--dl-max-us=20", "--samples=24",
                      "--sigma-L=0.05", "--sigma-o=0.02",
                      "--edge-sigma=0.003", "--seed=5", fmt, threads});
    };
    const auto serial = run_with("--threads=1");
    const auto parallel = run_with("--threads=8");
    ASSERT_EQ(serial.code, 0) << serial.err;
    ASSERT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_FALSE(serial.out.empty());
    EXPECT_EQ(serial.out, parallel.out) << "format " << fmt;
  }
}

TEST(CliMc, UsageErrors) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"mc", "--app=lulesh", "--samples=0"},
           {"mc", "--app=lulesh", "--samples=-3"},
           {"mc", "--app=lulesh", "--seed=-1"},
           {"mc", "--app=lulesh", "--dist-L=gaussian:1,2"},
           {"mc", "--app=lulesh", "--dist-L="},
           {"mc", "--app=lulesh", "--dist-L=uniform:5,1"},
           {"mc", "--app=lulesh", "--sigma-L=-0.1"},
           {"mc", "--app=lulesh", "--edge-sigma=-0.5"},
           {"mc", "--app=lulesh", "--edge-bias=-2"},
           {"mc", "--app=lulesh", "--bands=-1"},
           {"mc", "--app=lulesh", "--points=1"},
           {"mc", "--app=lulesh", "--nope=1"},
       }) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[2] << " -> " << r.err;
    EXPECT_FALSE(r.err.empty());
  }
}

TEST(CliMc, DistFlagsOverrideSigmas) {
  // An explicit degenerate --dist-L beats --sigma-L, so the run is exactly
  // the deterministic analysis repeated; n=1 keeps it cheap.
  const auto pinned = run_cli({"mc", "--app=lulesh", "--ranks=8",
                               "--scale=0.02", "--points=2",
                               "--dl-max-us=20", "--samples=1",
                               "--dist-L=base", "--format=csv"});
  ASSERT_EQ(pinned.code, 0) << pinned.err;
  // Zero-variance run: stddev column is exactly 0 on every row.
  EXPECT_TRUE(contains(pinned.out, ",0,"));
}

TEST(CliCampaignStochastic, McAxisAddsColumnsAndKeepsDeterminism) {
  auto run_with = [&](const char* threads) {
    return run_cli({"campaign", "--apps=lulesh,hpcg", "--ranks=8",
                    "--scales=0.02", "--points=3", "--dl-max-us=20",
                    "--mc-samples=12", "--mc-sigma-L=0.05",
                    "--mc-edge-sigma=0.003", "--seed=3", "--format=csv",
                    threads});
  };
  const auto serial = run_with("--threads=1");
  const auto parallel = run_with("--threads=8");
  ASSERT_EQ(serial.code, 0) << serial.err;
  EXPECT_TRUE(contains(serial.out,
                       "runtime_mean_ns,runtime_sd_ns,runtime_q05_ns,"
                       "runtime_q95_ns"));
  EXPECT_EQ(serial.out, parallel.out);

  // Without the axis the schema is unchanged (golden files pin it too).
  const auto plain = run_cli({"campaign", "--apps=lulesh", "--ranks=8",
                              "--scales=0.02", "--points=3",
                              "--dl-max-us=20", "--format=csv"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  EXPECT_FALSE(contains(plain.out, "runtime_mean_ns"));
}

TEST(CliCampaignStochastic, EmulatorProbeIsSeedStable) {
  auto run_with = [&](const char* seed, const char* threads) {
    return run_cli({"campaign", "--apps=lulesh,hpcg", "--ranks=8",
                    "--scales=0.02", "--points=3", "--dl-max-us=20",
                    "--probe=emulator", "--probe-runs=2", seed, threads,
                    "--format=csv"});
  };
  const auto a = run_with("--seed=11", "--threads=1");
  const auto b = run_with("--seed=11", "--threads=8");
  const auto c = run_with("--seed=12", "--threads=1");
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_TRUE(contains(a.out, "measured_ns"));
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out, c.out);
}

TEST(CliCampaignStochastic, UsageErrors) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"campaign", "--apps=lulesh", "--probe=tarot"},
           {"campaign", "--apps=lulesh", "--probe=emulator",
            "--probe-runs=0"},
           {"campaign", "--apps=lulesh", "--probe=emulator",
            "--noise-sigma=-1"},
           {"campaign", "--apps=lulesh", "--mc-samples=-1"},
           {"campaign", "--apps=lulesh", "--mc-samples=4",
            "--mc-sigma-L=-0.5"},
           {"campaign", "--apps=lulesh", "--topos=fat-tree",
            "--mc-samples=4"},
           {"campaign", "--apps=lulesh", "--seed=-2"},
           // Knobs must never be silently ignored: a bad value is a usage
           // error even when its enabling flag is off, and a well-formed
           // knob without its enabling flag is an orphan, not a no-op.
           {"campaign", "--apps=lulesh", "--mc-sigma-L=-5"},
           {"campaign", "--apps=lulesh", "--mc-sigma-L=0.05"},
           {"campaign", "--apps=lulesh", "--mc-edge-sigma=0.01"},
           {"campaign", "--apps=lulesh", "--probe-runs=0"},
           {"campaign", "--apps=lulesh", "--probe-runs=3"},
           {"campaign", "--apps=lulesh", "--noise-sigma=0.1"},
       }) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.code, 2) << r.err;
    EXPECT_FALSE(r.err.empty());
  }
}

// ---------------------------------------------------------------------------
// The batch subcommand: JSONL requests in, JSONL results out, input order,
// byte-deterministic whatever --threads.
// ---------------------------------------------------------------------------

/// A self-deleting JSONL request file under the test's temp directory.
struct JsonlFile {
  std::string path;
  explicit JsonlFile(const std::string& contents) {
    path = testing::TempDir() + "llamp_batch_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter()++) + ".jsonl";
    std::ofstream f(path);
    f << contents;
  }
  ~JsonlFile() { std::remove(path.c_str()); }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

const char* kMixedBatch =
    "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": 0.02}, "
    "\"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
    "{\"op\": \"analyze\", \"app\": {\"name\": \"hpcg\", \"scale\": 0.02}, "
    "\"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
    "{\"op\": \"mc\", \"app\": {\"name\": \"lulesh\", \"scale\": 0.02}, "
    "\"grid\": {\"dl_max_us\": 20, \"points\": 3}, \"samples\": 4, "
    "\"sigma_L\": 0.05, \"seed\": 7}\n"
    "{\"op\": \"campaign\", \"apps\": [\"lulesh\", \"hpcg\"], \"scales\": "
    "[0.02], \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
    "{\"op\": \"topo\", \"app\": {\"name\": \"icon\", \"scale\": 0.02}}\n"
    "{\"op\": \"place\", \"app\": {\"name\": \"icon\", \"scale\": 0.02}}\n";

TEST(CliBatch, ExecutesJsonlAndIsThreadCountInvariant) {
  const JsonlFile file(kMixedBatch);
  auto run_with = [&](const char* threads) {
    return run_cli({"batch", "--file", file.path.c_str(), threads});
  };
  const auto serial = run_with("--threads=1");
  const auto parallel = run_with("--threads=8");
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_EQ(parallel.code, 0) << parallel.err;
  EXPECT_FALSE(serial.out.empty());
  EXPECT_EQ(serial.out, parallel.out);
  // One result line per request, ids in input order.
  EXPECT_EQ(std::count(serial.out.begin(), serial.out.end(), '\n'), 6);
  EXPECT_TRUE(contains(serial.out, "{\"id\": 0, \"op\": \"sweep\""));
  EXPECT_TRUE(contains(serial.out, "{\"id\": 5, \"op\": \"place\""));
}

TEST(CliBatch, FailedLinesAreInBandAndExitCodeFlagsThem) {
  const JsonlFile file(
      "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": "
      "0.02}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
      "{\"op\": \"sweep\", \"grid\": {\"points\": 1}}\n");
  const auto r = run_cli({"batch", "--file", file.path.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.out, "\"result\""));
  EXPECT_TRUE(contains(r.out, "\"error\""));
  EXPECT_TRUE(contains(r.out, "need --points >= 2"));
}

TEST(CliBatch, UsageErrors) {
  const auto missing = run_cli({"batch", "--file=/no/such/file.jsonl"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_TRUE(contains(missing.err, "cannot open"));

  const JsonlFile file("");
  const auto stray = run_cli({"batch", "--file", file.path.c_str(),
                              "--format=json"});
  EXPECT_EQ(stray.code, 2);  // batch output is always JSONL; no --format

  const auto empty = run_cli({"batch", "--file", file.path.c_str()});
  EXPECT_EQ(empty.code, 0);
  EXPECT_TRUE(empty.out.empty());
}

TEST(CliSmoke, AnalysisErrorsReportAndFail) {
  const auto bad_app = run_cli({"analyze", "--app=not-an-app", "--ranks=8"});
  EXPECT_EQ(bad_app.code, 1);
  EXPECT_TRUE(contains(bad_app.err, "llamp analyze:"));
}

}  // namespace
}  // namespace llamp
