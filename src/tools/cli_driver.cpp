#include "tools/cli_driver.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "apps/registry.hpp"
#include "core/report.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::tools {
namespace {

constexpr const char* kUsage = R"(llamp — LP-based MPI latency-tolerance analysis (conf_sc_ShenHCSDGWH24)

usage: llamp <subcommand> [options]

subcommands:
  analyze   full tolerance report: runtime forecast curve, lambda_L / rho_L,
            tolerance bands, critical latencies, lambda_G
  sweep     evaluate runtime / lambda_L / rho_L over a grid of latency
            injections ΔL (LP solves run in parallel)
  campaign  batch engine for multi-scenario studies: expand
            {apps} x {ranks} x {scales} x {topologies} x {LogGPS variants}
            x ΔL grid into analysis jobs, run them in parallel (one
            graph build and one solver per scenario), emit the whole grid
  mc        Monte Carlo uncertainty quantification: resample the LogGPS
            operating point (and optionally per-edge cost noise) N times,
            stream the perturbed LP analyses into distributional summaries
            (runtime quantiles per ΔL, lambda_L spread, tolerance bands
            with confidence intervals)
  batch     serve a JSONL request stream on one engine session: one request
            object per input line ({"op": "analyze", ...} mirroring the
            subcommand flags; see DESIGN.md §4d), one result object per
            line on stdout, in input order whatever --threads; graphs are
            cached across the whole batch
  topo      per-wire latency sensitivity on Fat Tree vs Dragonfly, plus the
            Dragonfly per-wire-class tolerance breakdown
  place     compare block, volume-greedy, and LLAMP Algorithm-3 rank
            placements on a Fat Tree
  stats     print one engine session's metrics summary — request counters,
            cache statistics, latency quantiles; optionally
            execute a JSONL request file first so the summary describes a
            real workload
  serve     run the analysis engine as an HTTP/1.1 daemon on loopback:
            POST /v1/{analyze,sweep,campaign,mc,topo,place} take the batch
            request JSON ("op" optional — the path names it) and return
            the batch result line; GET /healthz and GET /metrics answer
            even mid-campaign; SIGTERM/SIGINT drain in-flight requests and
            exit 0
  apps      list the registered proxy applications

`llamp`, `llamp help`, and `llamp <subcommand> --help` print this text and
exit 0; `llamp --version` prints the version.  In --format=json modes,
errors are additionally emitted on stdout as {"error": {...}} objects
(exit codes unchanged: 1 analysis error, 2 usage error).

common options (analyze/sweep/mc/topo/place; campaign has its own axes below):
  --app=NAME        proxy application (default lulesh; see `llamp apps`)
  --ranks=N         requested rank count, clamped to the nearest supported
                    value at or below N (default 8)
  --scale=S         iteration-count multiplier for the proxy (default 0.25)
  --net=cscs|daint  network preset: CSCS testbed or Piz Daint (default cscs)
  --L=NS --o=NS --G=NS_PER_BYTE --S=BYTES
                    override individual LogGPS parameters (ns / bytes);
                    by default o comes from the paper's Table II per-app fit

analyze/sweep/mc/campaign options:
  --dl-max-us=X     sweep ceiling ΔL_max in microseconds (default 100, > 0)
  --points=N        grid points in [0, ΔL_max] (default 11, >= 2)
  --threads=N       parallelism, <= 0 = hardware concurrency (default 0)
  --format=F        table (default), csv, or json
  --csv             (sweep) shorthand for --format=csv

batch options:
  --file=PATH       JSONL request file; '-' reads stdin (default -)
  --threads=N       request-level parallelism, <= 0 = hardware concurrency
  --metrics         print the session metrics summary to stderr after the
                    response stream (stdout stays pure JSONL)

observability options (every engine subcommand):
  --trace-out=PATH  record request tracing spans and write them as Chrome
                    trace-event JSON on exit (chrome://tracing / Perfetto)

serve options:
  --port=N          listen port on 127.0.0.1 (default 8080; 0 = ephemeral,
                    the bound port is printed on the listen line)
  --max-inflight=N  queued analysis requests admitted at once; the next
                    request gets 503 + Retry-After (default 64)

stats options:
  --file=PATH       JSONL request file to execute first; '-' reads stdin
                    (default: none — report the empty session)
  --threads=N       request-level parallelism for --file
  --format=F        table (default) or json (the machine snapshot; the
                    payload a /metrics endpoint would serve)

mc options (all stochastic paths share --seed; identical seeds reproduce
identical bytes whatever --threads):
  --samples=N       Monte Carlo sample count (default 256, >= 1)
  --seed=S          RNG seed (default 42)
  --sigma-L=R --sigma-o=R --sigma-G=R
                    relative stddev of normal jitter around the base value
                    (default 0 = pinned to the deterministic operating point)
  --dist-L=D --dist-o=D --dist-G=D
                    full distribution specs overriding the sigmas: base,
                    const:V, normal:MEAN,SD, relnormal:SIGMA, uniform:LO,HI
  --edge-sigma=R --edge-bias=R
                    per-edge multiplicative cost noise, the cluster
                    emulator's convention: factor = 1 + bias + |N(0, sigma)|
  --bands=P,...     tolerance band percents (default 1,2,5)

campaign stochastic options (shared --seed; see mc above):
  --mc-samples=N    per-scenario Monte Carlo samples (default 0 = off);
                    adds distributional runtime columns per grid point
  --mc-sigma-L=R --mc-sigma-o=R --mc-sigma-G=R --mc-edge-sigma=R
  --mc-edge-bias=R  jitter knobs of the mc axis (relative, as in mc)
  --probe=emulator  attach the seeded cluster emulator as a per-point
                    measurement column (--probe-runs averaged runs per
                    point, default 5; --noise-sigma run-to-run noise,
                    default 0.003)

campaign options (comma-separated grid axes; scenarios = cross product):
  --apps=A,B,...    proxy applications (default lulesh)
  --ranks=N,M,...   rank counts, each clamped per app (default 8)
  --scales=S,...    iteration-count multipliers (default 0.25)
  --topos=T,...     none, fat-tree, dragonfly (default none); with a
                    physical topology ΔL injects on the per-wire latency
  --nets=P,...      LogGPS presets: cscs, daint (default cscs)
  --L-list=NS,...   --o-list=NS,...  --G-list=NS_PER_BYTE,...
                    LogGPS override axes crossed with --nets; --S applies
                    to every variant; topology shape via the topo options

topo/place options:
  --l-wire=NS --d-switch=NS   per-wire / per-switch latency (default 274/108)
  --ft-radix=K                Fat Tree switch radix (default 8 -> 128 nodes)
  --df-groups=G --df-routers=A --df-hosts=P
                              Dragonfly shape (default 8x4x8 -> 256 nodes)
  --max-rounds=N              (place) Algorithm-3 round cap (default 64)
)";

/// The output-format option block: --format, or the --csv shorthand where
/// the subcommand accepts it (unaccepted flags never get this far).
core::OutputFormat output_format(const Cli& cli) {
  if (cli.has("format")) {
    return core::parse_output_format(cli.get("format", "table"));
  }
  if (cli.get_bool("csv", false)) return core::OutputFormat::kCsv;
  return core::OutputFormat::kTable;
}

/// CLI-only flags — output shape, tracing, batch/daemon plumbing — on top of
/// an op subcommand's request fields.  Ops are indexed like api::kOpNames.
constexpr std::string_view kOpSurface[] = {
    "format trace-out",      // analyze
    "format csv trace-out",  // sweep (--csv: the historical shorthand)
    "format trace-out",      // campaign
    "format trace-out",      // mc
    "trace-out",             // topo
    "trace-out",             // place
};
static_assert(std::size(kOpSurface) == api::kOpNames.size());
constexpr std::pair<std::string_view, std::string_view> kToolSurface[] = {
    {"batch", "file threads metrics trace-out"},
    {"stats", "file threads format trace-out"},
    {"serve", "port max-inflight trace-out"},
    {"apps", ""},
};

// ---------------------------------------------------------------------------
// Subcommands.  The op subcommands share one adapter: the api schema turns
// the flags into a typed request, the engine executes it, the typed result
// renders itself.  All analysis logic lives behind api::Engine.
// ---------------------------------------------------------------------------

int cmd_op(std::size_t op, const Cli& cli, api::Engine& engine,
           std::ostream& out) {
  const api::Response res = engine.run(api::request_from_flags(op, cli));
  api::render(res, output_format(cli), out);
  return 0;
}

int cmd_apps(std::ostream& out) {
  for (const auto& name : apps::app_names()) out << name << '\n';
  return 0;
}

/// Serve the --file JSONL requests ('-' = stdin) on the session.
api::BatchOutcome serve_file(const Cli& cli, const std::string& sub,
                             api::Engine& engine, std::ostream& out) {
  const std::string file = cli.get("file", "-");
  const int threads = cli.get_int32("threads", 0);
  if (file == "-") return api::serve_jsonl(engine, std::cin, out, threads);
  std::ifstream in(file);
  if (!in) throw UsageError(sub + ": cannot open '" + file + "'");
  return api::serve_jsonl(engine, in, out, threads);
}

int cmd_batch(const Cli& cli, api::Engine& engine, std::ostream& out,
              std::ostream& err) {
  const api::BatchOutcome outcome = serve_file(cli, "batch", engine, out);
  // The metrics summary goes to stderr: stdout is the JSONL response
  // stream and must stay machine-parseable line by line.
  if (cli.get_bool("metrics", false)) err << engine.metrics_string();
  // Per-request failures are reported in-band as {"error": ...} lines;
  // the process exit code still flags that the batch was not fully clean.
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_stats(const Cli& cli, api::Engine& engine, std::ostream& out) {
  // Optionally replay a JSONL request file through the session first; the
  // responses are discarded (this subcommand reports the instrumentation,
  // `llamp batch` serves the responses).
  if (cli.has("file")) {
    std::ostringstream discard;
    serve_file(cli, "stats", engine, discard);
  }
  const core::OutputFormat format = output_format(cli);
  if (format == core::OutputFormat::kCsv) {
    throw UsageError("stats: csv output is not supported");
  }
  if (format == core::OutputFormat::kJson) {
    out << engine.metrics_json() << '\n';
  } else {
    out << engine.metrics_string();
  }
  return 0;
}

/// The daemon draining on SIGTERM/SIGINT: the handler may only touch
/// async-signal-safe state, and Server::request_shutdown() is exactly that
/// (an atomic store plus one write(2) to the loop's wakeup pipe).
std::atomic<serve::Server*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int /*signo*/) {
  if (serve::Server* s = g_serve_server.load(std::memory_order_acquire)) {
    s->request_shutdown();
  }
}

int cmd_serve(const Cli& cli, api::Engine& engine, std::ostream& out) {
  serve::Server::Options opts;
  const long long port = cli.get_int("port", 8080);
  if (port < 0 || port > 65535) {
    throw UsageError(strformat("need --port in [0, 65535] (got %lld)", port));
  }
  opts.port = static_cast<std::uint16_t>(port);
  opts.max_inflight = cli.get_int32("max-inflight", opts.max_inflight);
  if (opts.max_inflight < 1) {
    throw UsageError(
        strformat("need --max-inflight >= 1 (got %d)", opts.max_inflight));
  }

  serve::Server server(opts, serve::engine_routes(engine));
  server.start();

  // Handlers are installed only while this server exists; the previous
  // dispositions come back before the stats line prints.
  g_serve_server.store(&server, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term {};
  struct sigaction old_int {};
  sigaction(SIGTERM, &action, &old_term);
  sigaction(SIGINT, &action, &old_int);

  // The listen line is the daemon's readiness signal (CI and the bench
  // wait for it), and with --port=0 it is how the caller learns the port.
  out << "llamp serve: listening on 127.0.0.1:" << server.port() << "\n";
  out.flush();

  server.join();

  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGINT, &old_int, nullptr);
  g_serve_server.store(nullptr, std::memory_order_release);

  const serve::Server::Stats st = server.stats();
  out << strformat(
      "llamp serve: drained (connections %llu, requests %llu, "
      "responses %llu, rejected %llu, protocol_errors %llu)\n",
      static_cast<unsigned long long>(st.connections),
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.responses),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.protocol_errors));
  return 0;
}

/// Boolean flags: these never take a following value, so a token after them
/// must not be folded — it is a stray positional the validation below should
/// reject, not the flag's value.
constexpr std::string_view kBoolKeys[] = {"csv", "metrics"};

/// The subcommands take no positional arguments, so both `--key=value` and
/// `--key value` are accepted: a bare non-boolean `--key` followed by a
/// non-flag token is folded into the `=` form the shared Cli parser
/// understands.
std::vector<std::string> normalize_args(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--") && arg.find('=') == std::string::npos &&
        i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      const std::string_view key = std::string_view(arg).substr(2);
      if (std::find(std::begin(kBoolKeys), std::end(kBoolKeys), key) ==
          std::end(kBoolKeys)) {
        arg += '=';
        arg += argv[++i];
      }
    }
    args.push_back(std::move(arg));
  }
  return args;
}

/// Reject misspelled options and stray positionals: a typo'd flag must be a
/// usage error, not a silent fall-back to the default value.  Returns an
/// empty string when every token is a known `--key[=value]`.
std::string first_bad_arg(const std::vector<std::string>& known,
                          const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (!starts_with(arg, "--")) return arg;  // stray positional
    const auto eq = arg.find('=');
    const std::string_view key =
        std::string_view(arg).substr(2, eq == std::string::npos ? arg.npos
                                                                : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) return arg;
  }
  return {};
}

/// Whether this invocation asked for JSON output (best effort, for the
/// structured-error satellite: the flag may itself be malformed, in which
/// case errors stay text-only).
bool wants_json(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--format=json") return true;
  }
  return false;
}

/// Report an error on stderr and, in JSON mode, as a structured object on
/// stdout, so `--format=json` consumers never have to scrape stderr.
int report_error(const std::string& sub, const std::string& message,
                 bool usage, bool json, std::ostream& out,
                 std::ostream& err) {
  err << "llamp " << sub << ": " << message << '\n';
  if (json) {
    out << strformat(
        "{\"error\": {\"subcommand\": \"%s\", \"kind\": \"%s\", "
        "\"message\": \"%s\"}}\n",
        json_escape_string(sub).c_str(), usage ? "usage" : "analysis",
        json_escape_string(message).c_str());
  }
  return usage ? 2 : 1;
}

}  // namespace

std::optional<std::vector<std::string>> subcommand_flags(
    std::string_view sub) {
  std::vector<std::string> flags;
  std::string_view surface;
  if (const auto op = api::op_index(sub)) {
    for (const api::FieldInfo& f : api::request_fields(*op)) {
      flags.emplace_back(f.flag);
    }
    surface = kOpSurface[*op];
  } else {
    const auto* tool = std::find_if(
        std::begin(kToolSurface), std::end(kToolSurface),
        [&](const auto& t) { return t.first == sub; });
    if (tool == std::end(kToolSurface)) return std::nullopt;
    surface = tool->second;
  }
  for (std::string& flag : split_ws(surface)) flags.push_back(std::move(flag));
  return flags;
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    // A bare `llamp` is a question, not a mistake: print usage, exit 0.
    out << kUsage;
    return 0;
  }
  const std::string sub = argv[1];
  if (sub == "help" || sub == "--help" || sub == "-h") {
    out << kUsage;
    return 0;
  }
  if (sub == "--version" || sub == "version") {
    out << version_line() << '\n';
    return 0;
  }
  const std::optional<std::vector<std::string>> known = subcommand_flags(sub);
  if (!known) {
    err << "llamp: unknown subcommand '" << sub << "'\n\n" << kUsage;
    return 2;
  }
  // `llamp <sub> --help` before any validation: asking for help must work
  // even alongside flags the subcommand would reject.
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return 0;
    }
  }
  const std::vector<std::string> args = normalize_args(argc, argv);
  const bool json = wants_json(args);
  if (const std::string bad = first_bad_arg(*known, args); !bad.empty()) {
    return report_error(
        sub, "unrecognized argument '" + bad + "' (see `llamp help`)",
        /*usage=*/true, json, out, err);
  }
  std::vector<const char*> cargs;
  cargs.push_back("llamp");
  for (const auto& a : args) cargs.push_back(a.c_str());
  const Cli cli(static_cast<int>(cargs.size()), cargs.data());
  try {
    // One engine session per invocation: every subcommand dispatches
    // through it, sharing the graph and solver caches.  Parallelism is
    // per request (its `threads` field) or per batch (--threads).
    api::Engine engine;
    const std::optional<std::size_t> op = api::op_index(sub);
    // --trace-out: the file opens before any work runs (a bad path must
    // fail fast, not after a long campaign), recording is enabled for the
    // whole dispatch, and the trace is written after it completes —
    // including batch runs with in-band failures (rc 1).
    std::ofstream trace_file;
    if (cli.has("trace-out")) {
      const std::string trace_path = cli.get("trace-out", "");
      if (trace_path.empty()) throw UsageError("empty --trace-out path");
      trace_file.open(trace_path);
      if (!trace_file) {
        throw UsageError("cannot open --trace-out '" + trace_path + "'");
      }
      engine.tracer().enable();
    }
    int rc = 0;
    if (op) {
      rc = cmd_op(*op, cli, engine, out);
    } else if (sub == "batch") {
      rc = cmd_batch(cli, engine, out, err);
    } else if (sub == "stats") {
      rc = cmd_stats(cli, engine, out);
    } else if (sub == "serve") {
      rc = cmd_serve(cli, engine, out);
    } else {
      rc = cmd_apps(out);
    }
    if (trace_file.is_open()) trace_file << engine.trace_json() << '\n';
    return rc;
  } catch (const UsageError& e) {
    return report_error(sub, e.what(), /*usage=*/true, json, out, err);
  } catch (const Error& e) {
    return report_error(sub, e.what(), /*usage=*/false, json, out, err);
  }
}

}  // namespace llamp::tools
