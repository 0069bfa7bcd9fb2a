// llamp_perfbench: the repository benchmark (README.md in this directory).
//
//   llamp_perfbench --workload <serve-warm-mix|cold-distinct|mc-uq>
//                   --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   llamp_perfbench --validate [--shard i/n]   (cold-distinct class sweep)
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics.  Every response
// is byte-checked against a fresh-engine reference.  The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
// every request succeeded with the reference bytes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = llamp::api;
namespace serve = llamp::serve;
using llamp::strformat;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/results";
  bool validate = false;
  int shard = 0;
  int shards = 1;
};

/// One measured request.
struct Record {
  std::size_t item = 0;
  double ms = 0.0;
  bool ok = false;
  std::uint64_t hash = 0;  ///< FNV-1a of the response line (no newline)
};

/// One closed-loop measurement phase.
struct Phase {
  std::vector<Record> recs;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  std::vector<double> ms() const {
    std::vector<double> v;
    for (const Record& r : recs) v.push_back(r.ms);
    return v;
  }
};

struct CacheTally {
  std::size_t graph_built = 0, graph_hits = 0, graph_bytes = 0;
  std::size_t solver_built = 0, solver_hits = 0, anchor_solves = 0, replays = 0,
              anchor_bytes = 0;
  std::uint64_t lane_slots = 0, lane_samples = 0;
};

std::uint64_t counter(const llamp::JsonValue& snap, const char* name) {
  const llamp::JsonValue* c = snap.find("counters")->find(name);
  return c != nullptr ? c->as_unsigned(name) : 0;
}

/// Cumulative cache and lane tallies of one engine session.
CacheTally tally(const api::Engine& e) {
  CacheTally t;
  const auto gc = e.cache_stats();
  const auto sc = e.solver_cache_stats();
  t.graph_built = gc.built;
  t.graph_hits = gc.hits;
  t.graph_bytes = gc.bytes;
  t.solver_built = sc.built;
  t.solver_hits = sc.hits;
  t.anchor_solves = sc.anchor_solves;
  t.replays = sc.replays;
  t.anchor_bytes = sc.anchor_bytes;
  const llamp::JsonValue snap = llamp::JsonValue::parse(e.metrics_json());
  t.lane_slots = counter(snap, "mc.lane_slots");
  t.lane_samples = counter(snap, "mc.lane_samples");
  return t;
}

/// Counters: after - before, summed into `acc`; byte gauges: max.
void accumulate(CacheTally& acc, const CacheTally& before, const CacheTally& after) {
  acc.graph_built += after.graph_built - before.graph_built;
  acc.graph_hits += after.graph_hits - before.graph_hits;
  acc.solver_built += after.solver_built - before.solver_built;
  acc.solver_hits += after.solver_hits - before.solver_hits;
  acc.anchor_solves += after.anchor_solves - before.anchor_solves;
  acc.replays += after.replays - before.replays;
  acc.lane_slots += after.lane_slots - before.lane_slots;
  acc.lane_samples += after.lane_samples - before.lane_samples;
  acc.graph_bytes = std::max(acc.graph_bytes, after.graph_bytes);
  acc.anchor_bytes = std::max(acc.anchor_bytes, after.anchor_bytes);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The in-process request path (what `llamp batch` does per line): parse the
/// body, execute on the engine, emit the JSONL payload.
std::string run_line(api::Engine& engine, const std::string& body) {
  return api::to_json_line(engine.run(api::parse_request(body)));
}

// ---------------------------------------------------------------------------
// Sessions and setup.
// ---------------------------------------------------------------------------

/// An in-process `llamp serve`: one engine (pool of 1) behind the route
/// table on an ephemeral loopback port.
struct ServeSession {
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<serve::Server> server;
  ServeSession() = default;
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;
  ~ServeSession() {
    if (server) {
      server->request_shutdown();
      server->join();
    }
  }
};

std::unique_ptr<ServeSession> start_serve(const Stream& s) {
  auto sess = std::make_unique<ServeSession>();
  sess->engine = std::make_unique<api::Engine>(api::Engine::Options{.threads = 1});
  serve::Server::Options opts;
  opts.port = 0;
  sess->server = std::make_unique<serve::Server>(opts, serve::engine_routes(*sess->engine));
  sess->server->start();
  // Warm every distinct request of the stream over the wire, in body order
  // so the warm heap is laid out alike whatever the seed.
  std::vector<const Item*> distinct;
  for (const std::size_t i : s.first_of) distinct.push_back(&s.items[i]);
  std::sort(distinct.begin(), distinct.end(),
            [](const Item* x, const Item* y) { return x->body < y->body; });
  serve::Client client("127.0.0.1", sess->server->port());
  for (const Item* d : distinct) {
    const Item& it = *d;
    const auto res = client.post("/v1/" + it.op, it.body);
    if (res.status != 200) {
      throw llamp::Error(strformat("setup: %s -> %d %s", it.op.c_str(), res.status,
                                   res.body.c_str()));
    }
  }
  return sess;
}

/// mc-uq warm-up: build both graphs and the fast path's lowering with one
/// small request per (graph, path) — the measured stream then never builds.
void warm_mc(api::Engine& engine, const Stream& s) {
  std::map<std::string, bool> done;
  for (const Item& it : s.items) {
    const std::string k = it.graph + (it.mc_general ? "/general" : "/fast");
    if (done[k]) continue;
    done[k] = true;
    api::Request req = api::parse_request(it.body);
    std::get<api::McRequest>(req).samples = 16;
    (void)engine.run(req);
  }
}

/// Requests outside every stream (scales there start at 0.02): cold-distinct's
/// set-up starts an engine and runs these, faulting in code and allocator
/// state before the measured requests.
constexpr const char* kColdWarmup[] = {
    "{\"op\": \"analyze\", \"app\": {\"name\": \"lulesh\", \"ranks\": 64, "
    "\"scale\": 0.01}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}, \"threads\": 1}",
    "{\"op\": \"analyze\", \"app\": {\"name\": \"hpcg\", \"ranks\": 64, "
    "\"scale\": 0.01}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}, \"threads\": 1}",
    "{\"op\": \"sweep\", \"app\": {\"name\": \"icon\", \"ranks\": 64, "
    "\"scale\": 0.01}, \"grid\": {\"dl_max_us\": 20, \"points\": 5}, \"threads\": 1}",
};

// ---------------------------------------------------------------------------
// Measurement loops (closed loop: each client sends its next request only
// after the previous response arrived).
// ---------------------------------------------------------------------------

/// `clients` keep-alive connections to `port`, each pulling the next stream
/// index from a shared counter (wrapping), until `seconds` pass.
Phase run_wire(const Stream& s, std::uint16_t port, std::size_t& cursor,
               double seconds, int clients) {
  Phase ph;
  std::atomic<std::size_t> next{cursor};
  std::vector<std::vector<Record>> per(static_cast<std::size_t>(clients));
  const double cpu0 = cpu_seconds();
  const double t0 = now_ms();
  const double deadline = t0 + 1e3 * seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Record>& out = per[static_cast<std::size_t>(c)];
        try {
          serve::Client client("127.0.0.1", port);
          while (now_ms() < deadline) {
            Record r;
            r.item = next.fetch_add(1) % s.items.size();
            const Item& it = s.items[r.item];
            const double r0 = now_ms();
            const auto res = client.post("/v1/" + it.op, it.body);
            r.ms = now_ms() - r0;
            r.ok = res.status == 200 && !res.body.empty() && res.body.back() == '\n';
            if (r.ok) r.hash = fnv1a(std::string_view(res.body).substr(0, res.body.size() - 1));
            out.push_back(r);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: client %d: %s\n", c, e.what());
          out.push_back(Record{});  // counts as one failed request
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ph.wall_ms = now_ms() - t0;
  ph.cpu_s = cpu_seconds() - cpu0;
  cursor = next.load();
  for (auto& v : per) ph.recs.insert(ph.recs.end(), v.begin(), v.end());
  return ph;
}

/// Whether an in-process loop ends before item `cursor`: warm loops stop at
/// the deadline; cold-distinct finishes the session block (one round of
/// every class) it is in, so every run measures whole rounds.
bool stop(const Stream& s, bool warm, std::size_t cursor, double deadline_ms) {
  if (warm) return now_ms() >= deadline_ms;
  if (cursor >= s.items.size()) return true;
  return cursor % s.session_block == 0 && now_ms() >= deadline_ms;
}

/// Closed loop over the stream on in-process engines.  With `shared` set
/// every request runs on it (warm workloads, wrapping the stream); else a
/// fresh engine serves each block of s.session_block items (cold-distinct,
/// stopping at the end of the stream).
Phase run_engine(const Stream& s, api::Engine* shared, std::size_t& cursor,
                 double seconds, CacheTally* caches) {
  Phase ph;
  const double cpu0 = cpu_seconds();
  const double t0 = now_ms();
  const double deadline = t0 + 1e3 * seconds;
  std::unique_ptr<api::Engine> session;
  CacheTally before;
  api::Engine* engine = shared;
  if (shared != nullptr && caches != nullptr) before = tally(*shared);
  const auto close_session = [&] {
    if (session && caches != nullptr) accumulate(*caches, CacheTally{}, tally(*session));
    session.reset();
  };
  while (!stop(s, shared != nullptr, cursor, deadline)) {
    if (shared == nullptr) {
      if (cursor % s.session_block == 0 || !session) {
        close_session();
        session = std::make_unique<api::Engine>(api::Engine::Options{.threads = 1});
      }
      engine = session.get();
    }
    Record r;
    r.item = shared != nullptr ? cursor % s.items.size() : cursor;
    ++cursor;
    const double r0 = now_ms();
    try {
      const std::string line = run_line(*engine, s.items[r.item].body);
      r.ms = now_ms() - r0;
      r.ok = true;
      r.hash = fnv1a(line);
    } catch (const std::exception& e) {
      r.ms = now_ms() - r0;
      std::fprintf(stderr, "perfbench: item %zu: %s\n", r.item, e.what());
    }
    ph.recs.push_back(r);
  }
  ph.wall_ms = now_ms() - t0;
  ph.cpu_s = cpu_seconds() - cpu0;
  if (shared != nullptr && caches != nullptr) accumulate(*caches, before, tally(*shared));
  close_session();
  return ph;
}

/// The layer walk: like run_engine, but through LayerWalker (a fresh
/// walker per block for cold-distinct, one warmed walker otherwise).
/// `limit` > 0 walks exactly that many items instead of stopping by time.
Phase run_walker(const Stream& s, LayerWalker* shared, llamp::obs::Tracer& tracer,
                 bool wire, std::size_t& cursor, double seconds, std::size_t limit,
                 std::vector<std::unique_ptr<LayerWalker>>& cold_walkers) {
  Phase ph;
  const double t0 = now_ms();
  const double deadline = t0 + 1e3 * seconds;
  LayerWalker* walker = shared;
  bool first = true;
  while (limit != 0 ? ph.recs.size() < limit
                    : !stop(s, shared != nullptr, cursor, deadline)) {
    if (shared == nullptr) {
      // Each phase starts its own walker, so probe bookkeeping never spans
      // a traced and an untraced phase.
      if (cursor % s.session_block == 0 || first) {
        cold_walkers.push_back(std::make_unique<LayerWalker>(tracer, wire));
      }
      first = false;
      walker = cold_walkers.back().get();
    }
    Record r;
    r.item = shared != nullptr ? cursor % s.items.size() : cursor;
    ++cursor;
    const double r0 = now_ms();
    try {
      const std::string line = walker->run(s.items[r.item]);
      r.ms = now_ms() - r0;
      r.ok = true;
      r.hash = fnv1a(line);
      walker->probe();
    } catch (const std::exception& e) {
      r.ms = now_ms() - r0;
      std::fprintf(stderr, "perfbench: walk item %zu: %s\n", r.item, e.what());
    }
    ph.recs.push_back(r);
  }
  ph.wall_ms = now_ms() - t0;
  return ph;
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Reference response hash per item index, from fresh engines: the warm
/// workloads run every distinct body once on one fresh engine in reverse
/// stream order (mc forced to 1 thread); cold-distinct replays each session
/// block of the consumed prefix on its own fresh engine, in reverse.
std::map<std::size_t, std::uint64_t> references(const Stream& s, std::size_t consumed) {
  std::map<std::size_t, std::uint64_t> ref;  // distinct index -> hash
  if (s.session_block == 0) {
    api::Engine engine(api::Engine::Options{.threads = 1});
    for (std::size_t d = s.first_of.size(); d-- > 0;) {
      api::Request req = api::parse_request(s.items[s.first_of[d]].body);
      if (auto* m = std::get_if<api::McRequest>(&req)) m->threads = 1;
      ref[d] = fnv1a(api::to_json_line(engine.run(req)));
    }
    return ref;
  }
  const std::size_t n = std::min(consumed, s.items.size());
  for (std::size_t b = 0; b < n; b += s.session_block) {
    api::Engine engine(api::Engine::Options{.threads = 1});
    for (std::size_t i = std::min(n, b + s.session_block); i-- > b;) {
      ref[s.items[i].distinct] = fnv1a(run_line(engine, s.items[i].body));
    }
  }
  return ref;
}

/// Failed records: errors plus byte mismatches against the reference.
std::size_t check(const Stream& s, const std::vector<Record>& recs,
                  const std::map<std::size_t, std::uint64_t>& ref, const char* phase) {
  std::size_t failed = 0;
  for (const Record& r : recs) {
    bool good = r.ok;
    if (good) {
      const auto it = ref.find(s.items[r.item].distinct);
      good = it != ref.end() && it->second == r.hash;
      if (!good) {
        std::fprintf(stderr, "perfbench: %s: item %zu (%s) bytes differ from reference\n",
                     phase, r.item, s.items[r.item].op.c_str());
      }
    }
    if (!good) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                     ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  return out + "}";
}

const std::vector<std::string> kOps = {"analyze", "sweep", "mc", "topo", "place", "campaign"};

std::vector<double> op_ms(const Stream& s, const Phase& ph, const std::string& op) {
  std::vector<double> v;
  for (const Record& r : ph.recs) {
    if (r.ok && s.items[r.item].op == op) v.push_back(r.ms);
  }
  return v;
}

void print_env(const Args& a, const Stream& s, int threads) {
  const Env env = environment();
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", s.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  std::printf("# env: cpu=\"%s\" nproc=%d threads=%d %s compiler=\"%s\" build=%s\n",
              env.cpu_model.c_str(), env.nproc, threads, env.version.c_str(),
              env.compiler.c_str(), env.build_type.c_str());
  std::printf("# stream: digest=%s items=%zu distinct=%zu repeat_frac=%.4f "
              "graph_keys=%zu large_share=%.4f\n",
              hex64(s.digest).c_str(), s.items.size(), s.first_of.size(),
              s.repeat_frac, s.graph_keys, s.large_share);
}

/// Threads the workload runs at most: serve = 2 clients + IO + executor.
int workload_threads(const std::string& w) {
  if (w == "serve-warm-mix") return 4;
  if (w == "mc-uq") return 2;
  return 1;
}

struct RunResult {
  std::vector<Metric> metrics;   ///< the contract metrics of this mode
  std::vector<Metric> extra;     ///< reported, not gated
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void write_result_file(const Args& a, const Stream& s, const RunResult& r) {
  std::filesystem::create_directories(a.out_dir);
  const Env env = environment();
  const std::string path = strformat("%s/%s-seed%llu-trace%d.json", a.out_dir.c_str(),
                                     s.workload.c_str(),
                                     static_cast<unsigned long long>(a.seed), a.trace);
  std::ofstream os(path);
  std::vector<Metric> all = r.metrics;
  all.insert(all.end(), r.extra.begin(), r.extra.end());
  os << strformat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d,\n"
      " \"env\": {\"cpu\": \"%s\", \"nproc\": %d, \"threads\": %d, \"version\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n"
      " \"stream\": {\"digest\": \"%s\", \"items\": %zu, \"distinct\": %zu, "
      "\"repeat_frac\": %.6f, \"graph_keys\": %zu, \"large_share\": %.6f},\n"
      " \"attempted\": %zu, \"failed\": %zu,\n \"metrics\": %s}\n",
      s.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
      llamp::json_escape_string(env.cpu_model).c_str(), env.nproc,
      workload_threads(s.workload), env.version.c_str(),
      llamp::json_escape_string(env.compiler).c_str(), env.build_type.c_str(),
      hex64(s.digest).c_str(), s.items.size(), s.first_of.size(), s.repeat_frac,
      s.graph_keys, s.large_share, r.attempted, r.failed, metrics_json(all).c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

RunResult run_e2e(const Args& a, const Stream& s) {
  RunResult out;
  std::vector<double> setups;
  Phase ph;
  std::size_t cursor = 0;
  std::map<std::size_t, std::uint64_t> ref;
  double rss = 0.0;
  if (s.workload == "serve-warm-mix") {
    std::unique_ptr<ServeSession> sess;
    for (int k = 0; k < 5; ++k) {
      sess.reset();
      const double t0 = now_ms();
      sess = start_serve(s);
      setups.push_back((now_ms() - t0) / 1e3);
    }
    ph = run_wire(s, sess->server->port(), cursor, a.seconds, 2);
    rss = peak_rss_mb();
  } else if (s.workload == "mc-uq") {
    std::unique_ptr<api::Engine> engine;
    for (int k = 0; k < 5; ++k) {
      engine.reset();
      const double t0 = now_ms();
      engine = std::make_unique<api::Engine>(api::Engine::Options{.threads = 1});
      warm_mc(*engine, s);
      setups.push_back((now_ms() - t0) / 1e3);
    }
    ph = run_engine(s, engine.get(), cursor, a.seconds, nullptr);
    rss = peak_rss_mb();
  } else {
    for (int k = 0; k < 9; ++k) {
      const double t0 = now_ms();
      api::Engine engine(api::Engine::Options{.threads = 1});
      for (const char* body : kColdWarmup) (void)run_line(engine, body);
      setups.push_back((now_ms() - t0) / 1e3);
    }
    ph = run_engine(s, nullptr, cursor, a.seconds, nullptr);
    rss = peak_rss_mb();
  }
  ref = references(s, cursor);
  out.attempted = ph.recs.size();
  out.failed = check(s, ph.recs, ref, "e2e");

  const std::vector<double> lat = ph.ms();
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"req_p50_ms", quantile(lat, 0.50), "ms"},
      {"req_p90_ms", quantile(lat, 0.90), "ms"},
      {"req_per_s", 1e3 * static_cast<double>(ph.recs.size()) / ph.wall_ms, "1/s"},
      {"peak_rss_mb", rss, "MB"},
  };
  out.extra.push_back({"failed_frac", ratio(static_cast<double>(out.failed),
                                            static_cast<double>(out.attempted)), "frac"});
  out.extra.push_back({"requests", static_cast<double>(ph.recs.size()), "count"});
  // p99 only where at least ten requests lie beyond it.
  if (lat.size() >= 1000) out.extra.push_back({"req_p99_ms", quantile(lat, 0.99), "ms"});
  for (const std::string& op : kOps) {
    const auto v = op_ms(s, ph, op);
    if (!v.empty()) out.extra.push_back({op + "_p50_ms", median(v), "ms"});
  }
  double samples = 0.0;
  for (const Record& r : ph.recs) {
    if (r.ok) samples += s.items[r.item].samples;
  }
  if (samples > 0.0) out.extra.push_back({"mc_samples_per_s", 1e3 * samples / ph.wall_ms, "1/s"});
  return out;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.
// ---------------------------------------------------------------------------

double med_us(const TraceSummary& t, const char* name) {
  const auto it = t.dur_ms.find(name);
  return it == t.dur_ms.end() ? 0.0 : 1e3 * median(it->second);
}
double med_ms(const TraceSummary& t, const char* name) { return med_us(t, name) / 1e3; }

RunResult run_traced(const Args& a, const Stream& s) {
  RunResult out;
  const bool serve_wl = s.workload == "serve-warm-mix";
  const bool cold = s.session_block != 0;
  llamp::obs::Tracer tracer;
  std::unique_ptr<ServeSession> sess;
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<LayerWalker> walker;
  std::vector<std::unique_ptr<LayerWalker>> cold_walkers;
  std::string setup_trace = "{\"traceEvents\": []}";

  // Setup: the e2e path's session plus a warmed walker (its graph builds and
  // lowerings are traced under "setup" roots).
  if (serve_wl) {
    sess = start_serve(s);
  } else if (!cold) {
    engine = std::make_unique<api::Engine>(api::Engine::Options{.threads = 1});
    warm_mc(*engine, s);
  }
  std::vector<Record> setup_recs;
  if (!cold) {
    walker = std::make_unique<LayerWalker>(tracer, serve_wl);
    tracer.enable();
    for (const std::size_t i : s.first_of) {
      Record r;
      r.item = i;
      try {
        r.hash = fnv1a(walker->run(s.items[i], "setup"));
        r.ok = true;
        walker->probe();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: setup walk item %zu: %s\n", i, e.what());
      }
      setup_recs.push_back(r);
    }
    setup_trace = tracer.to_chrome_json();
    tracer.disable();
    tracer.clear();
  }

  // Phase A: the end-to-end path, untraced.  Phase B (serve only): the same
  // stream in-process on the daemon's engine.  C1/C2: the layer walk with the
  // tracer off, then on.
  const double T = a.seconds;
  std::size_t cursor = 0;
  CacheTally caches;
  Phase A, B;
  if (serve_wl) {
    const CacheTally before = tally(*sess->engine);
    A = run_wire(s, sess->server->port(), cursor, 0.3 * T, 2);
    B = run_engine(s, sess->engine.get(), cursor, 0.2 * T, nullptr);
    accumulate(caches, before, tally(*sess->engine));
  } else {
    A = run_engine(s, engine.get(), cursor, 0.4 * T, &caches);
  }
  const Phase& inproc = serve_wl ? B : A;
  // C2 walks exactly C1's items (on fresh walkers again for cold-distinct),
  // so the tracing overhead compares like with like.
  const std::size_t walk_start = cursor;
  Phase C1 = run_walker(s, walker.get(), tracer, serve_wl, cursor, (serve_wl ? 0.25 : 0.3) * T,
                        0, cold_walkers);
  const std::size_t walk_end = cursor;
  cursor = walk_start;
  const std::size_t graphs_mark = cold ? 0 : walker->request_graphs().size();
  const std::size_t walkers_mark = cold_walkers.size();
  tracer.enable();
  Phase C2 = run_walker(s, walker.get(), tracer, serve_wl, cursor, 0.0, C1.recs.size(),
                        cold_walkers);
  tracer.disable();
  cursor = walk_end;

  // Output checks over every phase.
  const auto ref = references(s, cursor);
  out.attempted = setup_recs.size() + A.recs.size() + B.recs.size() + C1.recs.size() +
                  C2.recs.size();
  out.failed = check(s, setup_recs, ref, "setup-walk") + check(s, A.recs, ref, "A") +
               check(s, B.recs, ref, "B") + check(s, C1.recs, ref, "C1") +
               check(s, C2.recs, ref, "C2");

  // Spans.
  std::string annotated_setup, annotated;
  const TraceSummary S = summarize_trace(setup_trace, annotated_setup);
  TraceSummary t = summarize_trace(tracer.to_chrome_json(), annotated);
  // Miss-path spans of the warm workloads happen during setup only.
  for (const auto& [name, v] : S.dur_ms) {
    if (t.dur_ms.find(name) == t.dur_ms.end()) t.dur_ms[name] = v;
  }
  {
    std::filesystem::create_directories(a.out_dir);
    std::ofstream os(strformat("%s/trace-%s-seed%llu.json", a.out_dir.c_str(),
                               s.workload.c_str(), static_cast<unsigned long long>(a.seed)));
    os << annotated;
    std::ofstream os2(strformat("%s/trace-%s-seed%llu-setup.json", a.out_dir.c_str(),
                                s.workload.c_str(), static_cast<unsigned long long>(a.seed)));
    os2 << annotated_setup;
  }

  // Graph sizes and probe pairings (walker order == span order).
  std::vector<std::pair<std::size_t, std::size_t>> req_graphs, probes;
  const auto collect = [&](const LayerWalker& w, std::size_t from) {
    const auto& rg = w.request_graphs();
    req_graphs.insert(req_graphs.end(), rg.begin() + static_cast<std::ptrdiff_t>(from), rg.end());
    probes.insert(probes.end(), w.probe_graphs().begin(), w.probe_graphs().end());
  };
  if (cold) {
    for (std::size_t i = walkers_mark; i < cold_walkers.size(); ++i) collect(*cold_walkers[i], 0);
  } else {
    collect(*walker, graphs_mark);
  }
  const auto mean_of = [](const std::vector<std::pair<std::size_t, std::size_t>>& v, bool first) {
    double sum = 0.0;
    for (const auto& p : v) sum += static_cast<double>(first ? p.first : p.second);
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::vector<double> vpm, epu, speedup;
  {
    const auto& sched = t.dur_ms["schedgen.build"];
    const auto& solves = t.dur_ms["lp.dense_solve"];
    for (std::size_t i = 0; i < probes.size() && i < sched.size(); ++i) {
      vpm.push_back(static_cast<double>(probes[i].first) / sched[i]);
    }
    for (std::size_t i = 0; i < probes.size() && 3 * i + 2 < solves.size(); ++i) {
      const double us = 1e3 * median({solves[3 * i], solves[3 * i + 1], solves[3 * i + 2]});
      epu.push_back(static_cast<double>(probes[i].second) / us);
    }
    const auto& t1 = t.dur_ms["stoch.run_mc.t1"];
    const auto& t2 = t.dur_ms["stoch.run_mc.t2"];
    for (std::size_t i = 0; i < t1.size() && i < t2.size(); ++i) speedup.push_back(t1[i] / t2[i]);
  }
  // Sample throughput per mc path, pairing C2's mc items with its
  // stoch.run_mc spans in order.
  double fast_samples = 0.0, fast_ms = 0.0, gen_samples = 0.0, gen_ms = 0.0;
  {
    const auto& runs = t.dur_ms["stoch.run_mc"];
    std::size_t k = 0;
    for (const Record& r : C2.recs) {
      const Item& it = s.items[r.item];
      if (it.op != "mc" || !r.ok || k >= runs.size()) continue;
      (it.mc_general ? gen_samples : fast_samples) += it.samples;
      (it.mc_general ? gen_ms : fast_ms) += runs[k++];
    }
  }

  // Breakdown: mean self time per request and layer.  The end-to-end mean is
  // the traced walk's request mean plus, on serve, the wire residual (client
  // mean − in-process mean); the part no layer span covers is unattributed.
  const double n_req = static_cast<double>(t.request_ms.size());
  const double wire_mean = serve_wl ? mean(A.ms()) - mean(B.ms()) : 0.0;
  const double e2e_mean = mean(t.request_ms) + wire_mean;
  double attributed = 0.0;
  for (const auto& [name, self] : t.self_ms) attributed += n_req > 0 ? self / n_req : 0.0;
  const double c1_p50 = median(C1.ms());
  const double c2_p50 = median(C2.ms());
  const double busy = ratio(A.cpu_s * 1e3, A.wall_ms * workload_threads(s.workload));

  std::vector<Metric>& m = out.metrics;
  m.push_back({"serve.http_parse_us", med_us(t, "serve.http_parse"), "us"});
  m.push_back({"serve.http_serialize_us", med_us(t, "serve.http_serialize"), "us"});
  m.push_back({"serve.wire_residual_ms",
               serve_wl ? median(A.ms()) - median(B.ms()) : 0.0, "ms"});
  m.push_back({"api.request_parse_us", med_us(t, "api.request_parse"), "us"});
  m.push_back({"api.json_emit_us", med_us(t, "api.json_emit"), "us"});
  for (const std::string& op : kOps) {
    m.push_back({"api.run_ms." + op, median(op_ms(s, inproc, op)), "ms"});
  }
  m.push_back({"api.repeat_frac", s.repeat_frac, "frac"});
  m.push_back({"core.graph_cache.get_us", med_us(t, "core.graph_cache.get"), "us"});
  m.push_back({"core.graph_cache.build_ms", med_ms(t, "core.graph_cache.build"), "ms"});
  m.push_back({"core.graph_cache.hit_ratio",
               ratio(static_cast<double>(caches.graph_hits),
                     static_cast<double>(caches.graph_hits + caches.graph_built)), "frac"});
  m.push_back({"core.graph_cache.bytes_mb", static_cast<double>(caches.graph_bytes) / 1048576.0,
               "MB"});
  m.push_back({"core.solver_cache.lookup_us", med_us(t, "core.solver_cache.lookup"), "us"});
  m.push_back({"core.solver_cache.hit_ratio",
               ratio(static_cast<double>(caches.solver_hits),
                     static_cast<double>(caches.solver_hits + caches.solver_built)), "frac"});
  m.push_back({"core.solver_cache.replay_ratio",
               ratio(static_cast<double>(caches.replays),
                     static_cast<double>(caches.replays + caches.anchor_solves)), "frac"});
  m.push_back({"core.solver_cache.anchor_bytes", static_cast<double>(caches.anchor_bytes),
               "bytes"});
  for (const char* step : {"base", "lambda_G", "tolerance", "sweep", "critical"}) {
    m.push_back({strformat("core.report.%s_ms", step),
                 med_ms(t, strformat("core.report.%s", step).c_str()), "ms"});
  }
  m.push_back({"core.placement.optimize_ms", med_ms(t, "core.placement.optimize"), "ms"});
  m.push_back({"core.campaign.run_ms", med_ms(t, "core.campaign.run"), "ms"});
  m.push_back({"topo.sensitivity_ms", med_ms(t, "topo.sensitivity"), "ms"});
  m.push_back({"apps.trace_ms", med_ms(t, "apps.trace"), "ms"});
  m.push_back({"schedgen.build_ms", med_ms(t, "schedgen.build"), "ms"});
  m.push_back({"graph.vertices", mean_of(req_graphs, true), "count"});
  m.push_back({"graph.edges", mean_of(req_graphs, false), "count"});
  m.push_back({"schedgen.vertices_per_ms", median(vpm), "1/ms"});
  m.push_back({"lp.lower_ms", med_ms(t, "lp.lower"), "ms"});
  m.push_back({"lp.dense_solve_us", med_us(t, "lp.dense_solve"), "us"});
  m.push_back({"lp.edges_per_us", median(epu), "1/us"});
  const double inproc_n = static_cast<double>(inproc.recs.size());
  m.push_back({"lp.dense_solves_per_req", ratio(static_cast<double>(caches.anchor_solves),
                                                 serve_wl ? static_cast<double>(A.recs.size() + B.recs.size()) : inproc_n),
               "count"});
  m.push_back({"lp.replays_per_req", ratio(static_cast<double>(caches.replays),
                                            serve_wl ? static_cast<double>(A.recs.size() + B.recs.size()) : inproc_n),
               "count"});
  m.push_back({"stoch.fast_samples_per_s", ratio(1e3 * fast_samples, fast_ms), "1/s"});
  m.push_back({"stoch.general_samples_per_s", ratio(1e3 * gen_samples, gen_ms), "1/s"});
  m.push_back({"lp.batch.lane_occupancy",
               ratio(static_cast<double>(caches.lane_samples), static_cast<double>(caches.lane_slots)),
               "frac"});
  m.push_back({"stoch.parallel_speedup", median(speedup), "x"});
  m.push_back({"util.pool.busy_frac", busy, "frac"});
  m.push_back({"obs.trace_overhead_frac", ratio(c2_p50 - c1_p50, c1_p50), "frac"});
  m.push_back({"unattributed_frac", ratio(e2e_mean - attributed, e2e_mean), "frac"});

  // Human breakdown: per span name, count, median, mean self time per request.
  std::printf("# layer breakdown (traced walk: %zu requests, %zu spans; e2e mean %.4f ms)\n",
              t.request_ms.size(), t.spans, e2e_mean);
  for (const auto& [name, v] : t.dur_ms) {
    const auto self = t.self_ms.find(name);
    const double per_req = self == t.self_ms.end() || n_req == 0 ? 0.0 : self->second / n_req;
    std::printf("#   %-28s n=%-7zu p50=%10.4f ms  self/req=%9.4f ms  share=%6.2f%%\n",
                name.c_str(), v.size(), median(v), per_req, 100.0 * ratio(per_req, e2e_mean));
  }
  std::printf("#   unattributed_frac=%.4f trace_overhead_frac=%.4f (untraced walk p50 %.4f ms, "
              "traced %.4f ms)\n",
              ratio(e2e_mean - attributed, e2e_mean), ratio(c2_p50 - c1_p50, c1_p50), c1_p50,
              c2_p50);
  return out;
}

// ---------------------------------------------------------------------------
// --validate: every cold-distinct class at every scale level and grid must
// run without error (no operation of a workload may fail).
// ---------------------------------------------------------------------------

int validate(const Args& a) {
  const auto& classes = cold_classes();
  int bad = 0;
  std::size_t n = 0;
  for (int level = a.shard; level < kScaleLevels; level += a.shards) {
    for (const AppClass& c : classes) {
      api::Engine engine(api::Engine::Options{.threads = 1});
      for (const double dl : {20.0, 50.0}) {
        api::AnalyzeRequest r;
        r.app.app = c.app;
        r.app.ranks = c.ranks;
        r.app.scale = cold_scale(level);
        r.grid = {dl, 5};
        r.threads = 1;
        ++n;
        try {
          (void)engine.run(r);
          (void)engine.run(api::SweepRequest{r.app, {dl, 11}, 1});
        } catch (const std::exception& e) {
          ++bad;
          std::printf("FAIL %s %d %.4f dl=%g: %s\n", c.app, c.ranks, r.app.scale, dl, e.what());
          std::fflush(stdout);
        }
      }
    }
  }
  std::printf("validate shard %d/%d: %zu scenarios, %d failures\n", a.shard, a.shards, n, bad);
  return bad == 0 ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw llamp::UsageError("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else if (k == "--validate") {
      a.validate = true;
    } else if (k == "--shard") {
      const std::string v = value();
      a.shard = std::stoi(v.substr(0, v.find('/')));
      a.shards = std::stoi(v.substr(v.find('/') + 1));
    } else {
      throw llamp::UsageError("unknown argument " + k);
    }
  }
  if (!a.validate && (!known_workload(a.workload) || a.seconds <= 0.0 ||
                      (a.trace != 0 && a.trace != 1))) {
    throw llamp::UsageError("need --workload serve-warm-mix|cold-distinct|mc-uq, "
                            "--seconds > 0, --trace 0|1");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llamp_perfbench: %s\n", e.what());
    return 2;
  }
  if (a.validate) return validate(a);
  try {
    const Stream s = make_stream(a.workload, a.seed);
    print_env(a, s, workload_threads(a.workload));
    const RunResult r = a.trace == 0 ? run_e2e(a, s) : run_traced(a, s);
    for (const Metric& m : r.metrics) {
      std::printf("# %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : r.extra) {
      std::printf("# %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    write_result_file(a, s, r);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                r.failed == 0 ? "true" : "false", r.attempted, r.failed,
                metrics_json(r.metrics).c_str());
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llamp_perfbench: %s\n", e.what());
    return 1;
  }
}
