// The serve-subsystem wall (DESIGN.md §8): the from-scratch HTTP/1.1
// parser, the poll-loop server, and the engine route table.  The headline
// contract is wire determinism — identical request body bytes produce
// identical response body bytes whatever the connection interleaving,
// keep-alive reuse, request thread count, or prior cache state — plus the
// robustness contract that malformed input maps to precise 4xx statuses
// and never kills the daemon.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "tools/cli_driver.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace llamp {
namespace {

using serve::Client;
using serve::HttpLimits;
using serve::HttpRequest;
using serve::HttpResponse;
using serve::ParseResult;
using serve::Server;

// ---------------------------------------------------------------------------
// Parser: framing, incrementality, limits, and the 4xx error map.
// ---------------------------------------------------------------------------

ParseResult parse(std::string_view in) {
  return serve::parse_http_request(in, HttpLimits{});
}

TEST(HttpParser, SimpleGetParses) {
  const std::string in =
      "GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  const ParseResult r = parse(in);
  ASSERT_EQ(r.status, ParseResult::Status::kRequest);
  EXPECT_EQ(r.consumed, in.size());
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.target, "/healthz");
  EXPECT_EQ(r.request.version_minor, 1);
  EXPECT_TRUE(r.request.body.empty());
  ASSERT_NE(r.request.header("host"), nullptr);  // names are lowercased
  EXPECT_EQ(*r.request.header("host"), "x");
  EXPECT_EQ(r.request.header("Host"), nullptr);
}

TEST(HttpParser, IncrementalFeedNeverConsumesEarly) {
  const std::string in =
      "POST /v1/analyze HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  // Every strict prefix must report kNeedMore with nothing consumed: the
  // connection loop re-invokes on the same growing buffer.
  for (std::size_t n = 0; n < in.size(); ++n) {
    const ParseResult r = parse(std::string_view(in).substr(0, n));
    EXPECT_EQ(r.status, ParseResult::Status::kNeedMore) << "prefix " << n;
    EXPECT_EQ(r.consumed, 0u);
  }
  const ParseResult r = parse(in);
  ASSERT_EQ(r.status, ParseResult::Status::kRequest);
  EXPECT_EQ(r.consumed, in.size());
  EXPECT_EQ(r.request.body, "{}");
}

TEST(HttpParser, PipelinedRequestsConsumeExactly) {
  const std::string one = "GET /metrics HTTP/1.1\r\n\r\n";
  const std::string two =
      "POST /v1/mc HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  std::string in = one + two;
  const ParseResult a = parse(in);
  ASSERT_EQ(a.status, ParseResult::Status::kRequest);
  EXPECT_EQ(a.consumed, one.size());
  in.erase(0, a.consumed);
  const ParseResult b = parse(in);
  ASSERT_EQ(b.status, ParseResult::Status::kRequest);
  EXPECT_EQ(b.consumed, two.size());
  EXPECT_EQ(b.request.target, "/v1/mc");
  EXPECT_EQ(b.request.body, "abcd");
}

TEST(HttpParser, BareLfLineEndingsTolerated) {
  const ParseResult r =
      parse("POST /x HTTP/1.1\nContent-Length: 1\nHost: y\n\nZ");
  ASSERT_EQ(r.status, ParseResult::Status::kRequest);
  EXPECT_EQ(r.request.body, "Z");
  ASSERT_NE(r.request.header("host"), nullptr);
  EXPECT_EQ(*r.request.header("host"), "y");
}

TEST(HttpParser, HeaderValuesTrimOptionalWhitespace) {
  const ParseResult r = parse("GET / HTTP/1.1\r\nX-K:   spaced \t\r\n\r\n");
  ASSERT_EQ(r.status, ParseResult::Status::kRequest);
  ASSERT_NE(r.request.header("x-k"), nullptr);
  EXPECT_EQ(*r.request.header("x-k"), "spaced");
}

struct BadCase {
  const char* name;
  std::string in;
  int status;
};

TEST(HttpParser, ErrorMap) {
  const std::vector<BadCase> cases = {
      {"garbage request line", "this is not http\r\n\r\n", 400},
      {"missing version", "GET /\r\n\r\n", 400},
      {"bad version", "GET / HTTP/2.0\r\n\r\n", 400},
      {"empty method", " / HTTP/1.1\r\n\r\n", 400},
      {"non-origin-form target", "GET example.com HTTP/1.1\r\n\r\n", 400},
      {"control byte in method", "G\x01T / HTTP/1.1\r\n\r\n", 400},
      {"header without colon", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
      {"control byte in header value",
       "GET / HTTP/1.1\r\nX: a\x01b\r\n\r\n", 400},
      {"transfer-encoding rejected",
       "POST /v1/analyze HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400},
      {"post without content-length", "POST /v1/analyze HTTP/1.1\r\n\r\n",
       400},
      {"non-numeric content-length",
       "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400},
      {"negative content-length",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"conflicting duplicate content-length",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
       400},
      {"oversized declared body",
       "POST / HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n", 413},
  };
  for (const BadCase& c : cases) {
    const ParseResult r = parse(c.in);
    EXPECT_EQ(r.status, ParseResult::Status::kError) << c.name;
    EXPECT_EQ(r.error_status, c.status) << c.name;
    EXPECT_FALSE(r.error_message.empty()) << c.name;
  }
}

TEST(HttpParser, OversizedBodyRejectedBeforeBuffering) {
  // The 413 must fire from the headers alone — the body bytes need never
  // arrive, so a hostile upload cannot make the server buffer 5 MB.
  const ParseResult r =
      parse("POST / HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n");
  EXPECT_EQ(r.status, ParseResult::Status::kError);
  EXPECT_EQ(r.error_status, 413);
}

TEST(HttpParser, OversizedHeaderSectionRejected) {
  std::string in = "GET / HTTP/1.1\r\n";
  while (in.size() <= HttpLimits{}.max_header_bytes) {
    in += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  // No terminating blank line: the parser must reject on size, not wait
  // for a header end that may never come.
  const ParseResult r = parse(in);
  EXPECT_EQ(r.status, ParseResult::Status::kError);
  EXPECT_EQ(r.error_status, 400);
}

TEST(HttpParser, KeepAliveResolution) {
  const auto req_of = [](const std::string& in) {
    const ParseResult r = parse(in);
    EXPECT_EQ(r.status, ParseResult::Status::kRequest);
    return r.request;
  };
  EXPECT_TRUE(req_of("GET / HTTP/1.1\r\n\r\n").keep_alive());
  EXPECT_FALSE(
      req_of("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
  EXPECT_FALSE(req_of("GET / HTTP/1.0\r\n\r\n").keep_alive());
  EXPECT_TRUE(
      req_of("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
  // Connection is an option list and case-insensitive.
  EXPECT_FALSE(
      req_of("GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n").keep_alive());
}

TEST(HttpSerializer, ResponseBytesArePinned) {
  HttpResponse res;
  res.status = 200;
  res.body = "{\"x\": 1}\n";
  const std::string expected =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 9\r\n"
      "Connection: keep-alive\r\n"
      "\r\n"
      "{\"x\": 1}\n";
  // Byte-pinned, twice: serialization is deterministic (no Date header,
  // no allocation-dependent ordering).
  EXPECT_EQ(serve::serialize_response(res), expected);
  EXPECT_EQ(serve::serialize_response(res), expected);

  HttpResponse err;
  err.status = 503;
  err.keep_alive = false;
  err.extra_headers.push_back("Retry-After: 1");
  err.body = serve::error_body("http", "busy");
  const std::string bytes = serve::serialize_response(err);
  EXPECT_NE(bytes.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(bytes.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("{\"error\": {\"kind\": \"http\", "
                       "\"message\": \"busy\"}}\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// parse_request_for_op: the path names the op, the body's tag is optional.
// ---------------------------------------------------------------------------

TEST(ServeRequests, OpFieldIsOptionalAndMustMatch) {
  const api::Request tagless = api::parse_request_for_op("analyze", "{}");
  EXPECT_STREQ(api::op_name(tagless), "analyze");
  const api::Request tagged =
      api::parse_request_for_op("analyze", "{\"op\": \"analyze\"}");
  EXPECT_EQ(api::to_json(tagless), api::to_json(tagged));
  EXPECT_THROW((void)api::parse_request_for_op("analyze", "{\"op\": \"mc\"}"),
               UsageError);
  EXPECT_THROW((void)api::parse_request_for_op("frobnicate", "{}"),
               UsageError);
  // Everything else keeps parse_request semantics: unknown fields throw.
  EXPECT_THROW((void)api::parse_request_for_op("analyze", "{\"x\": 1}"),
               UsageError);
}

// ---------------------------------------------------------------------------
// util/json under server-shaped hostile input.  The daemon feeds request
// bodies straight into the shared parser, so its failure modes on
// oversized, truncated, NUL-ridden, and deeply nested payloads are part of
// the serve contract — pinned here with their offset-carrying messages.
// ---------------------------------------------------------------------------

std::string parse_error_of(const std::string& body) {
  try {
    (void)JsonValue::parse(body);
  } catch (const UsageError& e) {
    return e.what();
  }
  return {};
}

TEST(ServeJson, TruncatedBodiesFailWithOffsets) {
  EXPECT_EQ(parse_error_of("{\"app\": {\"name\": \"lulesh\""),
            "json: unexpected end of input (at byte 25)");
  EXPECT_EQ(parse_error_of("{\"app\": "),
            "json: unexpected end of input (at byte 8)");
  EXPECT_EQ(parse_error_of("{\"app\": \"lul"),
            "json: unterminated string (at byte 12)");
}

TEST(ServeJson, NulAndControlBytesAreRejected) {
  const std::string nul_in_string{"{\"a\": \"x\0y\"}", 12};
  EXPECT_EQ(parse_error_of(nul_in_string),
            "json: raw control character in string (at byte 9)");
  const std::string nul_after_doc{"{}\0", 3};
  EXPECT_EQ(parse_error_of(nul_after_doc),
            "json: trailing characters after document (at byte 2)");
}

TEST(ServeJson, DeeplyNestedArraysHitTheDepthCap) {
  // 64 levels parse; 66 trip the recursion bound (never the real stack).
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse_error_of(nested(64)), "");
  EXPECT_EQ(parse_error_of(nested(66)),
            "json: nesting too deep (at byte 65)");
}

TEST(ServeJson, OversizedPayloadStillParsesDeterministically) {
  // A wide (not deep) multi-hundred-KB document must parse fine — size
  // limits belong to the HTTP layer (413), not the JSON parser.
  std::string body = "[";
  for (int i = 0; i < 50'000; ++i) {
    body += std::to_string(i);
    body += ", ";
  }
  body += "-1]";
  const JsonValue doc = JsonValue::parse(body);
  EXPECT_EQ(doc.as_array("doc").size(), 50'001u);
}

// ---------------------------------------------------------------------------
// Server integration: a live daemon on an ephemeral loopback port.
// ---------------------------------------------------------------------------

const char* kAnalyzeBody =
    "{\"app\": {\"name\": \"lulesh\", \"ranks\": 8, \"scale\": 0.05}, "
    "\"grid\": {\"dl_max_us\": 20, \"points\": 3}}";
const char* kMcBody =
    "{\"app\": {\"name\": \"lulesh\", \"ranks\": 8, \"scale\": 0.05}, "
    "\"grid\": {\"dl_max_us\": 20, \"points\": 3}, \"samples\": 16, "
    "\"seed\": 7}";

/// An engine + started server bound to an ephemeral port.
struct TestDaemon {
  explicit TestDaemon(int max_inflight = 64) {
    Server::Options opts;
    opts.port = 0;
    opts.max_inflight = max_inflight;
    server.emplace(opts, serve::engine_routes(engine));
    server->start();
  }
  ~TestDaemon() {
    server->request_shutdown();
    server->join();
  }
  Client client() { return Client("127.0.0.1", server->port()); }

  api::Engine engine;
  std::optional<Server> server;
};

TEST(ServeDaemon, HealthzReusesVersionLineFieldsVerbatim) {
  TestDaemon daemon;
  Client c = daemon.client();
  const Client::Result r = c.get("/healthz");
  EXPECT_EQ(r.status, 200);
  const JsonValue doc = JsonValue::parse(r.body);
  const BuildInfo& b = build_info();
  EXPECT_EQ(doc.find("status")->as_string("status"), "ok");
  // The verbatim-reuse pin: /healthz carries exactly the fields `llamp
  // --version` prints, not a reformatted copy.
  EXPECT_EQ(doc.find("version")->as_string("version"), b.version);
  EXPECT_EQ(doc.find("compiler")->as_string("compiler"), b.compiler);
  EXPECT_EQ(doc.find("build_type")->as_string("build_type"), b.build_type);
  ASSERT_NE(doc.find("uptime_ns"), nullptr);
  ASSERT_NE(doc.find("graph_cache"), nullptr);
  ASSERT_NE(doc.find("solver_cache"), nullptr);
}

TEST(ServeDaemon, MetricsServesEngineSnapshotWithSequence) {
  TestDaemon daemon;
  Client c = daemon.client();
  const Client::Result a = c.get("/metrics");
  const Client::Result b = c.get("/metrics");
  EXPECT_EQ(a.status, 200);
  const JsonValue da = JsonValue::parse(a.body);
  const JsonValue db = JsonValue::parse(b.body);
  const auto seq = [](const JsonValue& d) {
    return d.find("counters")->find("engine.metrics_seq")->as_unsigned("seq");
  };
  // The scrape counter is strictly monotonic across snapshots.
  EXPECT_GT(seq(db), seq(da));
  ASSERT_NE(da.find("gauges")->find("engine.uptime_ns"), nullptr);
}

TEST(ServeDaemon, AnalyzeResponseMatchesBatchSurfaceBytes) {
  TestDaemon daemon;
  Client c = daemon.client();
  const Client::Result r = c.post("/v1/analyze", kAnalyzeBody);
  EXPECT_EQ(r.status, 200);
  ASSERT_NE(r.header("content-type"), nullptr);
  EXPECT_EQ(*r.header("content-type"), "application/json");
  // The wire payload is the batch surface's result line, byte-for-byte.
  api::Engine reference(api::Engine::Options{.threads = 1});
  const std::string expected =
      api::to_json_line(
          reference.run(api::parse_request_for_op("analyze", kAnalyzeBody))) +
      '\n';
  EXPECT_EQ(r.body, expected);
}

TEST(ServeDaemon, WireDeterminismAcrossInterleavingAndThreads) {
  // The tentpole pin: one response per (route, body) pair, collected under
  // maximally different conditions, all byte-identical.
  std::vector<std::string> analyze_bodies;
  std::vector<std::string> mc_bodies;

  {
    TestDaemon daemon;
    Client c = daemon.client();
    // Cold cache, keep-alive reuse, alternating ops on one connection.
    analyze_bodies.push_back(c.post("/v1/analyze", kAnalyzeBody).body);
    mc_bodies.push_back(c.post("/v1/mc", kMcBody).body);
    analyze_bodies.push_back(c.post("/v1/analyze", kAnalyzeBody).body);
    mc_bodies.push_back(c.post("/v1/mc", kMcBody).body);
    // Fresh connection against the now-warm cache.
    Client c2 = daemon.client();
    analyze_bodies.push_back(c2.post("/v1/analyze", kAnalyzeBody).body);
  }
  {
    // Different request thread counts; concurrent clients racing
    // dispatch.
    TestDaemon daemon;
    std::vector<std::thread> workers;
    std::vector<std::string> analyze_out(3);
    std::vector<std::string> mc_out(3);
    const auto with_threads = [](std::string body, int threads) {
      body.pop_back();  // the closing brace
      return body + ", \"threads\": " + std::to_string(threads) + "}";
    };
    for (int i = 0; i < 3; ++i) {
      workers.emplace_back([&, i] {
        const int threads = 1 << i;  // 1, 2, 4
        Client c = daemon.client();
        analyze_out[static_cast<std::size_t>(i)] =
            c.post("/v1/analyze", with_threads(kAnalyzeBody, threads)).body;
        mc_out[static_cast<std::size_t>(i)] =
            c.post("/v1/mc", with_threads(kMcBody, threads)).body;
      });
    }
    for (std::thread& t : workers) t.join();
    analyze_bodies.insert(analyze_bodies.end(), analyze_out.begin(),
                          analyze_out.end());
    mc_bodies.insert(mc_bodies.end(), mc_out.begin(), mc_out.end());
  }

  ASSERT_FALSE(analyze_bodies.front().empty());
  for (const std::string& b : analyze_bodies) {
    EXPECT_EQ(b, analyze_bodies.front());
  }
  ASSERT_FALSE(mc_bodies.front().empty());
  for (const std::string& b : mc_bodies) EXPECT_EQ(b, mc_bodies.front());
  EXPECT_NE(analyze_bodies.front(), mc_bodies.front());
}

TEST(ServeDaemon, ErrorClassesMapToStatusesAndDaemonSurvives) {
  TestDaemon daemon;
  {
    Client c = daemon.client();
    const Client::Result r = c.get("/no/such/path");
    EXPECT_EQ(r.status, 404);
    EXPECT_NE(r.body.find("\"kind\": \"http\""), std::string::npos);
  }
  {
    Client c = daemon.client();
    const Client::Result r = c.get("/v1/analyze");
    EXPECT_EQ(r.status, 405);
    ASSERT_NE(r.header("allow"), nullptr);
    EXPECT_EQ(*r.header("allow"), "POST");
  }
  {
    Client c = daemon.client();
    const Client::Result r = c.post("/v1/analyze", "{not json");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("\"kind\": \"usage\""), std::string::npos);
  }
  {
    Client c = daemon.client();
    const Client::Result r = c.post(
        "/v1/analyze", "{\"app\": {\"name\": \"no-such-app\"}}");
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("\"kind\": \"analysis\""), std::string::npos);
  }
  {
    // Garbage on the wire: 400, connection closed, daemon alive.
    Client c = daemon.client();
    c.send_raw("EHLO mail.example.com\r\n\r\n");
    const std::string raw = c.read_until_close();
    EXPECT_NE(raw.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  }
  {
    // Oversized declared body: 413 from the headers alone, then close.
    Client c = daemon.client();
    c.send_raw(
        "POST /v1/analyze HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    const std::string raw = c.read_until_close();
    EXPECT_NE(raw.find("HTTP/1.1 413 Content Too Large"), std::string::npos);
  }
  {
    // Mid-request disconnect: partial request, peer vanishes, no response
    // owed.  The next connection must work (the daemon never crashed).
    Client c = daemon.client();
    c.send_raw("POST /v1/analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\n{");
  }
  Client c = daemon.client();
  EXPECT_EQ(c.get("/healthz").status, 200);
  const Server::Stats st = daemon.server->stats();
  EXPECT_GE(st.protocol_errors, 4u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServeDaemon, PlaceRejectsMaxRoundsBelowOne) {
  // The JSON twin of the CLI's --max-rounds check: a usage error (400),
  // never an Algorithm 3 row reporting 0.0 ns.
  TestDaemon daemon;
  for (const int rounds : {0, -3}) {
    Client c = daemon.client();
    const Client::Result r = c.post(
        "/v1/place",
        "{\"app\": {\"name\": \"lulesh\", \"ranks\": 8, \"scale\": 0.02}, "
        "\"max_rounds\": " + std::to_string(rounds) + "}");
    EXPECT_EQ(r.status, 400) << r.body;
    EXPECT_NE(r.body.find("\"kind\": \"usage\""), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("need --max-rounds >= 1 (got " +
                          std::to_string(rounds) + ")"),
              std::string::npos)
        << r.body;
  }
}

// ---------------------------------------------------------------------------
// The error-class wall.  Every op resolves its scenario through the same
// core functions, so a bad knob is a usage error and an unknown app an
// analysis error on every op and on every surface: the CLI's exit code,
// the `llamp batch` line and the /v1/<op> body.
// ---------------------------------------------------------------------------

/// One request spelled for each surface: CLI subcommand + flags, and the
/// JSON body without its "op" tag.
struct SurfaceCase {
  std::vector<std::string> argv;
  std::string body;
};

void expect_error_kind(TestDaemon& daemon, const SurfaceCase& c,
                       const std::string& kind) {
  const std::string& op = c.argv.front();
  std::string label;
  std::vector<const char*> argv = {"llamp"};
  for (const std::string& a : c.argv) {
    argv.push_back(a.c_str());
    label += a + ' ';
  }
  const std::string needle = "\"kind\": \"" + kind + "\"";

  std::ostringstream out, err;
  EXPECT_EQ(tools::run(static_cast<int>(argv.size()), argv.data(), out, err),
            kind == "usage" ? 2 : 1)
      << label << err.str();

  std::istringstream in("{\"op\": \"" + op + "\", " + c.body.substr(1));
  std::ostringstream line;
  (void)api::serve_jsonl(daemon.engine, in, line, 1);
  EXPECT_NE(line.str().find(needle), std::string::npos) << label << line.str();

  Client client = daemon.client();
  const Client::Result r = client.post("/v1/" + op, c.body);
  EXPECT_EQ(r.status, 400) << label;
  EXPECT_NE(r.body.find(needle), std::string::npos) << label << r.body;
}

TEST(ErrorClassWall, BadKnobsAreUsageErrorsOnEveryOpAndSurface) {
  std::vector<SurfaceCase> cases;
  // The AppSpec knobs, on every single-scenario op.
  const std::vector<std::pair<std::string, std::string>> app_knobs = {
      {"--net=slurm", R"("net": "slurm")"},
      {"--L=-5", R"("L_ns": -5)"},
      {"--G=-5", R"("G_ns_per_byte": -5)"},
      {"--ranks=0", R"("ranks": 0)"},
      {"--S=0", R"("S_bytes": 0)"},
      {"--scale=0", R"("scale": 0)"},
  };
  for (const char* op : {"analyze", "sweep", "mc", "topo", "place"}) {
    for (const auto& [flag, json] : app_knobs) {
      cases.push_back({{op, flag}, "{\"app\": {" + json + "}}"});
    }
  }
  // Topology shape and fit, then each knob's campaign spelling.
  const std::vector<SurfaceCase> rest = {
      {{"topo", "--ft-radix=3"}, R"({"ft_radix": 3})"},
      {{"place", "--ft-radix=3"}, R"({"ft_radix": 3})"},
      {{"topo", "--df-groups=1"}, R"({"df_groups": 1})"},
      {{"topo", "--app=hpcg", "--ranks=512"},
       R"({"app": {"name": "hpcg", "ranks": 512}})"},
      {{"place", "--app=hpcg", "--ranks=512"},
       R"({"app": {"name": "hpcg", "ranks": 512}})"},
      {{"campaign", "--nets=slurm"}, R"({"nets": ["slurm"]})"},
      {{"campaign", "--L-list=-5"}, R"({"L_list": ["-5"]})"},
      {{"campaign", "--G-list=-5"}, R"({"G_list": ["-5"]})"},
      {{"campaign", "--ranks=0"}, R"({"ranks": [0]})"},
      {{"campaign", "--S=0"}, R"({"S_bytes": 0})"},
      {{"campaign", "--scales=0"}, R"({"scales": [0]})"},
      {{"campaign", "--topos=fat-tree", "--ft-radix=3"},
       R"({"topologies": ["fat-tree"], "topo": {"ft_radix": 3}})"},
      {{"campaign", "--topos=dragonfly", "--df-groups=1"},
       R"({"topologies": ["dragonfly"], "topo": {"df_groups": 1}})"},
      {{"campaign", "--apps=hpcg", "--ranks=512", "--topos=fat-tree"},
       R"({"apps": ["hpcg"], "ranks": [512], "topologies": ["fat-tree"]})"},
  };
  cases.insert(cases.end(), rest.begin(), rest.end());
  // The wire knobs: a negative value on every surface, NaN and infinity on
  // the CLI only (JSON cannot spell them).
  for (const std::string knob : {"l-wire", "d-switch"}) {
    const std::string key = knob == "l-wire" ? "l_wire_ns" : "d_switch_ns";
    cases.push_back({{"topo", "--" + knob + "=-1"}, "{\"" + key + "\": -1}"});
    cases.push_back({{"place", "--" + knob + "=-1"}, "{\"" + key + "\": -1}"});
    cases.push_back({{"campaign", "--topos=fat-tree", "--" + knob + "=-1"},
                     "{\"topologies\": [\"fat-tree\"], \"topo\": {\"" + key +
                         "\": -1}}"});
  }

  TestDaemon daemon;
  for (const SurfaceCase& c : cases) expect_error_kind(daemon, c, "usage");
  for (const char* flag : {"--l-wire=nan", "--l-wire=inf", "--d-switch=nan",
                           "--d-switch=inf"}) {
    for (const std::vector<const char*>& argv :
         {std::vector<const char*>{"llamp", "topo", flag},
          std::vector<const char*>{"llamp", "place", flag},
          std::vector<const char*>{"llamp", "campaign", "--topos=fat-tree", flag}}) {
      std::ostringstream out, err;
      EXPECT_EQ(tools::run(static_cast<int>(argv.size()), argv.data(), out, err), 2)
          << argv[1] << ' ' << flag << ": " << err.str();
    }
  }
  // Every knob failed before a graph was built.
  EXPECT_EQ(daemon.engine.cache_stats().built, 0u);
}

TEST(ErrorClassWall, OverflowingWireCostsAreOneAnalysisErrorOnEveryOpAndSurface) {
  // A finite but huge l_wire or d_switch passes fit_topology, then the
  // base runtime overflows to +inf: topo, place and a campaign topology
  // cell all raise the same analysis error instead of printing inf/nan.
  const std::string app = R"("app": {"name": "lulesh", "ranks": 8, "scale": 0.02})";
  const std::string cell =
      R"("apps": ["lulesh"], "ranks": [8], "scales": [0.02], )"
      R"("topologies": ["fat-tree"])";
  TestDaemon daemon;
  for (const std::string knob : {"l-wire", "d-switch"}) {
    const std::string key = knob == "l-wire" ? "l_wire_ns" : "d_switch_ns";
    const std::string flag = "--" + knob + "=1e308";
    const std::vector<SurfaceCase> cases = {
        {{"topo", "--app=lulesh", "--ranks=8", "--scale=0.02", flag},
         "{" + app + ", \"" + key + "\": 1e308}"},
        {{"place", "--app=lulesh", "--ranks=8", "--scale=0.02", flag},
         "{" + app + ", \"" + key + "\": 1e308}"},
        {{"campaign", "--apps=lulesh", "--ranks=8", "--scales=0.02",
          "--topos=fat-tree", flag},
         "{" + cell + ", \"topo\": {\"" + key + "\": 1e308}}"},
    };
    for (const SurfaceCase& c : cases) {
      expect_error_kind(daemon, c, "analysis");
      std::vector<const char*> argv = {"llamp"};
      for (const std::string& a : c.argv) argv.push_back(a.c_str());
      std::ostringstream out, err;
      (void)tools::run(static_cast<int>(argv.size()), argv.data(), out, err);
      EXPECT_EQ(err.str(), "llamp " + c.argv.front() +
                               ": base runtime is not finite (T = inf): the "
                               "scenario's costs overflow\n")
          << flag;
    }
  }
}

TEST(ErrorClassWall, OverflowingLatencyIsOneAnalysisErrorOnEveryOpAndSurface) {
  // A finite but huge L passes validation, then the base runtime overflows
  // to +inf: analyze, sweep and both mc paths raise the same analysis
  // error as an overflowing wire cost, on the CLI, in batch and over HTTP,
  // instead of failing to converge or printing inf/nan.
  const std::string app =
      R"({"app": {"name": "lulesh", "ranks": 8, "scale": 0.02, "L_ns": 1e308})";
  const std::vector<std::string> flags = {"--app=lulesh", "--ranks=8",
                                          "--scale=0.02", "--L=1e308"};
  const std::string message =
      "base runtime is not finite (T = inf): the scenario's costs overflow";
  std::vector<SurfaceCase> cases;
  for (const char* op : {"analyze", "sweep", "mc"}) {
    std::vector<std::string> argv = {op};
    argv.insert(argv.end(), flags.begin(), flags.end());
    cases.push_back({argv, app + "}"});
  }
  // mc's general path: o jitters too, so every sample lowers its own LP.
  std::vector<std::string> general = cases.back().argv;
  general.push_back("--sigma-o=0.05");
  cases.push_back({general, app + R"(, "sigma_o": 0.05})"});

  TestDaemon daemon;
  for (const SurfaceCase& c : cases) {
    expect_error_kind(daemon, c, "analysis");
    std::vector<const char*> argv = {"llamp"};
    for (const std::string& a : c.argv) argv.push_back(a.c_str());
    std::ostringstream out, err;
    (void)tools::run(static_cast<int>(argv.size()), argv.data(), out, err);
    EXPECT_EQ(err.str(), "llamp " + c.argv.front() + ": " + message + "\n");
    EXPECT_EQ(out.str(), "") << c.argv.front();

    std::istringstream in("{\"op\": \"" + c.argv.front() + "\", " +
                          c.body.substr(1));
    std::ostringstream line;
    (void)api::serve_jsonl(daemon.engine, in, line, 1);
    EXPECT_NE(line.str().find(message), std::string::npos) << line.str();
    const Client::Result r =
        daemon.client().post("/v1/" + c.argv.front(), c.body);
    EXPECT_NE(r.body.find(message), std::string::npos) << r.body;
  }
}

TEST(ErrorClassWall, UnknownAppIsAnAnalysisErrorOnEveryOp) {
  TestDaemon daemon;
  for (const std::string_view op : api::kOpNames) {
    const bool campaign = op == "campaign";
    expect_error_kind(
        daemon,
        {{std::string(op), campaign ? "--apps=nope" : "--app=nope"},
         campaign ? R"({"apps": ["nope"]})" : R"({"app": {"name": "nope"}})"},
        "analysis");
  }
}

TEST(ServeDaemon, KeepAliveCountsOneConnection) {
  TestDaemon daemon;
  Client c = daemon.client();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(c.get("/healthz").status, 200);
  const Client::Result closing =
      c.request("GET", "/healthz", "", {"Connection: close"});
  EXPECT_EQ(closing.status, 200);
  ASSERT_NE(closing.header("connection"), nullptr);
  EXPECT_EQ(*closing.header("connection"), "close");
  const Server::Stats st = daemon.server->stats();
  EXPECT_EQ(st.connections, 1u);
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.responses, 6u);
}

// A server with one custom blocking route, for admission/drain tests where
// the test must control exactly when a request completes.
struct GatedDaemon {
  explicit GatedDaemon(int max_inflight) {
    Server::Options opts;
    opts.port = 0;
    opts.max_inflight = max_inflight;
    Server::Route r;
    r.method = "POST";
    r.path = "/gated";
    r.dispatch = Server::Dispatch::kQueued;
    r.handler = [this](const HttpRequest&) {
      entered.store(true);
      gate_future.wait();
      HttpResponse res;
      res.body = "done\n";
      return res;
    };
    server.emplace(opts, std::vector<Server::Route>{std::move(r)});
    server->start();
  }
  void wait_entered() {
    while (!entered.load()) std::this_thread::yield();
  }

  std::promise<void> gate;
  std::shared_future<void> gate_future{gate.get_future().share()};
  std::atomic<bool> entered{false};
  std::optional<Server> server;
};

TEST(ServeDaemon, AdmissionControlRejectsWith503) {
  GatedDaemon daemon(/*max_inflight=*/1);
  Client first("127.0.0.1", daemon.server->port());
  std::thread blocked([&first] {
    const Client::Result r = first.post("/gated", "x");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "done\n");
  });
  daemon.wait_entered();  // the slot is now provably occupied

  Client second("127.0.0.1", daemon.server->port());
  const Client::Result rejected = second.post("/gated", "x");
  EXPECT_EQ(rejected.status, 503);
  ASSERT_NE(rejected.header("retry-after"), nullptr);
  EXPECT_EQ(*rejected.header("retry-after"), "1");
  EXPECT_NE(rejected.body.find("\"kind\": \"http\""), std::string::npos);

  daemon.gate.set_value();
  blocked.join();
  // The rejected connection stayed usable: the retry succeeds on it.
  const Client::Result retry = second.post("/gated", "x");
  EXPECT_EQ(retry.status, 200);
  EXPECT_EQ(daemon.server->stats().rejected, 1u);

  daemon.server->request_shutdown();
  daemon.server->join();
}

TEST(ServeDaemon, GracefulDrainFinishesInFlightRequests) {
  GatedDaemon daemon(/*max_inflight=*/4);
  Client c("127.0.0.1", daemon.server->port());
  std::thread inflight([&c] {
    const Client::Result r = c.post("/gated", "x");
    // The drain contract: a dispatched request is answered, not dropped.
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "done\n");
  });
  daemon.wait_entered();

  daemon.server->request_shutdown();
  daemon.server->request_shutdown();  // idempotent
  // New connections are refused once the drain closes the listen socket
  // (poll with a deadline: the IO thread races this assertion), but the
  // in-flight response still arrives.
  bool refused = false;
  for (int i = 0; i < 500 && !refused; ++i) {
    try {
      Client probe("127.0.0.1", daemon.server->port());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } catch (const Error&) {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  daemon.gate.set_value();
  daemon.server->join();
  inflight.join();
  EXPECT_EQ(daemon.server->stats().responses, 1u);
}

}  // namespace
}  // namespace llamp
