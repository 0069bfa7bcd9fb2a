// Seeded mutation fuzz over the request-parsing surface: JsonValue::parse,
// api::parse_request, api::parse_request_for_op and serve::parse_http_request.
// One body per op, plus each body framed as a `POST /v1/<op>` request, is
// mutated with a fixed-seed llamp::Rng (byte delete, insert, flip and span
// duplicate).  Every call must either return or throw a llamp::Error; any
// other exception is a parser bug.
//
// The graph builder gets the same treatment: small random programs, as MPI
// traces through Trace::validate and schedgen::build_graph, and as MidOp
// streams through build_graph_from_streams, mutated toward duplicate,
// unknown and unwaited request ids, ids near the int64 limits and the 2^40
// collective base, and bad peers.  Every input must build or throw a
// TraceError, SchedError or GraphError.  The sanitizer CI job runs the
// whole suite, so both corpora also check for memory errors there.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "api/request.hpp"
#include "schedgen/schedgen.hpp"
#include "serve/http.hpp"
#include "test_support.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace llamp {
namespace {

struct Seed {
  std::string_view op;
  std::string body;
};

std::vector<Seed> seed_corpus() {
  const std::vector<Seed> bodies = {
      {"analyze",
       R"({"op": "analyze", "app": {"name": "lulesh", "ranks": 8, )"
       R"("scale": 0.02, "net": "daint"}, "grid": {"dl_max_us": 50, )"
       R"("points": 3}})"},
      {"sweep",
       R"({"op": "sweep", "app": {"name": "lulesh", "ranks": 8, )"
       R"("scale": 0.02, "L_ns": 2500, "S_bytes": 1024}, )"
       R"("grid": {"dl_max_us": 30, "points": 4}})"},
      {"campaign",
       R"({"op": "campaign", "apps": ["lulesh", "hpcg"], "ranks": [8, 27], )"
       R"("scales": [0.02], "topologies": ["none", "fat-tree"], )"
       R"("nets": ["cscs"], "L_list": ["2500", "5000"], )"
       R"("grid": {"dl_max_us": 20, "points": 3}})"},
      {"mc",
       R"({"op": "mc", "app": {"name": "lulesh", "ranks": 8, )"
       R"("scale": 0.02}, "grid": {"dl_max_us": 20, "points": 3}, )"
       R"("samples": 16, "seed": 7, "sigma_L": 0.05, "edge_sigma": 0.003})"},
      {"topo", R"({"op": "topo", "app": {"name": "icon", "ranks": 8, )"
               R"("scale": 0.05}})"},
      {"place", R"({"op": "place", "app": {"name": "icon", "ranks": 8, )"
                R"("scale": 0.05}, "ft_radix": 8, "max_rounds": 16})"},
  };
  std::vector<Seed> corpus = bodies;
  for (const Seed& s : bodies) {
    corpus.push_back(
        {s.op, "POST /v1/" + std::string(s.op) +
                   " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                   std::to_string(s.body.size()) + "\r\n\r\n" + s.body});
  }
  return corpus;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One to four random edits: delete a byte, insert a random byte, flip one
/// bit, or duplicate a span of up to 16 bytes at a random position.
std::string mutate(std::string s, Rng& rng) {
  const auto edits = rng.uniform_int(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    if (s.empty()) {
      s.push_back(static_cast<char>(rng.next_u64()));
      continue;
    }
    const std::size_t pos = pick(rng, s.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        s.erase(pos, 1);
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>(rng.next_u64()));
        break;
      case 2:
        s[pos] = static_cast<char>(s[pos] ^ (1 << pick(rng, 8)));
        break;
      default: {
        const std::string span = s.substr(pos, 1 + pick(rng, 16));
        s.insert(pick(rng, s.size() + 1), span);
        break;
      }
    }
  }
  return s;
}

/// Runs `parse`; a llamp::Error is an accepted outcome, anything else
/// thrown fails the test with the offending input.
template <typename F>
bool returns_or_throws_llamp_error(const char* what, const std::string& input,
                                   F&& parse) {
  try {
    parse();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-llamp exception (" << e.what()
                  << ") on input:\n" << input;
    return false;
  } catch (...) {
    ADD_FAILURE() << what << " threw a non-exception on input:\n" << input;
    return false;
  }
  return true;
}

bool parse_everywhere(std::string_view op, const std::string& input) {
  const serve::HttpLimits limits;
  return returns_or_throws_llamp_error(
             "JsonValue::parse", input,
             [&] { (void)JsonValue::parse(input); }) &&
         returns_or_throws_llamp_error(
             "api::parse_request", input,
             [&] { (void)api::parse_request(input); }) &&
         returns_or_throws_llamp_error(
             "api::parse_request_for_op", input,
             [&] { (void)api::parse_request_for_op(op, input); }) &&
         returns_or_throws_llamp_error(
             "serve::parse_http_request", input, [&] {
               const serve::ParseResult r =
                   serve::parse_http_request(input, limits);
               // A framed request that survives goes on to the body
               // parser, as the /v1/* handlers do.
               if (r.status == serve::ParseResult::Status::kRequest) {
                 (void)api::parse_request_for_op(op, r.request.body);
               }
             });
}

TEST(FuzzParse, SeedsParse) {
  for (const Seed& s : seed_corpus()) {
    if (s.body.rfind("POST ", 0) == 0) {
      const serve::ParseResult r =
          serve::parse_http_request(s.body, serve::HttpLimits{});
      ASSERT_EQ(r.status, serve::ParseResult::Status::kRequest) << s.body;
      EXPECT_EQ(api::op_name(api::parse_request_for_op(s.op, r.request.body)),
                s.op);
    } else {
      EXPECT_EQ(api::op_name(api::parse_request_for_op(s.op, s.body)), s.op);
    }
  }
}

TEST(FuzzParse, MutatedInputsReturnOrThrowLlampError) {
  const std::vector<Seed> corpus = seed_corpus();
  Rng rng(0x5eed'f022);
  constexpr int kIterations = 10000;
  for (int i = 0; i < kIterations; ++i) {
    const Seed& s = corpus[pick(rng, corpus.size())];
    // Stop at the first failure: one input is enough to reproduce.
    ASSERT_TRUE(parse_everywhere(s.op, mutate(s.body, rng)))
        << "iteration " << i;
  }
}

/// Request ids a mutation picks from: the int64 limits, the collective
/// base 2^40 and its neighbours, negatives, or an id already in use.
std::int64_t fuzz_request(Rng& rng, std::int64_t in_use) {
  constexpr std::int64_t kBase = std::int64_t{1} << 40;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t picks[] = {kMax, kMax - 1, kMin, kMin + 1, kBase - 1,
                                kBase, kBase + 1, -1, 0, in_use};
  return picks[pick(rng, std::size(picks))];
}

/// A rank in [0, nranks).
int any_rank(Rng& rng, int nranks) {
  return static_cast<int>(rng.uniform_int(0, nranks - 1));
}

/// Peers a mutation picks from: out of range on either side, the int32
/// limits, or any rank (the sender itself included).
int fuzz_peer(Rng& rng, int nranks) {
  const int picks[] = {-1, nranks, nranks + 1,
                       std::numeric_limits<int>::max(),
                       std::numeric_limits<int>::min(), any_rank(rng, nranks)};
  return picks[pick(rng, std::size(picks))];
}

/// Message sizes around both rendezvous thresholds the fuzz builds with.
std::uint64_t fuzz_bytes(Rng& rng) {
  const std::uint64_t picks[] = {0, 1, 1023, 1024, 262143, 262144,
                                 std::uint64_t{1} << 40};
  return picks[pick(rng, std::size(picks))];
}

/// Builds `build()`; a TraceError, SchedError or GraphError is an accepted
/// outcome, anything else thrown fails the test with the input described.
template <typename F>
bool builds_or_throws_typed_error(const char* what, F&& build,
                                  const std::string& input) {
  try {
    build();
  } catch (const TraceError&) {
  } catch (const SchedError&) {
  } catch (const GraphError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw an untyped exception (" << e.what()
                  << ") on input:\n" << input;
    return false;
  }
  return true;
}

std::string describe(const std::vector<schedgen::MidStream>& streams) {
  std::string out;
  for (std::size_t r = 0; r < streams.size(); ++r) {
    for (const schedgen::MidOp& op : streams[r]) {
      out += strformat("%zu: kind %d peer %d bytes %llu tag %d req %lld\n", r,
                       static_cast<int>(op.kind), op.peer,
                       static_cast<unsigned long long>(op.bytes), op.tag,
                       static_cast<long long>(op.request));
    }
  }
  return out;
}

std::string describe(const trace::Trace& t) {
  std::string out;
  for (int r = 0; r < t.nranks(); ++r) {
    for (const trace::Event& ev : t.rank(r)) {
      out += strformat("%d: %s peer %d bytes %llu root %d req %lld\n", r,
                       std::string(trace::op_name(ev.op)).c_str(), ev.peer,
                       static_cast<unsigned long long>(ev.bytes), ev.root,
                       static_cast<long long>(ev.request));
    }
  }
  return out;
}

/// Small random programs (4 ranks, rendezvous and eager messages,
/// nonblocking ops and collectives) as the seed traces.
std::vector<trace::Trace> seed_traces() {
  std::vector<trace::Trace> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    testing::RandomProgramConfig cfg;
    cfg.seed = seed;
    cfg.nranks = 4;
    cfg.steps = 12;
    cfg.large_message_prob = 0.4;
    out.push_back(testing::random_trace(cfg));
  }
  return out;
}

schedgen::Options fuzz_options(Rng& rng) {
  schedgen::Options opts;
  const std::uint64_t thresholds[] = {0, 1024, opts.rendezvous_threshold};
  opts.rendezvous_threshold = thresholds[pick(rng, std::size(thresholds))];
  return opts;
}

TEST(FuzzGraph, SeedsBuild) {
  for (const trace::Trace& t : seed_traces()) {
    EXPECT_NO_THROW((void)schedgen::build_graph(t));
  }
}

TEST(FuzzGraph, MutatedStreamsBuildOrThrowTypedError) {
  std::vector<std::vector<schedgen::MidStream>> seeds;
  for (const trace::Trace& t : seed_traces()) {
    seeds.push_back(schedgen::expand_trace(t, schedgen::Options{}));
  }
  Rng rng(0x5eed'9a9f);
  constexpr int kIterations = 3000;
  int built = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<schedgen::MidStream> streams = seeds[pick(rng, seeds.size())];
    const int P = static_cast<int>(streams.size());
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      schedgen::MidStream& s = streams[pick(rng, streams.size())];
      if (s.empty()) continue;
      const std::size_t at = pick(rng, s.size());
      schedgen::MidOp& op = s[at];
      const std::int64_t in_use = s[pick(rng, s.size())].request;
      switch (rng.uniform_int(0, 7)) {
        case 0: s.erase(s.begin() + static_cast<std::ptrdiff_t>(at)); break;
        case 1: {
          const schedgen::MidOp copy = op;
          schedgen::MidStream& to = streams[pick(rng, streams.size())];
          to.insert(to.begin() + static_cast<std::ptrdiff_t>(
                                     pick(rng, to.size() + 1)), copy);
          break;
        }
        case 2: op.request = fuzz_request(rng, in_use); break;
        case 3: op.peer = fuzz_peer(rng, P); break;
        case 4:
          op.kind = static_cast<schedgen::MidOp::Kind>(rng.uniform_int(0, 5));
          break;
        case 5: op.bytes = fuzz_bytes(rng); break;
        case 6: op.tag = static_cast<int>(rng.uniform_int(0, 3)); break;
        default: std::swap(op, s[pick(rng, s.size())]); break;
      }
    }
    const schedgen::Options opts = fuzz_options(rng);
    ASSERT_TRUE(builds_or_throws_typed_error(
        "build_graph_from_streams",
        [&] {
          (void)schedgen::build_graph_from_streams(streams, opts);
          ++built;
        },
        describe(streams)))
        << "iteration " << i;
  }
  // Both outcomes are common, so the mutations reach past the first check.
  EXPECT_GT(built, kIterations / 20);
  EXPECT_LT(built, kIterations - kIterations / 20);
}

TEST(FuzzGraph, MutatedTracesValidateAndBuildOrThrowTypedError) {
  const std::vector<trace::Trace> seeds = seed_traces();
  Rng rng(0x5eed'7ace);
  constexpr int kIterations = 3000;
  int built = 0;
  for (int i = 0; i < kIterations; ++i) {
    trace::Trace t = seeds[pick(rng, seeds.size())];
    const int P = t.nranks();
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      std::vector<trace::Event>& evs = t.rank(any_rank(rng, P));
      if (evs.empty()) continue;
      const std::size_t at = pick(rng, evs.size());
      trace::Event& ev = evs[at];
      const std::int64_t in_use = evs[pick(rng, evs.size())].request;
      switch (rng.uniform_int(0, 7)) {
        case 0: evs.erase(evs.begin() + static_cast<std::ptrdiff_t>(at)); break;
        case 1: {
          // A copy right after the original keeps the timestamps ordered.
          const trace::Event copy = ev;
          evs.insert(evs.begin() + static_cast<std::ptrdiff_t>(at) + 1, copy);
          break;
        }
        case 2: ev.request = fuzz_request(rng, in_use); break;
        case 3: ev.peer = fuzz_peer(rng, P); break;
        case 4:
          ev.op = static_cast<trace::Op>(rng.uniform_int(0, 15));
          break;
        case 5: ev.bytes = fuzz_bytes(rng); break;
        case 6: ev.root = any_rank(rng, P); break;
        default: ev.end = ev.start - 1.0; break;
      }
    }
    const schedgen::Options opts = fuzz_options(rng);
    ASSERT_TRUE(builds_or_throws_typed_error(
        "Trace::validate and build_graph",
        [&] {
          t.validate();
          (void)schedgen::build_graph(t, opts);
          ++built;
        },
        describe(t)))
        << "iteration " << i;
  }
  EXPECT_GT(built, kIterations / 20);
  EXPECT_LT(built, kIterations - kIterations / 20);
}

}  // namespace
}  // namespace llamp
