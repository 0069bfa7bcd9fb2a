// Seeded mutation fuzz over the request-parsing surface: JsonValue::parse,
// api::parse_request, api::parse_request_for_op and serve::parse_http_request.
// One body per op, plus each body framed as a `POST /v1/<op>` request, is
// mutated with a fixed-seed llamp::Rng (byte delete, insert, flip and span
// duplicate).  Every call must either return or throw a llamp::Error; any
// other exception is a parser bug.  The sanitizer CI job runs the whole
// suite, so the same corpus also checks for memory errors there.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "api/request.hpp"
#include "serve/http.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

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

}  // namespace
}  // namespace llamp
