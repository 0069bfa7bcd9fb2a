#pragma once

#include <vector>

#include "api/engine.hpp"
#include "serve/server.hpp"

namespace llamp::serve {

/// The route table binding a Server to one api::Engine session — the glue
/// between the wire layer and the analysis engine (DESIGN.md §8):
///
///   POST /v1/analyze | /v1/sweep | /v1/campaign | /v1/mc | /v1/topo |
///        /v1/place
///     Body: the canonical api request JSON (DESIGN.md §4d) with the "op"
///     field optional — the path names the op; a present "op" must match.
///     200 body: `to_json_line(result)` + '\n', byte-identical to the
///     corresponding `llamp batch` result payload.  UsageError and
///     analysis errors map to 400 with the batch surface's in-band
///     {"error": {"kind", "message"}} object; only non-toolchain
///     exceptions produce a 500.
///
///   GET /healthz   (inline: answered even while a campaign runs)
///     Version + build metadata (verbatim `llamp --version` fields),
///     engine uptime, and both cache statistics.
///
///   GET /metrics   (inline)
///     Engine::metrics_json() + '\n' — the canonical snapshot with
///     engine.uptime_ns and the monotonic engine.metrics_seq scrape
///     counter, so scrape pipelines can detect daemon restarts.
///
/// Determinism contract: for the six /v1/* routes, identical request
/// *body bytes* produce identical response *body bytes*, whatever the
/// connection interleaving, keep-alive reuse, or prior cache state, and
/// bodies that differ only in `threads` get identical responses — the
/// engine's repo-wide determinism wall, extended to the wire (pinned by
/// tests/test_serve.cpp).  /healthz and /metrics carry uptime and timing
/// values and are exempt.
std::vector<Server::Route> engine_routes(api::Engine& engine);

}  // namespace llamp::serve
