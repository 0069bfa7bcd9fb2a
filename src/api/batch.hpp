#pragma once

#include <cstddef>
#include <iosfwd>

#include "api/engine.hpp"

namespace llamp::api {

/// JSONL batch serving: the first serving-shaped consumer of the engine.
///
/// Protocol: one request object per input line; one response object per
/// request on the output, **in input order** whatever the thread count.
/// Input framing is forgiving where it is unambiguous: CRLF line endings
/// are accepted (the '\r' is stripped), blank and whitespace-only lines
/// are skipped, and a missing trailing newline on the last request is
/// fine.  Lines that fail to parse are rejected in-band with the physical
/// 1-based input line number in the error message ("input line N: ..."),
/// since skipped blanks shift ids off line numbers:
///
///   {"id": 3, "op": "sweep", "result": {...}}
///   {"id": 4, "op": "mc", "error": {"kind": "usage", "message": "..."}}
///
/// `id` is the request's 0-based position in the input.  A line that
/// fails — malformed JSON, an unknown op, a request the engine rejects —
/// produces an error object (kind "usage" for UsageError-class problems,
/// "analysis" otherwise; "op" is echoed whenever the line was readable
/// JSON) and the remaining lines still execute.  The output bytes depend
/// only on the input bytes: requests run in parallel — with per-request
/// `threads` forced to 1 while the batch itself is parallel — and results
/// are buffered and emitted by id.
struct BatchOutcome {
  std::size_t requests = 0;  ///< non-blank input lines
  std::size_t failures = 0;  ///< lines that produced an error object
};

/// Read JSONL requests from `in`, execute them on `engine` with at most
/// `threads` workers (<= 0 = hardware concurrency; see Engine::run_batch),
/// and write JSONL responses to `out`.
BatchOutcome serve_jsonl(Engine& engine, std::istream& in, std::ostream& out,
                         int threads);

}  // namespace llamp::api
