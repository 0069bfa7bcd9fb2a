#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llamp::tools {

/// Entry point of the unified `llamp` command-line driver — a thin adapter
/// over the api layer: each subcommand parses its flags into a typed
/// api request, executes it on one api::Engine session, and renders the
/// typed result.  Dispatches `argv[1]` as a subcommand:
///
///   analyze  tolerance / λ_L / ρ_L report for one proxy application
///   sweep    multi-threaded ΔL sweep (runtime, λ_L, ρ_L per injection)
///   campaign multi-scenario grid on the batch engine
///   mc       Monte Carlo uncertainty quantification
///   batch    JSONL request stream served on the engine (api/batch.hpp)
///   topo     per-wire latency sensitivity under Fat Tree vs Dragonfly
///   place    block vs volume-greedy vs LLAMP Algorithm-3 rank placement
///   apps     list the registered proxy applications
///
/// Output goes to `out`, usage/errors to `err`, so tests can drive every
/// subcommand in-process (`llamp batch` additionally reads std::cin when
/// --file=-).  Returns 0 on success, 1 on an analysis error (llamp::Error,
/// or any failed line of a batch), 2 on a usage error; bare `llamp`,
/// `help`, `--version`, and `<sub> --help` exit 0.  With --format=json,
/// errors are also emitted on stdout as an {"error": ...} object.
int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

/// The flags subcommand `sub` accepts: an op subcommand's request fields
/// (api::request_fields) plus its CLI-only surface flags (format, csv,
/// threads, trace-out, file, metrics, port, max-inflight).  nullopt for an
/// unknown subcommand.
std::optional<std::vector<std::string>> subcommand_flags(
    std::string_view sub);

}  // namespace llamp::tools
