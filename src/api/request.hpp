#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/campaign.hpp"

namespace llamp {
class Cli;
}

namespace llamp::api {

/// Typed value-type requests: the programmatic surface of the toolchain.
/// Each request mirrors one `llamp` subcommand's options, with the CLI's
/// defaults, and (de)serializes to a canonical single-line JSON form — the
/// unit of the `llamp batch` JSONL protocol.  Requests are pure values:
/// all semantic validation (degenerate grids, bad distributions, unknown
/// apps) happens when an api::Engine executes them, so the CLI, the batch
/// server, and library consumers share one validation path.
///
/// JSON field conventions follow core/report: times in explicitly-suffixed
/// units (`L_ns`, `dl_max_us`), sizes in `_bytes`.  Unknown fields are
/// rejected at parse time — the JSON surface takes the CLI's stance that a
/// typo must be an error, never a silently defaulted knob.
///
/// Each field's JSON key and CLI flag are spelled once, in the per-struct
/// schema table of request.cpp; a member's initializer is its default on
/// every surface.

/// The proxy-application/LogGPS block shared by every single-scenario
/// request (the CLI's common options).
struct AppSpec {
  std::string app = "lulesh";
  int ranks = 8;        ///< requested; clamped per app at execution
  double scale = 0.25;  ///< iteration-count multiplier
  std::string net = "cscs";  ///< LogGPS preset: cscs or daint
  std::optional<double> L;   ///< network latency override [ns]
  std::optional<double> o;   ///< per-message overhead override [ns]
  std::optional<double> G;   ///< gap-per-byte override [ns/byte]
  std::optional<std::uint64_t> S;  ///< rendezvous threshold [bytes]
};

/// The ΔL injection grid shared by analyze/sweep/mc/campaign.
struct GridSpec {
  double dl_max_us = 100.0;  ///< sweep ceiling ΔL_max [us]
  int points = 11;           ///< grid points in [0, ΔL_max]
};

/// `llamp analyze`: the full tolerance report of one scenario.
struct AnalyzeRequest {
  AppSpec app;
  GridSpec grid;
  int threads = 0;  ///< sweep parallelism; <= 0 = hardware concurrency
};

/// `llamp sweep`: runtime / λ_L / ρ_L over the ΔL grid.
struct SweepRequest {
  AppSpec app;
  GridSpec grid;
  int threads = 0;
};

/// `llamp mc`: Monte Carlo uncertainty quantification of one scenario.
/// A non-empty `dist_X` spec string ("base", "const:V", "normal:M,S",
/// "relnormal:SIGMA", "uniform:LO,HI") wins over the corresponding
/// `sigma_X` relative-normal shorthand, exactly like the CLI flags.
struct McRequest {
  AppSpec app;
  GridSpec grid;
  int samples = 256;
  std::uint64_t seed = 42;
  std::string dist_L;
  std::string dist_o;
  std::string dist_G;
  double sigma_L = 0.0;
  double sigma_o = 0.0;
  double sigma_G = 0.0;
  double edge_sigma = 0.0;  ///< per-edge noise, emulator convention
  double edge_bias = 0.0;
  std::vector<double> bands = {1.0, 2.0, 5.0};
  int threads = 0;
};

/// `llamp campaign`: the declarative multi-scenario grid.  The LogGPS
/// override axes keep the user's spelling (they name the config variants),
/// so they are lists of number strings, not doubles.
struct CampaignRequest {
  std::vector<std::string> apps = {"lulesh"};
  std::vector<int> ranks = {8};
  std::vector<double> scales = {0.25};
  std::vector<std::string> topologies = {"none"};
  std::vector<std::string> nets = {"cscs"};
  std::vector<std::string> L_list;  ///< L override axis [ns], as spelled
  std::vector<std::string> o_list;
  std::vector<std::string> G_list;
  std::optional<std::uint64_t> S;  ///< applies to every variant
  GridSpec grid;
  core::TopologyOptions topo;
  int mc_samples = 0;  ///< 0 = deterministic campaign only
  std::uint64_t seed = 42;  ///< shared by the mc axis and the probe
  double mc_sigma_L = 0.0;
  double mc_sigma_o = 0.0;
  double mc_sigma_G = 0.0;
  double mc_edge_sigma = 0.0;
  double mc_edge_bias = 0.0;
  std::string probe;  ///< "" (off) | "emulator"
  int probe_runs = 5;
  double noise_sigma = 0.003;  ///< emulator run-to-run noise
  int threads = 0;
};

/// `llamp topo`: per-wire latency sensitivity, Fat Tree vs Dragonfly.
struct TopoRequest {
  AppSpec app;
  double l_wire = 274.0;    ///< per-wire base latency [ns]
  double d_switch = 108.0;  ///< per-switch traversal [ns]
  int ft_radix = 8;
  int df_groups = 8;
  int df_routers = 4;
  int df_hosts = 8;
};

/// `llamp place`: block vs volume-greedy vs Algorithm-3 rank placement.
struct PlaceRequest {
  AppSpec app;
  double l_wire = 274.0;
  double d_switch = 108.0;
  int ft_radix = 8;
  int max_rounds = 64;  ///< Algorithm-3 round cap
};

using Request = std::variant<AnalyzeRequest, SweepRequest, CampaignRequest,
                             McRequest, TopoRequest, PlaceRequest>;

/// The op names, indexed by Request::index() (and Response::index(): the
/// two variants share their order).  The only place an op is spelled: the
/// JSON "op" tag, the CLI subcommands, the /v1/* routes and the engine's
/// per-op counters all derive from it.
inline constexpr std::array<std::string_view, std::variant_size_v<Request>>
    kOpNames = {"analyze", "sweep", "campaign", "mc", "topo", "place"};

/// kOpNames lookup; nullopt for an unknown name.
std::optional<std::size_t> op_index(std::string_view name);

/// The request's "op" tag: analyze, sweep, campaign, mc, topo, place.
const char* op_name(const Request& req);

/// Canonical single-line JSON form (no trailing newline).  Optional fields
/// are emitted only when set; field order is fixed, so
/// to_json(parse_request(to_json(r))) == to_json(r) byte-for-byte.
std::string to_json(const Request& req);

/// Parse one JSON request object: `{"op": "analyze", ...}`.  Field order
/// is free; missing fields take the request type's defaults; unknown
/// fields, type mismatches, non-integral integer fields, explicitly empty
/// optional strings and gated fields without their gate throw UsageError.
Request parse_request(std::string_view json);

/// Parse a request whose op is fixed by the caller (an HTTP route: the
/// path names the op, so the body's "op" field is optional).  A present
/// "op" must match `op`; everything else is `parse_request` semantics.
Request parse_request_for_op(std::string_view op, std::string_view json);

/// Build request `op` (a kOpNames index) from CLI flags: each field's flag
/// (`--ranks=8`, comma-separated lists `--apps=lulesh,hpcg`) under the
/// same presence rules as the JSON form.  Flags outside the request's
/// fields are ignored; `llamp` rejects them before calling this.
Request request_from_flags(std::size_t op, const Cli& cli);

/// One request field as the schema spells it.
struct FieldInfo {
  std::string json_path;       ///< dotted JSON path: "app.ranks", "seed"
  std::string_view flag;       ///< CLI flag without dashes: "ranks"
  std::string_view gate_flag;  ///< flag this field requires, or empty
};

/// The fields of request `op` in canonical order, nested objects
/// flattened — the CLI's accepted-flag sets are built from this.
std::vector<FieldInfo> request_fields(std::size_t op);

}  // namespace llamp::api
