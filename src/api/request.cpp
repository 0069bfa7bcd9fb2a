#include "api/request.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::api {
namespace {

// ---------------------------------------------------------------------------
// The request schema: one row per field, in canonical JSON order.  A row
// names the JSON key, the CLI flag, the member and its emission mode; the
// member's type picks the value codec and the struct's own initializer is
// the default.  Adding a request field means adding one row here.
// ---------------------------------------------------------------------------

enum class Mode : std::uint8_t {
  kPlain,     ///< always emitted
  kOptional,  ///< a std::optional, or a string whose "" means absent:
              ///< emitted only when set; an explicit "" is a UsageError
  kSpelled,   ///< a number list kept as spelled (JSON numbers take their
              ///< shortest form); emitted only when non-empty
};

template <typename S>
using Member =
    std::variant<int S::*, double S::*, std::uint64_t S::*, std::string S::*,
                 std::optional<double> S::*, std::optional<std::uint64_t> S::*,
                 std::vector<int> S::*, std::vector<double> S::*,
                 std::vector<std::string> S::*, AppSpec S::*, GridSpec S::*,
                 core::TopologyOptions S::*>;

template <typename S>
struct Row {
  std::string_view key;   ///< JSON key
  std::string_view flag;  ///< CLI flag; empty for a nested object, whose
                          ///< own rows carry the (flat) flags
  Member<S> member;
  Mode mode = Mode::kPlain;
  std::string_view gate = {};  ///< key of the row this one requires
};

/// `Schema<S>::rows` is the table of S; structs without one are values.
template <typename S>
struct Schema {};

template <typename T>
concept Object = requires { Schema<T>::rows; };

template <>
struct Schema<AppSpec> {
  static constexpr Row<AppSpec> rows[] = {
      {"name", "app", &AppSpec::app},
      {"ranks", "ranks", &AppSpec::ranks},
      {"scale", "scale", &AppSpec::scale},
      {"net", "net", &AppSpec::net},
      {"L_ns", "L", &AppSpec::L, Mode::kOptional},
      {"o_ns", "o", &AppSpec::o, Mode::kOptional},
      {"G_ns_per_byte", "G", &AppSpec::G, Mode::kOptional},
      {"S_bytes", "S", &AppSpec::S, Mode::kOptional},
  };
};

template <>
struct Schema<GridSpec> {
  static constexpr Row<GridSpec> rows[] = {
      {"dl_max_us", "dl-max-us", &GridSpec::dl_max_us},
      {"points", "points", &GridSpec::points},
  };
};

template <>
struct Schema<core::TopologyOptions> {
  using T = core::TopologyOptions;
  static constexpr Row<T> rows[] = {
      {"l_wire_ns", "l-wire", &T::l_wire},
      {"d_switch_ns", "d-switch", &T::d_switch},
      {"ft_radix", "ft-radix", &T::ft_radix},
      {"df_groups", "df-groups", &T::df_groups},
      {"df_routers", "df-routers", &T::df_routers},
      {"df_hosts", "df-hosts", &T::df_hosts},
  };
};

/// analyze and sweep share one shape; only the op tag differs.
template <typename R>
struct AnalyzeLikeSchema {
  static constexpr Row<R> rows[] = {
      {"app", "", &R::app},
      {"grid", "", &R::grid},
      {"threads", "threads", &R::threads},
  };
};
template <>
struct Schema<AnalyzeRequest> : AnalyzeLikeSchema<AnalyzeRequest> {};
template <>
struct Schema<SweepRequest> : AnalyzeLikeSchema<SweepRequest> {};

template <>
struct Schema<CampaignRequest> {
  using R = CampaignRequest;
  static constexpr Row<R> rows[] = {
      {"apps", "apps", &R::apps},
      {"ranks", "ranks", &R::ranks},
      {"scales", "scales", &R::scales},
      {"topologies", "topos", &R::topologies},
      {"nets", "nets", &R::nets},
      {"L_list", "L-list", &R::L_list, Mode::kSpelled},
      {"o_list", "o-list", &R::o_list, Mode::kSpelled},
      {"G_list", "G-list", &R::G_list, Mode::kSpelled},
      {"S_bytes", "S", &R::S, Mode::kOptional},
      {"grid", "", &R::grid},
      {"topo", "", &R::topo},
      {"mc_samples", "mc-samples", &R::mc_samples},
      {"seed", "seed", &R::seed},
      {"mc_sigma_L", "mc-sigma-L", &R::mc_sigma_L},
      {"mc_sigma_o", "mc-sigma-o", &R::mc_sigma_o},
      {"mc_sigma_G", "mc-sigma-G", &R::mc_sigma_G},
      {"mc_edge_sigma", "mc-edge-sigma", &R::mc_edge_sigma},
      {"mc_edge_bias", "mc-edge-bias", &R::mc_edge_bias},
      {"probe", "probe", &R::probe, Mode::kOptional},
      {"probe_runs", "probe-runs", &R::probe_runs, Mode::kPlain, "probe"},
      {"noise_sigma", "noise-sigma", &R::noise_sigma, Mode::kPlain, "probe"},
      {"threads", "threads", &R::threads},
  };
};

template <>
struct Schema<McRequest> {
  using R = McRequest;
  static constexpr Row<R> rows[] = {
      {"app", "", &R::app},
      {"grid", "", &R::grid},
      {"samples", "samples", &R::samples},
      {"seed", "seed", &R::seed},
      {"dist_L", "dist-L", &R::dist_L, Mode::kOptional},
      {"dist_o", "dist-o", &R::dist_o, Mode::kOptional},
      {"dist_G", "dist-G", &R::dist_G, Mode::kOptional},
      {"sigma_L", "sigma-L", &R::sigma_L},
      {"sigma_o", "sigma-o", &R::sigma_o},
      {"sigma_G", "sigma-G", &R::sigma_G},
      {"edge_sigma", "edge-sigma", &R::edge_sigma},
      {"edge_bias", "edge-bias", &R::edge_bias},
      {"bands", "bands", &R::bands},
      {"threads", "threads", &R::threads},
  };
};

template <>
struct Schema<TopoRequest> {
  using R = TopoRequest;
  static constexpr Row<R> rows[] = {
      {"app", "", &R::app},
      {"l_wire_ns", "l-wire", &R::l_wire},
      {"d_switch_ns", "d-switch", &R::d_switch},
      {"ft_radix", "ft-radix", &R::ft_radix},
      {"df_groups", "df-groups", &R::df_groups},
      {"df_routers", "df-routers", &R::df_routers},
      {"df_hosts", "df-hosts", &R::df_hosts},
  };
};

template <>
struct Schema<PlaceRequest> {
  using R = PlaceRequest;
  static constexpr Row<R> rows[] = {
      {"app", "", &R::app},
      {"l_wire_ns", "l-wire", &R::l_wire},
      {"d_switch_ns", "d-switch", &R::d_switch},
      {"ft_radix", "ft-radix", &R::ft_radix},
      {"max_rounds", "max-rounds", &R::max_rounds},
  };
};

template <typename S>
const Row<S>* find_row(std::string_view key) {
  for (const Row<S>& row : Schema<S>::rows) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// The row `row` requires (its gate); only called on gated rows.
template <typename S>
const Row<S>& gate_of(const Row<S>& row) {
  return *find_row<S>(row.gate);
}

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Whether a member holds a value, as opposed to "absent".
template <typename S>
bool row_set(const S& s, const Row<S>& row) {
  return std::visit(
      [&](auto m) {
        const auto& v = s.*m;
        if constexpr (kIsOptional<std::remove_cvref_t<decltype(v)>>) {
          return v.has_value();
        } else if constexpr (requires { v.empty(); }) {
          return row.mode == Mode::kPlain || !v.empty();
        }
        return true;
      },
      row.member);
}

/// Request `op` with every field at its default.
template <std::size_t... I>
Request blank_request(std::size_t op, std::index_sequence<I...>) {
  static const Request kBlank[] = {Request(std::in_place_index<I>)...};
  if (op >= std::size(kBlank)) {
    throw UsageError(strformat("unknown op index %zu", op));
  }
  return kBlank[op];
}
Request blank_request(std::size_t op) {
  return blank_request(op,
                       std::make_index_sequence<std::variant_size_v<Request>>());
}

// ---------------------------------------------------------------------------
// Serialization: `", "` / `": "` separators matching the core/report
// emitters.
// ---------------------------------------------------------------------------

template <Object S>
void put_members(std::string& out, const S& s, bool first);

template <typename T>
void put(std::string& out, const T& v) {
  if constexpr (kIsOptional<T>) {
    put(out, *v);
  } else if constexpr (kIsVector<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ", ";
      put(out, v[i]);
    }
    out += ']';
  } else if constexpr (Object<T>) {
    out += '{';
    put_members(out, v, /*first=*/true);
    out += '}';
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += '"' + json_escape_string(v) + '"';
  } else if constexpr (std::is_same_v<T, double>) {
    out += json_double(v);
  } else {
    out += std::to_string(v);
  }
}

template <Object S>
void put_members(std::string& out, const S& s, bool first) {
  for (const Row<S>& row : Schema<S>::rows) {
    if (!row_set(s, row)) continue;
    if (!row.gate.empty() && !row_set(s, gate_of(row))) continue;
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += row.key;
    out += "\": ";
    std::visit([&](auto m) { put(out, s.*m); }, row.member);
  }
}

// ---------------------------------------------------------------------------
// Parsing.  One generic decoder applies the presence rules — unknown-field
// rejection, explicitly empty optionals, gated fields without their gate —
// over two sources: a JSON object level (spelled by key) and the flat CLI
// flag map (spelled by flag).
// ---------------------------------------------------------------------------

template <typename Source, Object S>
void decode(const Source& src, S& s) {
  const auto spelling = [](const Row<S>& r) {
    return Source::kByFlag ? r.flag : r.key;
  };
  src.template check_keys<S>();
  for (const Row<S>& row : Schema<S>::rows) {
    std::visit(
        [&](auto m) {
          auto& v = s.*m;
          using T = std::remove_reference_t<decltype(v)>;
          const std::string_view id = spelling(row);
          if constexpr (Object<T>) {
            if (const auto sub = src.nested(row.key)) decode(*sub, v);
          } else if (src.has(id)) {
            if (!row.gate.empty() && !src.has(spelling(gate_of(row)))) {
              src.fail(id, "given without " + src.name(spelling(gate_of(row))));
            }
            src.read(id, row.mode, v);
            if constexpr (std::is_same_v<T, std::string>) {
              if (row.mode == Mode::kOptional && v.empty()) {
                src.fail(id, "empty value");
              }
            }
          }
        },
        row.member);
  }
}

/// One object level of a JSON request; errors name its path
/// ("request.app.ranks").
class JsonSource {
 public:
  JsonSource(const JsonValue& obj, std::string ctx, bool top)
      : obj_(obj), ctx_(std::move(ctx)), top_(top) {
    (void)obj_.members(ctx_);  // raises if not an object
  }

  static constexpr bool kByFlag = false;  ///< fields are spelled by key
  bool has(std::string_view key) const { return obj_.find(key) != nullptr; }
  static std::string name(std::string_view key) {
    return '"' + std::string(key) + '"';
  }
  [[noreturn]] void fail(std::string_view key, const std::string& msg) const {
    throw UsageError("json: " + path(key) + ": " + msg);
  }

  template <typename S>
  void check_keys() const {
    for (const auto& [k, v] : obj_.members(ctx_)) {
      if (!(top_ && k == "op") && find_row<S>(k) == nullptr) {
        throw UsageError(strformat("json: unknown field \"%s\" in %s",
                                   k.c_str(), ctx_.c_str()));
      }
    }
  }

  std::optional<JsonSource> nested(std::string_view key) const {
    const JsonValue* v = obj_.find(key);
    if (v == nullptr) return std::nullopt;
    return JsonSource(*v, path(key), false);
  }

  template <typename T>
  void read(std::string_view key, Mode mode, T& out) const {
    value(*obj_.find(key), path(key), mode, out);
  }

 private:
  std::string path(std::string_view key) const {
    return ctx_ + "." + std::string(key);
  }

  template <typename T>
  static void value(const JsonValue& v, const std::string& what, Mode mode,
                    T& out) {
    if constexpr (kIsOptional<T>) {
      value(v, what, mode, out.emplace());
    } else if constexpr (kIsVector<T>) {
      const std::string elem = what + "[]";
      out.clear();
      for (const JsonValue& e : v.as_array(what)) {
        value(e, elem, mode, out.emplace_back());
      }
    } else if constexpr (std::is_same_v<T, int>) {
      const double d = v.as_number(what);
      if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
          d > std::numeric_limits<int>::max()) {
        throw UsageError(
            strformat("json: %s: expected an integer", what.c_str()));
      }
      out = static_cast<int>(d);
    } else if constexpr (std::is_same_v<T, double>) {
      out = v.as_number(what);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      out = v.as_unsigned(what);
    } else if (mode == Mode::kSpelled &&
               v.kind() == JsonValue::Kind::kNumber) {
      out = json_double(v.as_number(what));  // shortest round-trip form
    } else {
      out = v.as_string(what);
    }
  }

  const JsonValue& obj_;
  std::string ctx_;
  bool top_;
};

/// The CLI's flat `--flag=value` map: nested objects share it; lists are
/// comma-separated with blank entries dropped.
class FlagSource {
 public:
  explicit FlagSource(const Cli& cli) : cli_(cli) {}

  static constexpr bool kByFlag = true;
  bool has(std::string_view flag) const { return cli_.has(std::string(flag)); }
  static std::string name(std::string_view flag) {
    return "--" + std::string(flag);
  }
  [[noreturn]] static void fail(std::string_view flag, const std::string& msg) {
    throw UsageError(name(flag) + ": " + msg);
  }
  template <typename S>
  void check_keys() const {}  // `llamp` rejects unknown flags up front
  std::optional<FlagSource> nested(std::string_view) const { return *this; }

  template <typename T>
  void read(std::string_view flag, Mode, T& out) const {
    const std::string text = cli_.get(std::string(flag), "");
    if constexpr (kIsOptional<T>) {
      out = element<typename T::value_type>(flag, text);
    } else if constexpr (kIsVector<T>) {
      out.clear();
      for (const auto& field : split(text, ',')) {
        const std::string f(trim(field));
        if (!f.empty()) out.push_back(element<typename T::value_type>(flag, f));
      }
      if (out.empty()) fail(flag, "empty list");
    } else {
      out = element<T>(flag, text);
    }
  }

 private:
  /// One scalar flag value or list entry.
  template <typename E>
  static E element(std::string_view flag, const std::string& text) {
    try {
      if constexpr (std::is_same_v<E, std::string>) {
        return text;
      } else if constexpr (std::is_same_v<E, int>) {
        return parse_int(text);
      } else if constexpr (std::is_same_v<E, double>) {
        return parse_double(text);
      } else if (const auto v = parse_u64(trim(text))) {
        return *v;
      }
    } catch (const Error&) {
    }
    fail(flag, "bad value '" + text + "'");
  }

  const Cli& cli_;
};

template <Object S>
void collect_fields(const std::string& prefix, std::vector<FieldInfo>& out) {
  for (const Row<S>& row : Schema<S>::rows) {
    const std::string path = prefix + std::string(row.key);
    std::visit(
        [&](auto m) {
          using T = std::remove_cvref_t<decltype(std::declval<S&>().*m)>;
          if constexpr (Object<T>) {
            collect_fields<T>(path + ".", out);
          } else {
            out.push_back({path, row.flag,
                           row.gate.empty() ? "" : gate_of(row).flag});
          }
        },
        row.member);
  }
}

/// Parse a JSON request; `route` (may be empty) is the op an HTTP path
/// names, which a present "op" tag must match.
Request parse_json(std::string_view json, std::string_view route) {
  const JsonValue doc = JsonValue::parse(json);
  const JsonSource src(doc, "request", /*top=*/true);
  const JsonValue* tag = doc.find("op");
  if (!tag && route.empty()) {
    throw UsageError("json: request is missing \"op\"");
  }
  const std::string_view op = tag ? tag->as_string("request.op") : route;
  if (!route.empty() && op != route) {
    throw UsageError("json: request \"op\" is \"" + std::string(op) +
                     "\" but this endpoint is \"" + std::string(route) + "\"");
  }
  const std::optional<std::size_t> index = op_index(op);
  if (!index) {
    std::string want;
    for (const std::string_view name : kOpNames) {
      if (!want.empty()) want += ", ";
      want += name;
    }
    throw UsageError("json: unknown op \"" + std::string(op) +
                     "\" (want one of " + want + ")");
  }
  Request req = blank_request(*index);
  std::visit([&](auto& r) { decode(src, r); }, req);
  return req;
}

}  // namespace

std::optional<std::size_t> op_index(std::string_view name) {
  for (std::size_t i = 0; i < kOpNames.size(); ++i) {
    if (kOpNames[i] == name) return i;
  }
  return std::nullopt;
}

const char* op_name(const Request& req) { return kOpNames[req.index()].data(); }

std::string to_json(const Request& req) {
  std::string out = "{\"op\": \"";
  out += kOpNames[req.index()];
  out += '"';
  std::visit([&](const auto& r) { put_members(out, r, /*first=*/false); },
             req);
  out += '}';
  return out;
}

Request parse_request(std::string_view json) { return parse_json(json, ""); }

Request parse_request_for_op(std::string_view op, std::string_view json) {
  return parse_json(json, op);
}

Request request_from_flags(std::size_t op, const Cli& cli) {
  Request req = blank_request(op);
  std::visit([&](auto& r) { decode(FlagSource(cli), r); }, req);
  return req;
}

std::vector<FieldInfo> request_fields(std::size_t op) {
  std::vector<FieldInfo> out;
  std::visit(
      [&](const auto& r) {
        collect_fields<std::remove_cvref_t<decltype(r)>>("", out);
      },
      blank_request(op));
  return out;
}

}  // namespace llamp::api
