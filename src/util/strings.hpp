#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llamp {

/// Split `s` on `delim`, keeping empty fields (mirrors the liballprof trace
/// format where consecutive colons are significant).
std::vector<std::string> split(std::string_view s, char delim);

/// Split on whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse helpers that raise llamp::Error with context on failure instead of
/// silently returning 0 like std::atoi.
long long parse_ll(std::string_view s);
/// Exact read of a plain decimal into the full u64 range: digits only (no
/// sign, blank or exponent), at most 2^64 - 1; nullopt otherwise.  The one
/// rule for u64 request fields, from JSON and from CLI flags alike.
std::optional<std::uint64_t> parse_u64(std::string_view s);
/// parse_ll narrowed to int; out-of-range values raise instead of wrapping.
int parse_int(std::string_view s);
double parse_double(std::string_view s);

/// printf-style formatting into std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable quantities for report output, e.g. "48.3 M", "1.2 k".
std::string human_count(double v);
/// Format nanoseconds with an adaptive unit, e.g. "3.0 us", "1.50 ms".
std::string human_time_ns(double t_ns);

}  // namespace llamp
