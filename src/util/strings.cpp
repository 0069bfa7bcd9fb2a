#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "util/error.hpp"

namespace llamp {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

long long parse_ll(std::string_view s) {
  s = trim(s);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw Error("parse_ll: invalid integer '" + std::string(s) + "'");
  }
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

int parse_int(std::string_view s) {
  const long long v = parse_ll(s);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw Error("parse_int: integer out of range '" + std::string(trim(s)) +
                "'");
  }
  return static_cast<int>(v);
}

double parse_double(std::string_view s) {
  s = trim(s);
  // strtod on purpose, not std::from_chars: from_chars rejects a leading
  // '+' and reports underflow as an error where strtod rounds to zero or a
  // subnormal, and both spellings reach here from CLI flags and JSON.
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    throw Error("parse_double: invalid number '" + copy + "'");
  }
  return v;
}

std::string strformat(const char* fmt, ...) {
  // One pass into a stack buffer; only longer output formats again into
  // the heap string.
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const auto len =
      static_cast<std::size_t>(std::vsnprintf(buf, sizeof buf, fmt, args));
  va_end(args);
  std::string out;
  if (len < sizeof buf) {
    out.assign(buf, len);
  } else {
    out.resize(len);
    std::vsnprintf(out.data(), len + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

namespace {

void append_to_chars(std::string& out, double v, std::chars_format format,
                     int precision) {
  // Room for any "%.Nf" with N <= 17 (sign, 309 integer digits, point,
  // fraction) and for every general form.
  char buf[336];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, format, precision);
  if (ec != std::errc()) throw Error("number writer: buffer too small");
  out.append(buf, end);
}

}  // namespace

void append_general(std::string& out, double v, int precision) {
  append_to_chars(out, v, std::chars_format::general, precision);
}

void append_fixed(std::string& out, double v, int precision) {
  append_to_chars(out, v, std::chars_format::fixed, precision);
}

std::string human_count(double v) {
  const double a = std::fabs(v);
  if (a >= 1e9) return strformat("%.1f G", v / 1e9);
  if (a >= 1e6) return strformat("%.1f M", v / 1e6);
  if (a >= 1e3) return strformat("%.1f k", v / 1e3);
  return strformat("%.0f", v);
}

std::string human_time_ns(double t_ns) {
  const double a = std::fabs(t_ns);
  if (a >= 1e9) return strformat("%.3f s", t_ns / 1e9);
  if (a >= 1e6) return strformat("%.3f ms", t_ns / 1e6);
  if (a >= 1e3) return strformat("%.3f us", t_ns / 1e3);
  return strformat("%.1f ns", t_ns);
}

}  // namespace llamp
