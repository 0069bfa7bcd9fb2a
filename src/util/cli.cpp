#include "util/cli.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp {
namespace {

/// A flag value that fails to parse is a usage error (exit 2 in the CLI
/// driver), named after the offending flag — never a bare parse Error that
/// would be reported as an analysis failure.
template <typename Fn>
auto parse_flag(const std::string& key, const std::string& value, Fn parse) {
  try {
    return parse(value);
  } catch (const Error&) {
    throw UsageError("bad --" + key + " value '" + value + "'");
  }
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "true";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long long Cli::get_int(const std::string& key, long long fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_flag(key, it->second,
                    [](const std::string& v) { return parse_ll(v); });
}

int Cli::get_int32(const std::string& key, int fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_flag(key, it->second,
                    [](const std::string& v) { return parse_int(v); });
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_flag(key, it->second,
                    [](const std::string& v) { return parse_double(v); });
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace llamp
