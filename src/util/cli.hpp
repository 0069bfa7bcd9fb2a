#pragma once

#include <map>
#include <string>
#include <vector>

namespace llamp {

/// Tiny `--key=value` / `--flag` argument parser shared by the examples and
/// benchmark harnesses.  Unrecognized positional arguments are kept in
/// order; `--help` handling is left to callers.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  /// get_int narrowed to int: out-of-range values are usage errors.
  int get_int32(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace llamp
