#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock milliseconds (only differences are meaningful).
double now_ms();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// 64-bit FNV-1a, chained through `h` (request-stream digests and response
/// byte fingerprints).
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 14695981039346656037ull);
std::string hex64(std::uint64_t v);

/// Peak resident set of this process so far [MiB] (getrusage ru_maxrss).
double peak_rss_mb();
/// User + system CPU time of this process so far [s].
double cpu_seconds();

/// Environment stamp printed with every result: CPU model, nproc, compiler
/// and build type (util/build_info), so numbers are never compared blind
/// against results from other hardware.
struct Env {
  std::string cpu_model;
  int nproc = 0;
  std::string version;
  std::string compiler;
  std::string build_type;
};
Env environment();

}  // namespace perfbench
