#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace llamp {
namespace {

// ---------------------------------------------------------------------------
// util/math.hpp: the branch-free power-of-two helpers behind the batch
// kernel's tail dispatch (solve_batch splits a remainder of r lanes into
// last_pow2(r)-wide sub-blocks, except that r = 3 runs as one padded
// 4-lane block).
// ---------------------------------------------------------------------------

TEST(PowerOfTwo, LastPow2) {
  EXPECT_EQ(util::last_pow2(0u), 0u);
  EXPECT_EQ(util::last_pow2(1u), 1u);
  EXPECT_EQ(util::last_pow2(2u), 2u);
  EXPECT_EQ(util::last_pow2(3u), 2u);
  EXPECT_EQ(util::last_pow2(4u), 4u);
  EXPECT_EQ(util::last_pow2(5u), 4u);
  EXPECT_EQ(util::last_pow2(7u), 4u);
  EXPECT_EQ(util::last_pow2(8u), 8u);
  EXPECT_EQ(util::last_pow2(std::size_t{1} << 62), std::size_t{1} << 62);
  EXPECT_EQ(util::last_pow2((std::size_t{1} << 62) | 1u), std::size_t{1} << 62);
  EXPECT_EQ(util::last_pow2(~std::size_t{0}), std::size_t{1} << 63);
  // The exhaustive invariant on a small range: the result is the largest
  // power of two <= n.
  for (std::size_t n = 1; n < 300; ++n) {
    const std::size_t p = util::last_pow2(n);
    EXPECT_TRUE(util::is_pow2(p)) << n;
    EXPECT_LE(p, n) << n;
    EXPECT_GT(2 * p, n) << n;
  }
}

TEST(PowerOfTwo, RoundUpPow2) {
  EXPECT_EQ(util::round_up_pow2(0u), 1u);
  EXPECT_EQ(util::round_up_pow2(1u), 1u);
  EXPECT_EQ(util::round_up_pow2(2u), 2u);
  EXPECT_EQ(util::round_up_pow2(3u), 4u);
  EXPECT_EQ(util::round_up_pow2(5u), 8u);
  EXPECT_EQ(util::round_up_pow2(8u), 8u);
  EXPECT_EQ(util::round_up_pow2(9u), 16u);
  EXPECT_EQ(util::round_up_pow2((std::size_t{1} << 40) + 1),
            std::size_t{1} << 41);
  for (std::size_t n = 1; n < 300; ++n) {
    const std::size_t p = util::round_up_pow2(n);
    EXPECT_TRUE(util::is_pow2(p)) << n;
    EXPECT_GE(p, n) << n;
    EXPECT_LT(p / 2, n) << n;
  }
}

TEST(PowerOfTwo, IsPow2) {
  EXPECT_FALSE(util::is_pow2(0u));
  EXPECT_TRUE(util::is_pow2(1u));
  EXPECT_TRUE(util::is_pow2(2u));
  EXPECT_FALSE(util::is_pow2(3u));
  EXPECT_TRUE(util::is_pow2(std::size_t{1} << 63));
  EXPECT_FALSE(util::is_pow2((std::size_t{1} << 63) + 1));
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, EmptyInputs) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, Rmse) {
  const std::vector<double> m{10, 20, 30};
  const std::vector<double> p{11, 19, 31};
  EXPECT_NEAR(rmse(m, p), 1.0, 1e-12);
  EXPECT_NEAR(rrmse_percent(m, p), 100.0 * 1.0 / 20.0, 1e-12);
}

TEST(Stats, RmseErrors) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)rmse(a, b), Error);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)rrmse_percent(zeros, zeros), Error);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

// Pins the documented population-variance convention (divide by N): the
// sample estimator would give 5/3 for this input, not 1.25.
TEST(Stats, PopulationVarianceConvention) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_NE(variance(xs), 5.0 / 3.0);
  // Degenerate inputs: fewer than two elements have zero dispersion.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{7.0}), 0.0);

  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.variance(), 1.25);
  RunningStats one;
  one.add(7.0);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
}

// Pins the R-7 interpolation scheme: index = p/100 * (N-1), endpoint clamp.
TEST(Stats, PercentileInterpolationEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, -5), 10.0);    // clamps below 0
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);    // lands on an element
  EXPECT_DOUBLE_EQ(percentile(xs, 37.5), 25.0);  // interpolates halfway
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 120), 50.0);   // clamps above 100
  const std::vector<double> single{3.5};
  EXPECT_DOUBLE_EQ(percentile(single, 0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(single, 50), 3.5);
  EXPECT_DOUBLE_EQ(percentile(single, 100), 3.5);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto out = split("a::b:", ':');
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], "b");
  EXPECT_EQ(out[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto out = split_ws("  a \t b\nc  ");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseValidation) {
  EXPECT_EQ(parse_ll(" 42 "), 42);
  EXPECT_DOUBLE_EQ(parse_double("2.5e3"), 2500.0);
  EXPECT_THROW((void)parse_ll("4x"), Error);
  EXPECT_THROW((void)parse_ll(""), Error);
  EXPECT_THROW((void)parse_double("abc"), Error);
}

TEST(Strings, HumanFormats) {
  EXPECT_EQ(human_count(48'300'000.0), "48.3 M");
  EXPECT_EQ(human_time_ns(3'000.0), "3.000 us");
  EXPECT_EQ(human_time_ns(1.5e9), "1.500 s");
}

TEST(TimeUnits, Conversions) {
  EXPECT_DOUBLE_EQ(us(3.0), 3000.0);
  EXPECT_DOUBLE_EQ(ms(1.0), 1e6);
  EXPECT_DOUBLE_EQ(sec(2.0), 2e9);
  EXPECT_DOUBLE_EQ(to_us(1500.0), 1.5);
}

TEST(Table, AlignedRender) {
  Table t({"app", "T"});
  t.add_row({"milc", "8.1"});
  t.add_row({"lulesh2", "5"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("app"), std::string::npos);
  EXPECT_NE(s.find("lulesh2"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"x,y", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n\"x,y\",2\n");
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--runs=5", "--verbose", "positional",
                        "--ratio=2.5"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("runs", 0), 5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(RngDeterminism, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngDeterminism, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(RngDistribution, UniformMoments) {
  Rng rng(123);
  RunningStats rs;
  for (int i = 0; i < 20'000; ++i) rs.add(rng.uniform());
  EXPECT_NEAR(rs.mean(), 0.5, 0.01);
  EXPECT_NEAR(rs.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(RngDistribution, NormalMoments) {
  Rng rng(321);
  RunningStats rs;
  for (int i = 0; i < 20'000; ++i) rs.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(RngDistribution, SkipNormalLeavesTheStateNormalLeaves) {
  // skip_normal() advances past one normal() draw without computing it;
  // the streams that follow must be identical, seed after seed and across
  // runs of consecutive draws.
  for (std::uint64_t seed = 0; seed < 2'000; ++seed) {
    Rng drawn(seed);
    Rng skipped(seed);
    for (int k = 0; k < 3; ++k) {
      (void)drawn.normal();
      skipped.skip_normal();
      ASSERT_EQ(drawn.next_u64(), skipped.next_u64()) << "seed " << seed;
    }
  }
}

TEST(RngDistribution, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngDistribution, UniformIntDeterministicPerSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.uniform_int(0, 6), b.uniform_int(0, 6));
  }
}

// With rejection sampling every value of a non-power-of-two span is equally
// likely.  The second check uses a span of 0.75 * 2^63, where `next_u64() %
// span` would put only ~43.75% of the mass above the midpoint (the lowest
// two-thirds of the range is hit by three 64-bit words instead of two) —
// far outside the band below for the fixed seed.
TEST(RngDistribution, UniformIntUnbiased) {
  Rng rng(77);
  constexpr int kDraws = 27'000;
  int counts[9] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.uniform_int(0, 8)]++;
  for (int c : counts) {
    EXPECT_GT(c, 2'700);  // expectation 3000; loose 10x-sigma band
    EXPECT_LT(c, 3'300);
  }

  const std::int64_t hi = (std::int64_t{1} << 62) + (std::int64_t{1} << 61);
  int upper_half = 0;
  for (int i = 0; i < 40'000; ++i) {
    upper_half += rng.uniform_int(0, hi) > hi / 2;
  }
  EXPECT_GT(upper_half, 19'400);  // ~6 sigma around the unbiased 20'000;
  EXPECT_LT(upper_half, 20'600);  // the biased draw sits near 17'500
}


// ---------------------------------------------------------------------------
// The number writer (util/strings.hpp, json_double): byte-for-byte the
// printf forms it replaced.  The old two-pass strformat and the old
// json_double precision scan stay here as the reference.
// ---------------------------------------------------------------------------

std::string old_strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
std::string old_strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

/// printf's bytes for one number, on a stack buffer (the same bytes as
/// old_strformat, at half the cost: 2^20 values go through these).
std::string printf_number(const char* fmt, int prec, double v) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, prec, v);
  return buf;
}

/// The old json_double: scan %.6g .. %.17g for the first form strtod reads
/// back exactly.
std::string old_json_double(double v) {
  if (!std::isfinite(v)) return "null";
  for (int prec = 6; prec <= 17; ++prec) {
    std::string s = printf_number("%.*g", prec, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return printf_number("%.*g", 17, v);
}

/// Compares every writer against its reference over `values`; returns the
/// number of mismatches and describes the first few in `why`.  "%.1f" is
/// compared below 1e21 only (every time a cell holds): printing the 300
/// digits of a huge double is slow, and PowersOfTwo covers that range.
std::size_t writer_mismatches(const std::vector<double>& values,
                              std::string& why) {
  std::size_t bad = 0;
  const auto check = [&](double v, const std::string& want,
                         const std::string& got, const char* form) {
    if (want == got) return;
    if (++bad <= 5) {
      why += old_strformat("%s of bits %016llx: want '%s', got '%s'\n", form,
                           static_cast<unsigned long long>(
                               std::bit_cast<std::uint64_t>(v)),
                           want.c_str(), got.c_str());
    }
  };
  for (const double v : values) {
    check(v, old_json_double(v), json_double(v), "json_double");
    for (const int prec : {1, 6, 10, 17}) {
      std::string got;
      append_general(got, v, prec);
      check(v, printf_number("%.*g", prec, v), got, "%.Ng");
    }
    if (std::fabs(v) >= 1e21 && !std::isinf(v)) continue;
    std::string got;
    append_fixed(got, v, 1);
    check(v, printf_number("%.*f", 1, v), got, "%.1f");
  }
  return bad;
}

/// One of 16 shards of 2^20 fixed-seed random bit patterns (every class:
/// normals, subnormals, ±0, ±inf, NaNs), split so ctest runs them side by
/// side.
class NumberWriterRandomBits : public ::testing::TestWithParam<int> {};

TEST_P(NumberWriterRandomBits, MatchesOldFormatters) {
  constexpr std::size_t kShard = (std::size_t{1} << 20) / 16;
  Rng rng(0x6e756d62657273ULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values(kShard);
  for (double& v : values) v = std::bit_cast<double>(rng.next_u64());
  std::string why;
  EXPECT_EQ(writer_mismatches(values, why), 0u) << why;
}

INSTANTIATE_TEST_SUITE_P(Shards, NumberWriterRandomBits,
                         ::testing::Range(0, 16));

TEST(NumberWriter, PowersOfTwoAndNeighboursIncludingSubnormals) {
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  std::string why;
  EXPECT_EQ(writer_mismatches(values, why), 0u) << why;
  // "%.1f" across the whole range, huge values included.
  std::size_t bad = 0;
  for (const double v : values) {
    std::string got;
    append_fixed(got, v, 1);
    bad += got != old_strformat("%.1f", v);
  }
  EXPECT_EQ(bad, 0u);
}

TEST(NumberWriter, PowersOfTen) {
  std::vector<double> values;
  for (int e = -320; e <= 308; ++e) {
    values.push_back(std::strtod(old_strformat("1e%d", e).c_str(), nullptr));
  }
  std::string why;
  EXPECT_EQ(writer_mismatches(values, why), 0u) << why;
}

TEST(NumberWriter, IntegersAndDecimalGrids) {
  std::vector<double> values;
  for (int i = -1000; i <= 50000; ++i) {
    values.push_back(static_cast<double>(i));
    values.push_back(i * 1e-3);
    values.push_back(i * 1e7);
  }
  std::string why;
  EXPECT_EQ(writer_mismatches(values, why), 0u) << why;
}

// Above 2^53 the plain shortest to_chars form is fixed notation with every
// integer digit; json_double must count digits in the scientific form.
TEST(NumberWriter, IntegersFromTwoToThe53) {
  std::vector<double> values;
  Rng rng(53);
  for (int e = 53; e <= 127; ++e) {
    const double p = std::ldexp(1.0, e);
    for (int k = 0; k < 64; ++k) {
      values.push_back(p + std::ldexp(static_cast<double>(k), e - 52));
      values.push_back(std::ldexp(static_cast<double>(rng.next_u64() >> 11), e - 52));
    }
  }
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<double>(rng.next_u64()));
  }
  std::string why;
  EXPECT_EQ(writer_mismatches(values, why), 0u) << why;
}

TEST(NumberWriter, SignedZerosInfinitiesAndNaNs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::string why;
  EXPECT_EQ(writer_mismatches({0.0, -0.0, inf, -inf, nan, -nan}, why), 0u)
      << why;
  EXPECT_EQ(json_double(-0.0), "-0");
  EXPECT_EQ(json_double(nan), "null");
  std::string out = "x=";
  append_general(out, -nan, 10);
  EXPECT_EQ(out, "x=-nan");
}

TEST(NumberWriter, StrformatAroundTheStackBuffer) {
  for (const int width : {0, 1, 254, 255, 256, 257, 1000}) {
    const std::string got = strformat("%0*d", width, 7);
    EXPECT_EQ(got, old_strformat("%0*d", width, 7));
    EXPECT_EQ(got.size(), static_cast<std::size_t>(std::max(width, 1)));
  }
  const std::string s255(255, 'x');
  for (const char* tail : {"", "y", "yz"}) {
    EXPECT_EQ(strformat("%s%s", s255.c_str(), tail),
              old_strformat("%s%s", s255.c_str(), tail));
  }
}

TEST(NumberWriter, TableCellsKnowTheirType) {
  EXPECT_TRUE(Table::Cell::general(1.5, 10).number);
  EXPECT_EQ(Table::Cell::general(1.5, 10).text, "1.5");
  EXPECT_EQ(Table::Cell::fixed(2.25, 1).text, "2.2");
  EXPECT_EQ(Table::Cell::integer(std::size_t{42}).text, "42");
  EXPECT_TRUE(Table::Cell::integer(-3).number);
  EXPECT_FALSE(
      Table::Cell::general(std::numeric_limits<double>::infinity(), 10).number);
  EXPECT_FALSE(Table::Cell::fixed(std::nan(""), 1).number);
  EXPECT_FALSE(Table::Cell("12").number);
}

}  // namespace
}  // namespace llamp
