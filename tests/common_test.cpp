// Unit tests for the common utilities: RNG determinism and distributions,
// money/table formatting, string helpers, exact number text, CSV escaping,
// strong ids.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/money.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/table.h"

namespace etransform {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidInputError);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    counts[rng.weighted_index(weights)]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), InvalidInputError);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), InvalidInputError);
}

TEST(SplitTotalLognormal, SumsExactlyAndRespectsMinimum) {
  Rng rng(23);
  const auto shares = split_total_lognormal(rng, 1070, 190, 1.0, 1.0, 1);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), 0), 1070);
  for (const int s : shares) EXPECT_GE(s, 1);
}

TEST(SplitTotalLognormal, HeavyTailProducesSpread) {
  Rng rng(29);
  const auto shares = split_total_lognormal(rng, 10000, 100, 1.0, 1.2, 1);
  const auto [lo, hi] = std::minmax_element(shares.begin(), shares.end());
  EXPECT_GT(*hi, 4 * *lo);
}

TEST(SplitTotalLognormal, RejectsImpossibleTotals) {
  Rng rng(1);
  EXPECT_THROW(split_total_lognormal(rng, 5, 10, 0.0, 1.0, 1),
               InvalidInputError);
  EXPECT_THROW(split_total_lognormal(rng, 10, 0, 0.0, 1.0, 1),
               InvalidInputError);
}

TEST(Money, FormatsWithThousandsSeparators) {
  EXPECT_EQ(format_money(0.0), "$0.00");
  EXPECT_EQ(format_money(1234567.891), "$1,234,567.89");
  EXPECT_EQ(format_money(-42.5), "-$42.50");
  EXPECT_EQ(format_money(999.994), "$999.99");
}

TEST(Money, CompactSuffixes) {
  EXPECT_EQ(format_money_compact(1500.0), "$1.50K");
  EXPECT_EQ(format_money_compact(2.5e6), "$2.50M");
  EXPECT_EQ(format_money_compact(3.2e9), "$3.20B");
  EXPECT_EQ(format_money_compact(-1.0e6), "-$1.00M");
  EXPECT_EQ(format_money_compact(12.0), "$12.00");
}

TEST(Strings, TrimRemovesEdges) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto fields = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with_icase("Subject To", "subject"));
  EXPECT_FALSE(starts_with_icase("Sub", "subject"));
  EXPECT_TRUE(equals_icase("END", "end"));
  EXPECT_FALSE(equals_icase("end", "ends"));
}

TEST(Strings, SplitWhitespaceIntoReusesTheVector) {
  std::vector<std::string> fields;
  split_whitespace(" site.latency dc0 1 2 ", fields);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[3], "2");
  split_whitespace("end", fields);
  EXPECT_EQ(fields, std::vector<std::string>{"end"});
  split_whitespace(" \t\r", fields);
  EXPECT_TRUE(fields.empty());
}

// ---- exact number text ------------------------------------------------------

/// The snprintf/sscanf round trip append_round_trip replaced, kept as its
/// oracle.
std::string printf_round_trip(double value) {
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char raw[64];
  std::snprintf(raw, sizeof(raw), "%.12g", value);
  double reparsed = 0.0;
  std::sscanf(raw, "%lf", &reparsed);
  if (reparsed == value) return raw;
  std::snprintf(raw, sizeof(raw), "%.17g", value);
  return raw;
}

/// What the .etf parsers accepted before parse_double: std::stod, with
/// every character consumed.
std::optional<double> stod_oracle(const std::string& field) {
  try {
    std::size_t used = 0;
    const double value = std::stod(field, &used);
    if (used == field.size()) return value;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Same outcome and, when accepted, the same bits (any NaN of one sign
/// matches any other).
bool same_reading(const std::optional<double>& a,
                  const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (std::isnan(*a) || std::isnan(*b)) {
    return std::isnan(*a) && std::isnan(*b) &&
           std::signbit(*a) == std::signbit(*b);
  }
  return std::bit_cast<std::uint64_t>(*a) == std::bit_cast<std::uint64_t>(*b);
}

TEST(RoundTripFormat, SpellsValuesLikePrintf) {
  EXPECT_EQ(format_round_trip(0.1), "0.1");
  EXPECT_EQ(format_round_trip(730), "730");
  EXPECT_EQ(format_round_trip(1e20), "1e+20");
  EXPECT_EQ(format_round_trip(1.5e-5), "1.5e-05");
  EXPECT_EQ(format_round_trip(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(format_round_trip(-0.0), "-0");
  EXPECT_EQ(format_round_trip(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(format_round_trip(-std::numeric_limits<double>::infinity()),
            "-inf");
  std::string out = "x=";
  append_round_trip(out, 2.5);
  EXPECT_EQ(out, "x=2.5");
}

TEST(RoundTripFormat, MatchesPrintfOracleOnAMillionDoubles) {
  std::mt19937_64 bits(20121);
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon()};
  values.reserve(1'100'000);
  for (int k = 0; k < 300'000; ++k) {  // random bit patterns, NaNs included
    values.push_back(std::bit_cast<double>(bits()));
  }
  for (int k = 0; k < 100'000; ++k) {  // subnormals
    values.push_back(std::bit_cast<double>(
        (bits() & 0x800F'FFFF'FFFF'FFFFull) | (k == 0 ? 1u : 0u)));
  }
  for (int k = 0; k < 200'000; ++k) {  // integers, small and up to 2^53
    const std::uint64_t n = k % 2 == 0 ? bits() % 100'000 : bits() >> 11;
    values.push_back(k % 4 < 2 ? static_cast<double>(n)
                               : -static_cast<double>(n));
  }
  for (int k = 0; k < 100'000; ++k) {
    // The 12/17-digit boundary: a 12-digit decimal and its neighbours.
    char text[40];
    std::snprintf(text, sizeof(text), "%llu.%011llue%d",
                  static_cast<unsigned long long>(1 + bits() % 9),
                  static_cast<unsigned long long>(bits() % 100'000'000'000ull),
                  static_cast<int>(bits() % 601) - 300);
    const double v = std::strtod(text, nullptr);
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, 1e308));
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int k = 0; k < 200'000; ++k) {  // datagen-like prices and latencies
    const double scale = std::pow(10.0, static_cast<int>(bits() % 13) - 6);
    values.push_back(unit(bits) * scale);
  }
  ASSERT_GE(values.size(), 1'000'000u);
  int mismatches = 0;
  std::string out;
  for (const double v : values) {
    out.clear();
    append_round_trip(out, v);
    const std::string expected = printf_round_trip(v);
    if (out != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": got "
                    << out << ", oracle " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ParseDouble, SpellingTableMatchesStod) {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* text;
    std::optional<double> value;
  };
  const Case cases[] = {
      {"5", 5.0},
      {"-5", -5.0},
      {"+5", 5.0},
      {"0x10", 16.0},
      {"5.", 5.0},
      {".5", 0.5},
      {"-.5", -0.5},
      {"1e", std::nullopt},
      {"1e+", std::nullopt},
      {"1e5x", std::nullopt},
      {"1e-310", std::nullopt},    // subnormal: stod's out_of_range
      {"4.9e-324", std::nullopt},  // subnormal: stod's out_of_range
      {"1e-400", std::nullopt},    // underflows to zero
      {"1e999", std::nullopt},     // overflows
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"infinity", inf},
      {"inf", inf},
      {"-inf", -inf},
      {"-0", -0.0},
      {"00012", 12.0},
      {"2.2250738585072011e-308", std::nullopt},  // just below DBL_MIN
      {"2.2250738585072014e-308", std::numeric_limits<double>::min()},
      {"1.7976931348623157e308", std::numeric_limits<double>::max()},
      {"0e999", 0.0},
      {"", std::nullopt},
      {"-", std::nullopt},
      {" 5", 5.0},
      {"5 ", std::nullopt},
      {"1.5E+3", 1500.0},
      {"3.058157767851759e-06", 3.058157767851759e-06},
  };
  for (const Case& c : cases) {
    const std::optional<double> got = parse_double(c.text);
    EXPECT_TRUE(same_reading(got, c.value)) << "'" << c.text << "'";
    EXPECT_TRUE(same_reading(got, stod_oracle(c.text))) << "'" << c.text
                                                        << "'";
  }
}

TEST(ParseDouble, AgreesWithStodOnFormattedAndMutatedText) {
  std::mt19937_64 bits(744);
  const std::string alphabet = "0123456789eE.+-xXpPinfaINFA #";
  int mismatches = 0;
  for (int k = 0; k < 200'000; ++k) {
    std::string text = format_round_trip(std::bit_cast<double>(bits()));
    if (k % 2 == 1) {  // one random edit: replace, delete or insert
      const std::size_t pos = bits() % text.size();
      const char c = alphabet[bits() % alphabet.size()];
      switch (bits() % 3) {
        case 0: text[pos] = c; break;
        case 1: text.erase(pos, 1); break;
        default: text.insert(pos, 1, c); break;
      }
    }
    if (!same_reading(parse_double(text), stod_oracle(text)) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "'" << text << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"x", "y"});
  writer.write_row({"1", "2,3"});
  EXPECT_EQ(out.str(), "x,y\n1,\"2,3\"\n");
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "cost"});
  table.add_row({"alpha", "$10.00"});
  table.add_row({"b", "$1,000.00"});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("$1,000.00"), std::string::npos);
  // All lines equally wide for data rows.
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidInputError);
  EXPECT_THROW(TextTable({}), InvalidInputError);
}

TEST(FormatHelpers, DoubleAndPercent) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_percent(-43.21), "-43.2%");
  EXPECT_EQ(format_percent(12.0), "+12.0%");
}

TEST(StrongId, DistinctTypesAndOrdering) {
  const GroupId g1(1);
  const GroupId g2(2);
  EXPECT_LT(g1, g2);
  EXPECT_EQ(GroupId(3), GroupId(3));
  EXPECT_EQ(g1.value(), 1u);
  static_assert(!std::is_convertible_v<GroupId, SiteId>);
  static_assert(!std::is_convertible_v<std::size_t, GroupId>);
}

}  // namespace
}  // namespace etransform
