// Robustness sweeps: randomly mutated inputs must never crash the parsers
// or solvers — every failure surfaces as a typed Error.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "lp/lp_format.h"
#include "lp/lp_engine.h"
#include "model/instance_io.h"

namespace etransform {
namespace {

/// Applies `count` random single-character mutations (replace, delete,
/// insert) to `text`.
std::string mutate(Rng& rng, std::string text, int count) {
  const std::string alphabet =
      "abcxyz0123456789 .+-<>=\n\t#_";
  for (int k = 0; k < count && !text.empty(); ++k) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const char c = alphabet[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    switch (rng.uniform_int(0, 2)) {
      case 0: text[pos] = c; break;
      case 1: text.erase(pos, 1); break;
      default: text.insert(pos, 1, c); break;
    }
  }
  return text;
}

class LpParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpParserFuzz, MutatedLpFilesNeverCrash) {
  Rng rng(GetParam());
  // Start from a valid file so mutations explore near-valid space.
  lp::Model m;
  const int x = m.add_continuous("x", 0.0, 4.0);
  const int y = m.add_binary("y");
  m.set_objective(lp::Sense::kMinimize, {{x, 1.5}, {y, -2.0}}, 3.0);
  m.add_constraint("c1", {{x, 1.0}, {y, 2.0}}, lp::Relation::kLessEqual, 5.0);
  m.add_constraint("c2", {{x, -1.0}}, lp::Relation::kGreaterEqual, -3.0);
  const std::string base = lp::write_lp(m);
  for (int round = 0; round < 40; ++round) {
    const std::string mutated =
        mutate(rng, base, 1 + static_cast<int>(rng.uniform_int(0, 8)));
    try {
      const lp::Model parsed = lp::parse_lp(mutated);
      // If it parsed, it must also solve without crashing.
      SolveContext ctx;
      (void)lp::LpEngine().solve(parsed, ctx);
    } catch (const Error&) {
      // Typed rejection is the expected outcome for broken inputs.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpParserFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

class InstanceParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InstanceParserFuzz, MutatedInstanceFilesNeverCrash) {
  Rng rng(GetParam() + 100);
  Rng gen(7);
  const std::string base = write_instance(make_random_instance(gen, 5, 3, 2));
  for (int round = 0; round < 30; ++round) {
    const std::string mutated =
        mutate(rng, base, 1 + static_cast<int>(rng.uniform_int(0, 10)));
    ConsolidationInstance parsed;
    try {
      parsed = parse_instance(mutated);
    } catch (const Error&) {
      // ParseError / InvalidInputError / InfeasibleError are all fine.
      continue;
    }
    // Whatever parses is canonical after one write: write -> parse -> write
    // is a byte fixed point (the daemon's cache key relies on it).
    const std::string canonical = write_instance(parsed);
    EXPECT_EQ(write_instance(parse_instance(canonical)), canonical);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstanceParserFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(SolutionParserFuzz, MutatedSolutionFilesNeverCrash) {
  Rng rng(55);
  const std::string base = "status optimal\nobjective 12.5\nx 1\ny 0\n";
  for (int round = 0; round < 200; ++round) {
    const std::string mutated =
        mutate(rng, base, 1 + static_cast<int>(rng.uniform_int(0, 6)));
    try {
      (void)lp::parse_solution(mutated);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace etransform
