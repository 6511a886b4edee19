// Property tests for the LP substrate on randomized models:
//  * write_lp -> parse_lp preserves solver outcomes exactly,
//  * optimal primal solutions are feasible,
//  * weak duality and dual sign conventions hold on standard-form LPs,
//  * MILP optima survive the file round-trip.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "lp/lp_format.h"
#include "lp/model.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"
#include "milp/cuts.h"

namespace etransform::lp {
namespace {

/// Random model with mixed bound styles (finite, infinite, fixed, free) and
/// mixed row relations, kept bounded below via box upper bounds.
Model random_model(Rng& rng, bool with_integers) {
  Model m;
  const int vars = static_cast<int>(rng.uniform_int(2, 8));
  const int rows = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    const double style = rng.uniform();
    double lower = 0.0;
    double upper = rng.uniform(1.0, 10.0);
    if (style < 0.15) {
      lower = rng.uniform(-5.0, 0.0);
    } else if (style < 0.25) {
      lower = upper = rng.uniform(0.0, 5.0);  // fixed
    }
    const bool integer = with_integers && rng.uniform() < 0.5;
    const int v = m.add_variable("v" + std::to_string(j), lower, upper,
                                 integer);
    objective.push_back({v, rng.uniform(-5.0, 5.0)});
  }
  m.set_objective(rng.uniform() < 0.5 ? Sense::kMinimize : Sense::kMaximize,
                  objective, rng.uniform(-10.0, 10.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.5) terms.push_back({j, rng.uniform(-3.0, 3.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double pick = rng.uniform();
    const Relation rel = pick < 0.5   ? Relation::kLessEqual
                         : pick < 0.8 ? Relation::kGreaterEqual
                                      : Relation::kEqual;
    // rhs near the achievable range keeps a decent feasibility rate.
    m.add_constraint("r" + std::to_string(i), terms, rel,
                     rng.uniform(-5.0, 15.0));
  }
  return m;
}

class LpRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRoundTripProperty, SolverOutcomeSurvivesFileFormat) {
  Rng rng(GetParam());
  const Model original = random_model(rng, /*with_integers=*/false);
  const Model reparsed = parse_lp(write_lp(original));
  LpEngine solver;
  SolveContext ctx;
  const auto a = solver.solve(original, ctx);
  const auto b = solver.solve(reparsed, ctx);
  ASSERT_EQ(a.status, b.status);
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective,
                1e-6 * std::max(1.0, std::abs(a.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRoundTripProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

class SimplexFeasibilityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexFeasibilityProperty, OptimalPointsAreFeasible) {
  Rng rng(GetParam() + 10000);
  const Model m = random_model(rng, /*with_integers=*/false);
  LpEngine solver;
  SolveContext ctx;
  const auto s = solver.solve(m, ctx);
  if (s.status == SolveStatus::kOptimal) {
    EXPECT_TRUE(m.is_feasible(s.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexFeasibilityProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

class DualityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualityProperty, StandardFormDualsSatisfyStrongDuality) {
  // min c.x  st  Ax >= b, 0 <= x <= u.  With row duals y and reduced costs
  // d_j = c_j - y.A_j, LP duality gives the dual objective
  //     b.y + sum_j u_j * min(0, d_j)
  // (the second term carries the upper-bound multipliers), equal to c.x at
  // the optimum. Duals of >= rows in a minimization are non-negative.
  Rng rng(GetParam() + 20000);
  Model m;
  const int vars = static_cast<int>(rng.uniform_int(2, 6));
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<double> cost(static_cast<std::size_t>(vars));
  std::vector<double> upper(static_cast<std::size_t>(vars));
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    upper[static_cast<std::size_t>(j)] = rng.uniform(5.0, 20.0);
    cost[static_cast<std::size_t>(j)] = rng.uniform(0.5, 5.0);
    const int v = m.add_continuous("x" + std::to_string(j), 0.0,
                                   upper[static_cast<std::size_t>(j)]);
    objective.push_back({v, cost[static_cast<std::size_t>(j)]});
  }
  m.set_objective(Sense::kMinimize, objective);
  std::vector<double> rhs(static_cast<std::size_t>(rows));
  std::vector<std::vector<double>> a(
      static_cast<std::size_t>(rows),
      std::vector<double>(static_cast<std::size_t>(vars)));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          rng.uniform(0.0, 3.0);
      terms.push_back(
          {j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]});
    }
    rhs[static_cast<std::size_t>(i)] = rng.uniform(1.0, 10.0);
    m.add_constraint("r" + std::to_string(i), terms, Relation::kGreaterEqual,
                     rhs[static_cast<std::size_t>(i)]);
  }
  LpEngine solver;
  SolveContext ctx;
  const auto s = solver.solve(m, ctx);
  if (s.status != SolveStatus::kOptimal) return;  // rare: infeasible draw
  double dual_value = 0.0;
  for (int i = 0; i < rows; ++i) {
    EXPECT_GE(s.duals[static_cast<std::size_t>(i)], -1e-7);
    dual_value +=
        s.duals[static_cast<std::size_t>(i)] * rhs[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < vars; ++j) {
    double reduced = cost[static_cast<std::size_t>(j)];
    for (int i = 0; i < rows; ++i) {
      reduced -= s.duals[static_cast<std::size_t>(i)] *
                 a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    dual_value += upper[static_cast<std::size_t>(j)] * std::min(0.0, reduced);
  }
  EXPECT_NEAR(dual_value, s.objective,
              1e-5 * std::max(1.0, std::abs(s.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualityProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

class MilpRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MilpRoundTripProperty, MilpOptimaSurviveFileFormat) {
  Rng rng(GetParam() + 30000);
  const Model original = random_model(rng, /*with_integers=*/true);
  const Model reparsed = parse_lp(write_lp(original));
  milp::SolverOptions options;
  options.search.time_limit_ms = 5000;
  const milp::BranchAndBoundSolver solver(options);
  SolveContext ctx;
  const auto a = solver.solve(original, ctx);
  const auto b = solver.solve(reparsed, ctx);
  ASSERT_EQ(a.status, b.status);
  if (a.status == milp::MilpStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective,
                1e-6 * std::max(1.0, std::abs(a.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRoundTripProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

/// Cut validity: a separator may only emit inequalities satisfied by every
/// integer-feasible point. These instances are pure-integer with tiny box
/// domains, so the whole feasible lattice is enumerable and the property can
/// be checked exhaustively rather than just at one optimum.
class CutValidityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutValidityProperty, NoCutRemovesAnyFeasibleIntegerPoint) {
  Rng rng(GetParam() + 40000);
  Model m;
  const int vars = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<int> box;
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    // Mix binaries and small general integers so the Gomory rounding sees
    // both; positive row coefficients below keep cover detection in play.
    const int up = static_cast<int>(rng.uniform_int(1, 4));
    m.add_variable("v" + std::to_string(j), 0.0, up, /*integer=*/true);
    box.push_back(up);
    objective.push_back({j, rng.uniform(-5.0, 5.0)});
  }
  m.set_objective(rng.uniform() < 0.5 ? Sense::kMinimize : Sense::kMaximize,
                  objective);
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double loose_rhs = 0.0;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.75) {
        const double coef = rng.uniform(0.5, 4.0);
        terms.push_back({j, coef});
        loose_rhs += coef * box[static_cast<std::size_t>(j)];
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    // A rhs strictly inside the achievable range so the row actually binds.
    m.add_constraint("r" + std::to_string(i), terms, Relation::kLessEqual,
                     loose_rhs * rng.uniform(0.25, 0.75));
  }

  const PreparedLp prep(m);
  std::vector<double> lower;
  std::vector<double> upper;
  for (int j = 0; j < vars; ++j) {
    lower.push_back(m.variable(j).lower);
    upper.push_back(m.variable(j).upper);
  }
  LpEngine solver;
  SolveContext ctx;
  const auto relax = solver.solve(prep, lower, upper, ctx);
  if (relax.status != SolveStatus::kOptimal) return;  // nothing to separate

  milp::SeparationContext sep;
  sep.model = &m;
  sep.prep = &prep;
  sep.lower = &lower;
  sep.upper = &upper;
  sep.options = milp::CutOptions{};
  milp::CutPool pool;
  milp::GomoryMixedIntegerCutGenerator gomory;
  milp::CoverCutGenerator cover;
  gomory.separate(sep, relax, pool);
  cover.separate(sep, relax, pool);

  // Non-vacuity canary: this seed is known to have a fractional relaxation
  // that yields cuts (26 of the 40 seeds do). If generation changes and the
  // suite silently stops separating anything, this trips.
  if (GetParam() == 3) {
    EXPECT_GE(pool.size(), 1);
  }

  // Every pooled cut must be violated where it was separated...
  for (const auto& cut : pool.cuts()) {
    EXPECT_GE(cut.violation, sep.options.min_violation)
        << cut.name << " entered the pool without a real violation";
  }

  // ...and satisfied at every feasible lattice point (exhaustive check).
  std::vector<double> point(static_cast<std::size_t>(vars), 0.0);
  bool done = false;
  while (!done) {
    if (m.is_feasible(point, 1e-9)) {
      for (const auto& cut : pool.cuts()) {
        EXPECT_TRUE(milp::cut_satisfied(cut, point, 1e-6))
            << cut.name << " cuts off a feasible integer point";
      }
    }
    // Odometer increment over the box domains.
    int j = 0;
    for (; j < vars; ++j) {
      auto& value = point[static_cast<std::size_t>(j)];
      if (value + 0.5 < box[static_cast<std::size_t>(j)]) {
        value += 1.0;
        break;
      }
      value = 0.0;
    }
    done = j == vars;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutValidityProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace etransform::lp
