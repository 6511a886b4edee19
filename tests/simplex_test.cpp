// Tests for the bounded-variable two-phase simplex.
//
// Coverage: textbook LPs with known optima, equality/>= rows (phase 1),
// variable bound handling (upper, fixed, free, negative, shifted), infeasible
// and unbounded detection, degenerate problems, duals, maximization, bound
// overrides, and randomized property checks (objective matches a brute-force
// vertex enumeration on small dense LPs).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "lp/model.h"
#include "lp/lp_engine.h"

namespace etransform::lp {
namespace {

LpSolution solve(const Model& m) {
  LpEngine solver;
  SolveContext ctx;
  return solver.solve(m, ctx);
}

TEST(Simplex, TextbookTwoVariableMaximum) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj 36.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMaximize, {{x, 3.0}, {y, 5.0}});
  m.add_constraint("c1", {{x, 1.0}}, Relation::kLessEqual, 4.0);
  m.add_constraint("c2", {{y, 2.0}}, Relation::kLessEqual, 12.0);
  m.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGreaterEqualRowsNeedsPhase1) {
  // min 2x + 3y st x + y >= 4, x + 3y >= 6 -> x=3, y=1, obj 9.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMinimize, {{x, 2.0}, {y, 3.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 4.0);
  m.add_constraint("c2", {{x, 1.0}, {y, 3.0}}, Relation::kGreaterEqual, 6.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-6);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 1.0, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y + 3z st x + y + z = 10, x - y = 2, z <= 4.
  // Optimal pushes cost to x: z=0, x-y=2, x+y=10 -> x=6, y=4, obj 14.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  const int z = m.add_continuous("z", 0.0, 4.0);
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, 2.0}, {z, 3.0}});
  m.add_constraint("sum", {{x, 1.0}, {y, 1.0}, {z, 1.0}}, Relation::kEqual,
                   10.0);
  m.add_constraint("diff", {{x, 1.0}, {y, -1.0}}, Relation::kEqual, 2.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 14.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(z)], 0.0, 1e-7);
}

TEST(Simplex, UpperBoundsActivate) {
  // max x + y st x + y <= 10 with x <= 3, y <= 4 -> obj 7.
  Model m;
  const int x = m.add_continuous("x", 0.0, 3.0);
  const int y = m.add_continuous("y", 0.0, 4.0);
  m.set_objective(Sense::kMaximize, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 4.0, 1e-7);
}

TEST(Simplex, FixedVariablesAreRespected) {
  Model m;
  const int x = m.add_continuous("x", 2.0, 2.0);
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMinimize, {{y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 5.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 3.0, 1e-7);
}

TEST(Simplex, FreeVariables) {
  // min |style| problem: min x + y st x + y >= 2, x - y = 5, y free.
  // y = x - 5; x + (x-5) >= 2 -> x >= 3.5; obj = 2x - 5 minimized at x=3.5.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_variable("y", -kInfinity, kInfinity);
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 2.0);
  m.add_constraint("c2", {{x, 1.0}, {y, -1.0}}, Relation::kEqual, 5.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], -1.5, 1e-6);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x st x >= -3 (bound), x >= -10 (row) -> x = -3.
  Model m;
  const int x = m.add_variable("x", -3.0, kInfinity);
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  m.add_constraint("c", {{x, 1.0}}, Relation::kGreaterEqual, -10.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // max x st x <= 7 via bound with lower = -inf, row x >= 1.
  Model m;
  const int x = m.add_variable("x", -kInfinity, 7.0);
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  m.add_constraint("c", {{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibleRows) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 1.0);
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  m.add_constraint("c", {{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0);
  m.add_constraint("c2", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsTriviallyInvertedBounds) {
  Model m;
  const int x = m.add_continuous("x");
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  LpEngine solver;
  SolveContext ctx;
  EXPECT_EQ(solver.solve(m, {5.0}, {4.0}, ctx).status,
            SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_continuous("x");
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  m.add_constraint("c", {{x, 1.0}}, Relation::kGreaterEqual, 0.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, UnboundedBelowWithFreeVariable) {
  Model m;
  const int x = m.add_variable("x", -kInfinity, kInfinity);
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NoConstraintsPicksCheapBounds) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 5.0);
  const int y = m.add_continuous("y", 2.0, 6.0);
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, -1.0}});
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 1.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 6.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone example (Beale); Bland fallback must terminate.
  Model m;
  const int x1 = m.add_continuous("x1");
  const int x2 = m.add_continuous("x2");
  const int x3 = m.add_continuous("x3");
  const int x4 = m.add_continuous("x4");
  m.set_objective(Sense::kMinimize,
                  {{x1, -0.75}, {x2, 150.0}, {x3, -0.02}, {x4, 6.0}});
  m.add_constraint("r1", {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint("r2", {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint("r3", {{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-7);
}

TEST(Simplex, ObjectiveConstantCarriesThrough) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 2.0);
  m.set_objective(Sense::kMinimize, {{x, 1.0}}, 100.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 100.0, 1e-9);
}

TEST(Simplex, DualsSatisfyStrongDualityOnStandardForm) {
  // min c.x st Ax >= b, x >= 0: optimal primal = b.y with y the duals.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.set_objective(Sense::kMinimize, {{x, 12.0}, {y, 16.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 2.0}}, Relation::kGreaterEqual, 40.0);
  m.add_constraint("c2", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 30.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  const double dual_objective = 40.0 * s.duals[0] + 30.0 * s.duals[1];
  EXPECT_NEAR(dual_objective, s.objective, 1e-6);
}

TEST(Simplex, BoundOverridesDoNotMutateModel) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  LpEngine solver;
  SolveContext ctx;
  const auto tightened = solver.solve(m, {0.0}, {4.0}, ctx);
  ASSERT_EQ(tightened.status, SolveStatus::kOptimal);
  EXPECT_NEAR(tightened.objective, 4.0, 1e-9);
  const auto original = solver.solve(m, ctx);
  EXPECT_NEAR(original.objective, 10.0, 1e-9);
  EXPECT_EQ(m.variable(x).upper, 10.0);
}

TEST(Simplex, RejectsWrongOverrideArity) {
  Model m;
  m.add_continuous("x");
  LpEngine solver;
  SolveContext ctx;
  EXPECT_THROW((void)solver.solve(m, {0.0, 0.0}, {1.0, 1.0}, ctx),
               InvalidInputError);
}

TEST(Simplex, VacuousInfiniteRhsRowsAreIgnored) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 3.0);
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  m.add_constraint("vacuous", {{x, 1.0}}, Relation::kLessEqual, kInfinity);
  m.add_constraint("vacuous2", {{x, 1.0}}, Relation::kGreaterEqual, -kInfinity);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2 supplies (10, 20), 3 demands (7, 13, 10); costs rowwise.
  const double costs[2][3] = {{4, 6, 9}, {5, 3, 8}};
  Model m;
  std::vector<int> ship;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      ship.push_back(m.add_continuous("s" + std::to_string(i) +
                                      std::to_string(j)));
    }
  }
  std::vector<Term> objective;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      objective.push_back({ship[static_cast<std::size_t>(3 * i + j)],
                           costs[i][j]});
    }
  }
  m.set_objective(Sense::kMinimize, objective);
  const double supply[2] = {10, 20};
  const double demand[3] = {7, 13, 10};
  for (int i = 0; i < 2; ++i) {
    std::vector<Term> row;
    for (int j = 0; j < 3; ++j) {
      row.push_back({ship[static_cast<std::size_t>(3 * i + j)], 1.0});
    }
    m.add_constraint("supply" + std::to_string(i), row, Relation::kLessEqual,
                     supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    std::vector<Term> col;
    for (int i = 0; i < 2; ++i) {
      col.push_back({ship[static_cast<std::size_t>(3 * i + j)], 1.0});
    }
    m.add_constraint("demand" + std::to_string(j), col,
                     Relation::kGreaterEqual, demand[j]);
  }
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Optimal: supply0 ships 7 to d0 and 3 to d2; supply1 ships 13 to d1 and
  // 7 to d2: 7*4 + 3*9 + 13*3 + 7*8 = 150.
  EXPECT_NEAR(s.objective, 150.0, 1e-6);
}

// ---- randomized property sweep ------------------------------------------

struct RandomLpCase {
  std::uint64_t seed;
};

class SimplexRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

// Brute-force reference: for a 2-variable LP with box bounds and rows,
// sample a fine grid and keep the best feasible point; the simplex optimum
// must not be worse (within tolerance) and must be feasible.
TEST_P(SimplexRandomTest, BeatsGridSearchOnRandomTwoVariableLps) {
  Rng rng(GetParam());
  Model m;
  const int x = m.add_continuous("x", 0.0, rng.uniform(1.0, 10.0));
  const int y = m.add_continuous("y", 0.0, rng.uniform(1.0, 10.0));
  const double cx = rng.uniform(-5.0, 5.0);
  const double cy = rng.uniform(-5.0, 5.0);
  m.set_objective(Sense::kMinimize, {{x, cx}, {y, cy}});
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rows; ++r) {
    const double ax = rng.uniform(-2.0, 2.0);
    const double ay = rng.uniform(-2.0, 2.0);
    // Choose rhs so the origin stays feasible: ax*0+ay*0 = 0 <= rhs >= 0.
    const double rhs = rng.uniform(0.0, 8.0);
    m.add_constraint("r" + std::to_string(r), {{x, ax}, {y, ay}},
                     Relation::kLessEqual, rhs);
  }
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.is_feasible(s.values, 1e-5));

  double best_grid = kInfinity;
  const double ux = m.variable(x).upper;
  const double uy = m.variable(y).upper;
  for (int i = 0; i <= 60; ++i) {
    for (int j = 0; j <= 60; ++j) {
      const std::vector<double> point = {ux * i / 60.0, uy * j / 60.0};
      if (m.is_feasible(point, 1e-9)) {
        best_grid = std::min(best_grid, m.evaluate_objective(point));
      }
    }
  }
  EXPECT_LE(s.objective, best_grid + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace etransform::lp
