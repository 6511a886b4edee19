// Tests for the LP presolve: reductions preserve optima, infeasibility is
// caught, postsolve reconstructs full solutions, randomized equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/random.h"
#include "lp/presolve.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"

namespace etransform::lp {
namespace {

PresolveResult run_presolve(const Model& m) {
  SolveContext ctx;
  return presolve(m, ctx);
}

TEST(Presolve, SubstitutesFixedVariables) {
  Model m;
  const int x = m.add_continuous("x", 3.0, 3.0);  // fixed
  const int y = m.add_continuous("y", 0.0, 10.0);
  m.set_objective(Sense::kMinimize, {{x, 2.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 5.0);
  const auto result = run_presolve(m);
  ASSERT_EQ(result.status, PresolveStatus::kReduced);
  EXPECT_EQ(result.vars_removed, 1);
  EXPECT_EQ(result.reduced.num_variables(), 1);
  // Row became y >= 2 (a singleton) and was folded into the bound.
  EXPECT_EQ(result.reduced.num_constraints(), 0);
  EXPECT_DOUBLE_EQ(result.reduced.variable(0).lower, 2.0);
  // Objective constant carries 2 * 3.
  EXPECT_DOUBLE_EQ(result.reduced.objective_constant(), 6.0);
}

TEST(Presolve, SingletonRowsTightenBounds) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 100.0);
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  m.add_constraint("ub", {{x, 2.0}}, Relation::kLessEqual, 10.0);
  m.add_constraint("lb", {{x, -1.0}}, Relation::kLessEqual, -2.0);
  const auto result = run_presolve(m);
  ASSERT_EQ(result.status, PresolveStatus::kReduced);
  EXPECT_EQ(result.reduced.num_constraints(), 0);
  EXPECT_DOUBLE_EQ(result.reduced.variable(0).lower, 2.0);
  EXPECT_DOUBLE_EQ(result.reduced.variable(0).upper, 5.0);
}

TEST(Presolve, IntegerBoundsRoundInward) {
  Model m;
  const int x = m.add_variable("x", 0.2, 7.9, true);
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  const auto result = run_presolve(m);
  ASSERT_EQ(result.status, PresolveStatus::kReduced);
  EXPECT_DOUBLE_EQ(result.reduced.variable(0).lower, 1.0);
  EXPECT_DOUBLE_EQ(result.reduced.variable(0).upper, 7.0);
}

TEST(Presolve, DetectsInfeasibility) {
  {
    Model m;
    const int x = m.add_continuous("x", 0.0, 1.0);
    m.set_objective(Sense::kMinimize, {{x, 1.0}});
    m.add_constraint("c", {{x, 1.0}}, Relation::kGreaterEqual, 2.0);
    EXPECT_EQ(run_presolve(m).status, PresolveStatus::kInfeasible);
  }
  {
    // Integer var confined to (0.2, 0.8): no integer point.
    Model m;
    m.add_variable("x", 0.2, 0.8, true);
    m.set_objective(Sense::kMinimize, {{0, 1.0}});
    EXPECT_EQ(run_presolve(m).status, PresolveStatus::kInfeasible);
  }
  {
    // Fixed variables make an equality row impossible.
    Model m;
    const int x = m.add_continuous("x", 1.0, 1.0);
    const int y = m.add_continuous("y", 2.0, 2.0);
    m.set_objective(Sense::kMinimize, {});
    m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 7.0);
    EXPECT_EQ(run_presolve(m).status, PresolveStatus::kInfeasible);
  }
}

TEST(Presolve, PostsolveReconstructsFullSolution) {
  Model m;
  const int x = m.add_continuous("x", 4.0, 4.0);
  const int y = m.add_continuous("y", 0.0, 10.0);
  const int z = m.add_continuous("z", 1.0, 1.0);
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  m.add_constraint("c", {{y, 1.0}}, Relation::kGreaterEqual, 2.0);
  const auto result = run_presolve(m);
  ASSERT_EQ(result.status, PresolveStatus::kReduced);
  LpEngine solver;
  SolveContext ctx;
  const auto reduced = solver.solve(result.reduced, ctx);
  ASSERT_EQ(reduced.status, SolveStatus::kOptimal);
  const auto full = postsolve(result, reduced.values);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(x)], 4.0);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(y)], 2.0);
  EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(z)], 1.0);
  EXPECT_TRUE(m.is_feasible(full));
  EXPECT_NEAR(m.evaluate_objective(full), reduced.objective, 1e-9);
}

TEST(Presolve, PostsolveRejectsWrongArity) {
  Model m;
  m.add_continuous("x", 0.0, 1.0);
  m.set_objective(Sense::kMinimize, {{0, 1.0}});
  const auto result = run_presolve(m);
  EXPECT_THROW((void)postsolve(result, {0.0, 1.0}), InvalidInputError);
}

class PresolveEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PresolveEquivalence, ReducedModelHasTheSameOptimum) {
  Rng rng(GetParam() + 500);
  Model m;
  const int vars = static_cast<int>(rng.uniform_int(3, 8));
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    const double style = rng.uniform();
    double lo = 0.0;
    double hi = rng.uniform(1.0, 8.0);
    if (style < 0.3) lo = hi = rng.uniform(0.0, 4.0);  // many fixed vars
    objective.push_back(
        {m.add_variable("v" + std::to_string(j), lo, hi,
                        rng.uniform() < 0.3),
         rng.uniform(-4.0, 4.0)});
  }
  m.set_objective(Sense::kMinimize, objective, rng.uniform(-5.0, 5.0));
  const int rows = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    const int width = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < width; ++k) {
      terms.push_back({static_cast<int>(rng.uniform_int(0, vars - 1)),
                       rng.uniform(-2.0, 2.0)});
    }
    m.add_constraint("r" + std::to_string(i), merge_terms(std::move(terms)),
                     rng.uniform() < 0.6 ? Relation::kLessEqual
                                         : Relation::kGreaterEqual,
                     rng.uniform(-4.0, 10.0));
  }

  const milp::BranchAndBoundSolver solver;
  SolveContext ctx;
  const auto direct = solver.solve(m, ctx);
  const auto result = run_presolve(m);
  if (result.status == PresolveStatus::kInfeasible) {
    EXPECT_EQ(direct.status, milp::MilpStatus::kInfeasible);
    return;
  }
  const auto reduced = solver.solve(result.reduced, ctx);
  ASSERT_EQ(direct.status == milp::MilpStatus::kOptimal,
            reduced.status == milp::MilpStatus::kOptimal);
  if (direct.status == milp::MilpStatus::kOptimal) {
    EXPECT_NEAR(direct.objective, reduced.objective,
                1e-6 * std::max(1.0, std::abs(direct.objective)));
    const auto full = postsolve(result, reduced.values);
    EXPECT_TRUE(m.is_feasible(full, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalence,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace etransform::lp
