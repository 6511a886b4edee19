// Edge-case and budget-handling tests for the solver stack: iteration
// limits, node limits, time limits, relative gaps, and tolerance knobs.
#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "lp/model.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"

namespace etransform {
namespace {

using lp::Model;
using lp::Relation;
using lp::Sense;
using lp::Term;

Model hard_knapsack(int items, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  double total = 0.0;
  for (int i = 0; i < items; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(10.0, 20.0)});
    const double w = rng.uniform(5.0, 10.0);
    total += w;
    cap.push_back({b, w});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, total * 0.5);
  return m;
}

/// A 0/1 knapsack with `rows` capacity rows (each at half its total weight).
Model multi_knapsack(int items, int rows, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<Term> objective;
  for (int i = 0; i < items; ++i) {
    objective.push_back(
        {m.add_binary("b" + std::to_string(i)), rng.uniform(10.0, 20.0)});
  }
  m.set_objective(Sense::kMaximize, objective);
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> cap;
    double total = 0.0;
    for (int i = 0; i < items; ++i) {
      const double w = rng.uniform(5.0, 10.0);
      total += w;
      cap.push_back({i, w});
    }
    m.add_constraint("cap" + std::to_string(r), cap, Relation::kLessEqual,
                     total * 0.5);
  }
  return m;
}

TEST(SolverLimits, SimplexIterationLimitReported) {
  lp::SimplexOptions options;
  options.max_iterations = 1;
  lp::LpEngine solver(options);
  Rng rng(3);
  Model m;
  std::vector<Term> objective;
  for (int j = 0; j < 20; ++j) {
    objective.push_back({m.add_continuous("x" + std::to_string(j), 0.0, 5.0),
                         rng.uniform(-3.0, 3.0)});
  }
  m.set_objective(Sense::kMinimize, objective);
  for (int i = 0; i < 10; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < 20; ++j) terms.push_back({j, rng.uniform(0.1, 1.0)});
    m.add_constraint("r" + std::to_string(i), terms, Relation::kGreaterEqual,
                     2.0);
  }
  SolveContext ctx;
  const auto s = solver.solve(m, ctx);
  EXPECT_EQ(s.status, lp::SolveStatus::kIterationLimit);
}

TEST(SolverLimits, MilpTimeLimitProducesIncumbentNotProof) {
  milp::SolverOptions options;
  options.search.time_limit_ms = 1;  // expire almost immediately
  options.search.max_nodes = 1 << 30;
  const milp::BranchAndBoundSolver solver(options);
  SolveContext ctx;
  const auto s = solver.solve(hard_knapsack(30, 5), ctx);
  // Normally the deadline fires first (kTimeLimit, with or without an
  // incumbent); a fast machine may still close the gap inside 1 ms.
  EXPECT_TRUE(s.status == milp::MilpStatus::kTimeLimit ||
              s.status == milp::MilpStatus::kOptimal);
  if (s.has_incumbent()) {
    EXPECT_TRUE(hard_knapsack(30, 5).is_feasible(s.values, 1e-6));
  }
  // The search.time_limit_ms deadline is scoped to the solve: the caller's context
  // must be usable again afterwards.
  EXPECT_FALSE(ctx.should_stop());
}

TEST(SolverLimits, LooseRelativeGapStopsEarlyButValid) {
  milp::SolverOptions tight;
  tight.search.relative_gap = 1e-9;
  milp::SolverOptions loose = tight;
  loose.search.relative_gap = 0.25;
  const auto model = hard_knapsack(18, 9);
  SolveContext ctx;
  const auto exact = milp::BranchAndBoundSolver(tight).solve(model, ctx);
  const auto approx = milp::BranchAndBoundSolver(loose).solve(model, ctx);
  ASSERT_EQ(exact.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(approx.status, milp::MilpStatus::kOptimal);
  // Maximization: approx incumbent within 25% of the proven optimum.
  EXPECT_GE(approx.objective, exact.objective * 0.75 - 1e-6);
  EXPECT_LE(approx.nodes, exact.nodes);
  EXPECT_TRUE(model.is_feasible(approx.values, 1e-6));
}

TEST(SolverLimits, DroppedNodesKeepStatusAndBoundSound) {
  // A 3-pivot cap makes some node LPs end in kIterationLimit, so those nodes
  // are dropped unexplored. The root restarts from its own optimal basis and
  // needs no pivot, so only tree nodes can hit the cap. A dropped subtree
  // may hold the optimum: the bound must stay above it (maximization), and
  // neither optimality nor infeasibility may be claimed.
  int runs_with_drops = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Model model = multi_knapsack(16, 3, seed);
    milp::SolverOptions options;
    options.cuts.enable = false;
    SolveContext ctx;
    const auto exact = milp::BranchAndBoundSolver(options).solve(model, ctx);
    ASSERT_EQ(exact.status, milp::MilpStatus::kOptimal) << seed;
    options.lp.max_iterations = 3;
    const auto capped = milp::BranchAndBoundSolver(options).solve(
        model, ctx, exact.root_basis.get());
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_GE(capped.best_bound, exact.objective - 1e-6) << label;
    if (capped.has_incumbent()) {
      EXPECT_LE(capped.objective, exact.objective + 1e-6) << label;
    }
    if (capped.stats.metric("dropped_nodes") > 0) {
      ++runs_with_drops;
      EXPECT_NE(capped.status, milp::MilpStatus::kOptimal) << label;
      EXPECT_NE(capped.status, milp::MilpStatus::kInfeasible) << label;
    }
  }
  EXPECT_GT(runs_with_drops, 0);
}

TEST(SolverLimits, NodeCountsAreReported) {
  const auto model = hard_knapsack(14, 11);
  SolveContext ctx;
  const auto s = milp::BranchAndBoundSolver().solve(model, ctx);
  ASSERT_EQ(s.status, milp::MilpStatus::kOptimal);
  EXPECT_GE(s.nodes, 1);
  EXPECT_GE(s.lp_iterations, 1);
}

TEST(SolverLimits, ZeroVariableModelSolves) {
  Model m;
  m.set_objective(Sense::kMinimize, {}, 42.0);
  lp::LpEngine solver;
  SolveContext ctx;
  const auto s = solver.solve(m, ctx);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 42.0);
  const auto milp_solution = milp::BranchAndBoundSolver().solve(m, ctx);
  ASSERT_EQ(milp_solution.status, milp::MilpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(milp_solution.objective, 42.0);
}

TEST(SolverLimits, FixedEverythingModelSolvesImmediately) {
  Model m;
  const int x = m.add_variable("x", 2.0, 2.0, true);
  const int y = m.add_continuous("y", 3.0, 3.0);
  m.set_objective(Sense::kMaximize, {{x, 2.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 5.0);
  SolveContext ctx;
  const auto s = milp::BranchAndBoundSolver().solve(m, ctx);
  ASSERT_EQ(s.status, milp::MilpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 7.0);
}

TEST(SolverLimits, EqualityOnlySystemWithUniqueSolution) {
  // No optimization freedom at all: Ax = b pins the point.
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  const int y = m.add_continuous("y", 0.0, 10.0);
  m.set_objective(Sense::kMinimize, {{x, 5.0}, {y, -2.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 7.0);
  m.add_constraint("c2", {{x, 1.0}, {y, -1.0}}, Relation::kEqual, 1.0);
  SolveContext ctx;
  const auto s = lp::LpEngine().solve(m, ctx);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 4.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 3.0, 1e-7);
}

TEST(SolverLimits, LargeCoefficientSpreadStaysAccurate) {
  // Mimics the planner's LPs: coefficients spanning ~9 orders of magnitude.
  Model m;
  const int big = m.add_continuous("data", 0.0, 1.0e9);
  const int small = m.add_binary("pick");
  m.set_objective(Sense::kMinimize, {{big, 1.5e-5}, {small, 100.0}});
  m.add_constraint("need", {{big, 1.0}, {small, 1.0e8}},
                   Relation::kGreaterEqual, 2.0e8);
  SolveContext ctx;
  const auto s = milp::BranchAndBoundSolver().solve(m, ctx);
  ASSERT_EQ(s.status, milp::MilpStatus::kOptimal);
  // Options: all data (2e8 * 1.5e-5 = 3000) vs pick + 1e8 data (1600).
  EXPECT_NEAR(s.objective, 1600.0, 1e-3);
}

}  // namespace
}  // namespace etransform
