// Tests for branch-and-bound: knapsacks, assignment problems, infeasible /
// unbounded models, gap/limit handling, and a randomized sweep where B&B must
// match the brute-force reference solver exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "milp/branch_and_bound.h"
#include "milp/brute_force.h"
#include "milp/cuts.h"

namespace etransform::milp {
namespace {

using lp::Model;
using lp::Relation;
using lp::Sense;
using lp::Term;

MilpSolution solve(const Model& m) {
  const BranchAndBoundSolver solver;
  SolveContext ctx;
  return solver.solve(m, ctx);
}

MilpSolution brute(const Model& m) {
  SolveContext ctx;
  return solve_brute_force(m, ctx);
}

TEST(BranchAndBound, BinaryKnapsack) {
  // values {60,100,120}, weights {10,20,30}, capacity 50 -> take items 2,3.
  Model m;
  std::vector<int> pick;
  const double value[3] = {60, 100, 120};
  const double weight[3] = {10, 20, 30};
  std::vector<Term> objective;
  std::vector<Term> cap;
  for (int i = 0; i < 3; ++i) {
    pick.push_back(m.add_binary("item" + std::to_string(i)));
    objective.push_back({pick.back(), value[i]});
    cap.push_back({pick.back(), weight[i]});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, 50.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);
  EXPECT_NEAR(s.values[0], 0.0, 1e-6);
  EXPECT_NEAR(s.values[1], 1.0, 1e-6);
  EXPECT_NEAR(s.values[2], 1.0, 1e-6);
}

TEST(BranchAndBound, IntegerRoundingMatters) {
  // max x + y st 2x + 2y <= 5, integer -> LP gives 2.5, MILP gives 2.
  Model m;
  const int x = m.add_variable("x", 0.0, 10.0, true);
  const int y = m.add_variable("y", 0.0, 10.0, true);
  m.set_objective(Sense::kMaximize, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 2.0}, {y, 2.0}}, Relation::kLessEqual, 5.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(BranchAndBound, GeneralIntegersWithWideDomain) {
  // min 3x + 4y st 2x + y >= 11, x + 3y >= 9, integers.
  Model m;
  const int x = m.add_variable("x", 0.0, 100.0, true);
  const int y = m.add_variable("y", 0.0, 100.0, true);
  m.set_objective(Sense::kMinimize, {{x, 3.0}, {y, 4.0}});
  m.add_constraint("c1", {{x, 2.0}, {y, 1.0}}, Relation::kGreaterEqual, 11.0);
  m.add_constraint("c2", {{x, 1.0}, {y, 3.0}}, Relation::kGreaterEqual, 9.0);
  const auto bb = solve(m);
  const auto reference = brute(m);
  ASSERT_EQ(bb.status, MilpStatus::kOptimal);
  ASSERT_EQ(reference.status, MilpStatus::kOptimal);
  EXPECT_NEAR(bb.objective, reference.objective, 1e-6);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // Facility-style: open binary gates capacity for a continuous flow.
  Model m;
  const int open1 = m.add_binary("open1");
  const int open2 = m.add_binary("open2");
  const int f1 = m.add_continuous("f1");
  const int f2 = m.add_continuous("f2");
  m.set_objective(Sense::kMinimize,
                  {{open1, 10.0}, {open2, 14.0}, {f1, 1.0}, {f2, 0.5}});
  m.add_constraint("demand", {{f1, 1.0}, {f2, 1.0}}, Relation::kGreaterEqual,
                   8.0);
  m.add_constraint("cap1", {{f1, 1.0}, {open1, -6.0}}, Relation::kLessEqual,
                   0.0);
  m.add_constraint("cap2", {{f2, 1.0}, {open2, -6.0}}, Relation::kLessEqual,
                   0.0);
  const auto bb = solve(m);
  const auto reference = brute(m);
  ASSERT_EQ(bb.status, MilpStatus::kOptimal);
  EXPECT_NEAR(bb.objective, reference.objective, 1e-6);
  // Cheapest: open both, f2 = 6 (cheap flow), f1 = 2 -> 10+14+2+3 = 29.
  EXPECT_NEAR(bb.objective, 29.0, 1e-6);
}

TEST(BranchAndBound, DetectsInfeasible) {
  Model m;
  const int x = m.add_binary("x");
  const int y = m.add_binary("y");
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 3.0);
  EXPECT_EQ(solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, RootInfeasibleStampsNodesAndReoptTallies) {
  // An infeasible root LP ends the solve before the tree; its stats still
  // carry the node count and both reoptimization tallies, like every other
  // return path.
  Model m;
  const int x = m.add_binary("x");
  const int y = m.add_binary("y");
  m.set_objective(Sense::kMinimize, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 3.0);
  const MilpSolution s = solve(m);
  ASSERT_EQ(s.status, MilpStatus::kInfeasible);
  const auto has_metric = [&s](const std::string& key) {
    for (const auto& [name, value] : s.stats.metrics) {
      if (name == key) return true;
    }
    return false;
  };
  EXPECT_EQ(s.stats.metric("nodes"), 1.0);
  EXPECT_TRUE(has_metric("warm_started_nodes"));
  EXPECT_TRUE(has_metric("dual_reopt_nodes"));
}

TEST(BranchAndBound, IntegralityCanMakeLpFeasibleModelInfeasible) {
  // 2x = 1 has LP solution x=0.5 but no integer solution.
  Model m;
  const int x = m.add_variable("x", 0.0, 10.0, true);
  m.set_objective(Sense::kMinimize, {{x, 1.0}});
  m.add_constraint("c", {{x, 2.0}}, Relation::kEqual, 1.0);
  EXPECT_EQ(solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, DetectsUnbounded) {
  Model m;
  const int x = m.add_variable("x", 0.0, lp::kInfinity, true);
  m.set_objective(Sense::kMaximize, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, MilpStatus::kUnbounded);
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 3.0);
  m.set_objective(Sense::kMaximize, {{x, 2.0}});
  const auto s = solve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
  EXPECT_EQ(s.nodes, 1);
}

TEST(BranchAndBound, BestBoundBracketsOptimum) {
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 20.0)});
    cap.push_back({b, rng.uniform(1.0, 10.0)});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, 25.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_GE(s.best_bound, s.objective - 1e-6);  // maximization: bound above
}

TEST(BranchAndBound, NodeLimitYieldsFeasibleOrNoSolution) {
  SolverOptions options;
  options.search.max_nodes = 1;
  options.search.root_dive = false;
  options.cuts.enable = false;
  const BranchAndBoundSolver limited(options);
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  Rng rng(77);
  for (int i = 0; i < 16; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 20.0)});
    cap.push_back({b, rng.uniform(1.0, 10.0)});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, 20.0);
  SolveContext ctx;
  const auto s = limited.solve(m, ctx);
  EXPECT_TRUE(s.status == MilpStatus::kFeasible ||
              s.status == MilpStatus::kNoSolutionFound);
}

TEST(BranchAndBound, RootDiveFindsIncumbentUnderNodeLimit) {
  SolverOptions options;
  options.search.max_nodes = 1;
  options.search.root_dive = true;
  options.cuts.enable = false;
  const BranchAndBoundSolver limited(options);
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  Rng rng(78);
  for (int i = 0; i < 16; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 20.0)});
    cap.push_back({b, rng.uniform(1.0, 10.0)});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, 20.0);
  SolveContext ctx;
  const auto s = limited.solve(m, ctx);
  EXPECT_EQ(s.status, MilpStatus::kFeasible);
  EXPECT_TRUE(m.is_feasible(s.values, 1e-6));
}

TEST(BruteForce, RejectsUnboundedIntegerDomains) {
  Model m;
  m.add_variable("x", 0.0, lp::kInfinity, true);
  m.set_objective(Sense::kMinimize, {{0, 1.0}});
  EXPECT_THROW((void)brute(m), InvalidInputError);
}

TEST(BruteForce, RejectsTooManyCombinations) {
  Model m;
  std::vector<Term> objective;
  for (int i = 0; i < 40; ++i) {
    objective.push_back({m.add_binary("b" + std::to_string(i)), 1.0});
  }
  m.set_objective(Sense::kMinimize, objective);
  SolveContext ctx;
  EXPECT_THROW((void)solve_brute_force(m, ctx, 1000), InvalidInputError);
}

// ---- randomized equivalence sweep ----------------------------------------

class MilpRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpRandomTest, MatchesBruteForceOnRandomAssignmentProblems) {
  Rng rng(GetParam());
  // Mini consolidation instance: groups pick one of few sites, capacity rows.
  const int groups = static_cast<int>(rng.uniform_int(2, 4));
  const int sites = static_cast<int>(rng.uniform_int(2, 3));
  Model m;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(groups));
  std::vector<Term> objective;
  std::vector<int> servers(static_cast<std::size_t>(groups));
  for (int i = 0; i < groups; ++i) {
    servers[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.uniform_int(1, 5));
    std::vector<Term> assign;
    for (int j = 0; j < sites; ++j) {
      const int var = m.add_binary("x_" + std::to_string(i) + "_" +
                                   std::to_string(j));
      x[static_cast<std::size_t>(i)].push_back(var);
      objective.push_back({var, rng.uniform(1.0, 50.0)});
      assign.push_back({var, 1.0});
    }
    m.add_constraint("assign" + std::to_string(i), assign, Relation::kEqual,
                     1.0);
  }
  for (int j = 0; j < sites; ++j) {
    std::vector<Term> cap;
    for (int i = 0; i < groups; ++i) {
      cap.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                     static_cast<double>(servers[static_cast<std::size_t>(i)])});
    }
    // Capacity large enough that at least the balanced split fits.
    m.add_constraint("cap" + std::to_string(j), cap, Relation::kLessEqual,
                     rng.uniform(6.0, 20.0));
  }
  m.set_objective(Sense::kMinimize, objective);

  const auto bb = solve(m);
  const auto reference = brute(m);
  ASSERT_EQ(bb.status == MilpStatus::kOptimal,
            reference.status == MilpStatus::kOptimal);
  if (bb.status == MilpStatus::kOptimal) {
    EXPECT_NEAR(bb.objective, reference.objective, 1e-6);
    EXPECT_TRUE(m.is_feasible(bb.values, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomTest,
                         ::testing::Range<std::uint64_t>(0, 30));

class KnapsackRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackRandomTest, MatchesBruteForceOnRandomKnapsacks) {
  Rng rng(GetParam() + 1000);
  const int items = static_cast<int>(rng.uniform_int(4, 10));
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  double total_weight = 0.0;
  for (int i = 0; i < items; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 30.0)});
    const double w = rng.uniform(1.0, 10.0);
    total_weight += w;
    cap.push_back({b, w});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual,
                   total_weight * rng.uniform(0.3, 0.7));
  const auto bb = solve(m);
  const auto reference = brute(m);
  ASSERT_EQ(bb.status, MilpStatus::kOptimal);
  ASSERT_EQ(reference.status, MilpStatus::kOptimal);
  EXPECT_NEAR(bb.objective, reference.objective, 1e-6);
  EXPECT_TRUE(m.is_feasible(bb.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandomTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------------------------------------------------------------------------
// Cut pipeline
// ---------------------------------------------------------------------------

MilpSolution solve_with(const Model& m, const SolverOptions& options) {
  const BranchAndBoundSolver solver(options);
  SolveContext ctx;
  return solver.solve(m, ctx);
}

/// The production configuration: cuts on, pseudocost branching.
SolverOptions production_options() { return SolverOptions{}; }

/// The pre-cut solver: no cuts, most-fractional branching.
SolverOptions legacy_options() {
  SolverOptions options;
  options.cuts.enable = false;
  options.branching.rule = BranchingOptions::Rule::kMostFractional;
  return options;
}

/// The classic 3-item knapsack whose LP relaxation is fractional: the LP
/// takes items 1 and 2 plus 2/3 of item 3, so both separators fire (the
/// minimal cover {0,1,2} gives x0+x1+x2 <= 2, violated by 2/3).
Model fractional_knapsack() {
  Model m;
  const double value[3] = {60, 100, 120};
  const double weight[3] = {10, 20, 30};
  std::vector<Term> objective;
  std::vector<Term> cap;
  for (int i = 0; i < 3; ++i) {
    const int b = m.add_binary("item" + std::to_string(i));
    objective.push_back({b, value[i]});
    cap.push_back({b, weight[i]});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, 50.0);
  return m;
}

TEST(CutPipeline, CutStatsAreConsistentAndVisible) {
  const Model m = fractional_knapsack();
  const auto s = solve_with(m, production_options());
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);

  // The fractional root guarantees at least one separation round found work.
  EXPECT_GE(s.cuts.rounds, 1);
  EXPECT_GE(s.cuts.generated, 1);
  EXPECT_LE(s.cuts.applied + s.cuts.purged, s.cuts.generated);
  EXPECT_GE(s.cuts.applied, 0);

  // The accessor and the field are the same object.
  EXPECT_EQ(s.cut_stats().generated, s.cuts.generated);
  EXPECT_EQ(s.cut_stats().applied, s.cuts.applied);

  // The same tallies are published in the stats tree for --stats-json.
  const SolveStats* cuts = s.stats.find("cuts");
  ASSERT_NE(cuts, nullptr);
  EXPECT_NEAR(cuts->metric("generated"),
              static_cast<double>(s.cuts.generated), 1e-9);
  EXPECT_NEAR(cuts->metric("applied"), static_cast<double>(s.cuts.applied),
              1e-9);
}

TEST(CutPipeline, CutsOffMatchesLegacySolverExactly) {
  const Model m = fractional_knapsack();
  const auto off = solve_with(m, legacy_options());
  ASSERT_EQ(off.status, MilpStatus::kOptimal);
  EXPECT_NEAR(off.objective, 220.0, 1e-6);
  EXPECT_EQ(off.cuts.rounds, 0);
  EXPECT_EQ(off.cuts.generated, 0);
  EXPECT_EQ(off.cuts.applied, 0);
}

/// Differential: cuts+pseudocosts must change the search, never the answer.
class CutDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutDifferentialTest, CutsPreserveOptimaOnRandomInstances) {
  Rng rng(GetParam() + 7000);
  // Small assignment MILP with knapsack-style capacity rows: every group
  // goes to exactly one site, sites have weight budgets. Both separators
  // have material to work with and brute force stays cheap.
  const int groups = static_cast<int>(rng.uniform_int(4, 7));
  const int sites = static_cast<int>(rng.uniform_int(2, 3));
  Model m;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(groups));
  std::vector<Term> objective;
  for (int i = 0; i < groups; ++i) {
    for (int j = 0; j < sites; ++j) {
      const int v = m.add_binary("x" + std::to_string(i) + "_" +
                                 std::to_string(j));
      x[static_cast<std::size_t>(i)].push_back(v);
      objective.push_back({v, rng.uniform(1.0, 12.0)});
    }
  }
  m.set_objective(Sense::kMinimize, objective);
  for (int i = 0; i < groups; ++i) {
    std::vector<Term> assign;
    for (int j = 0; j < sites; ++j) {
      assign.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    }
    m.add_constraint("assign" + std::to_string(i), assign, Relation::kEqual,
                     1.0);
  }
  for (int j = 0; j < sites; ++j) {
    std::vector<Term> cap;
    for (int i = 0; i < groups; ++i) {
      cap.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                     rng.uniform(1.0, 6.0)});
    }
    m.add_constraint("cap" + std::to_string(j), cap, Relation::kLessEqual,
                     rng.uniform(2.0, 5.0) * groups / sites);
  }

  const auto with_cuts = solve_with(m, production_options());
  const auto without = solve_with(m, legacy_options());
  const auto reference = brute(m);
  ASSERT_EQ(with_cuts.status, without.status);
  ASSERT_EQ(with_cuts.status == MilpStatus::kOptimal,
            reference.status == MilpStatus::kOptimal);
  if (with_cuts.status == MilpStatus::kOptimal) {
    EXPECT_NEAR(with_cuts.objective, reference.objective, 1e-6);
    EXPECT_NEAR(without.objective, reference.objective, 1e-6);
    EXPECT_TRUE(m.is_feasible(with_cuts.values, 1e-6));
    EXPECT_TRUE(m.is_feasible(without.values, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 25));

/// A user-written separator per the DESIGN.md extension recipe: emits the
/// (valid) cover inequality x0+x1+x2 <= 2 for fractional_knapsack() once.
class HandRolledCoverGenerator : public CutGenerator {
 public:
  [[nodiscard]] const char* name() const override { return "hand_cover"; }
  int separate(const SeparationContext& /*ctx*/, const lp::LpSolution& lp,
               CutPool& pool) const override {
    ++calls;
    const double activity = lp.values[0] + lp.values[1] + lp.values[2];
    if (activity <= 2.0 + 1e-6) return 0;  // not violated (later rounds)
    Cut cut;
    cut.name = "hand_cover";
    cut.terms = {{0, 1.0}, {1, 1.0}, {2, 1.0}};
    cut.relation = lp::Relation::kLessEqual;
    cut.rhs = 2.0;
    cut.violation = activity - 2.0;
    return pool.add(std::move(cut)) ? 1 : 0;
  }
  // separate() is const (generators may be shared across concurrent
  // solves); this single-solve test tally is the documented exception.
  mutable int calls = 0;
};

TEST(CutPipeline, RegisteredGeneratorReplacesBuiltinsAndIsApplied) {
  const Model m = fractional_knapsack();
  BranchAndBoundSolver solver(production_options());
  auto generator = std::make_shared<HandRolledCoverGenerator>();
  solver.add_cut_generator(generator);
  SolveContext ctx;
  const auto s = solver.solve(m, ctx);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);
  EXPECT_GE(generator->calls, 1);
  EXPECT_GE(s.cuts.generated, 1);
  // The per-generator tally uses the registered name, not the built-ins'.
  const SolveStats* cuts = s.stats.find("cuts");
  ASSERT_NE(cuts, nullptr);
  EXPECT_GE(cuts->metric("hand_cover_cuts"), 1.0);
  EXPECT_NEAR(cuts->metric("gomory_cuts"), 0.0, 1e-9);
}

}  // namespace
}  // namespace etransform::milp
