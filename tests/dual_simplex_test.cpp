// Tests for the bound-flipping dual simplex and the LpEngine mode
// selection: dual-vs-primal differential agreement on reoptimization
// restarts, bound-flip ratio tests on boxed LPs, breakpoint selection
// against a full sort, warm starts across
// appended cut rows (extend_basis + Origin::kRowsAdded), the
// fallback-to-primal contract on dual-infeasible starts, and the
// branch-and-bound end-to-end differential.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "lp/lp_engine.h"
#include "lp/simplex_core.h"
#include "milp/branch_and_bound.h"

namespace etransform::lp {
namespace {

Model random_boxed_lp(std::uint64_t seed, int vars, int rows, double density) {
  Rng rng(seed);
  Model model;
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    const int v = model.add_continuous("x" + std::to_string(j), 0.0,
                                       rng.uniform(1.0, 10.0));
    objective.push_back({v, rng.uniform(-5.0, 5.0)});
  }
  model.set_objective(Sense::kMinimize, objective);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < density) terms.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    model.add_constraint("r" + std::to_string(i), terms, Relation::kLessEqual,
                         rng.uniform(1.0, 20.0));
  }
  return model;
}

std::vector<double> model_lowers(const Model& model) {
  std::vector<double> lower(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
  }
  return lower;
}

std::vector<double> model_uppers(const Model& model) {
  std::vector<double> upper(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return upper;
}

// After a bound change the parent-optimal basis stays dual-feasible, so
// kAuto + Origin::kBoundChange must reoptimize with the dual simplex and
// land on the same optimum a cold primal solve finds.
TEST(DualSimplex, AgreesWithPrimalAfterBoundChanges) {
  const std::uint64_t seeds[] = {11, 12, 13, 14, 15, 16};
  int dual_runs = 0;
  for (const std::uint64_t seed : seeds) {
    const Model model = random_boxed_lp(seed, 60, 30, 0.3);
    const PreparedLp prep(model);
    std::vector<double> lower = model_lowers(model);
    std::vector<double> upper = model_uppers(model);

    SolveContext root_ctx;
    LpEngine engine;
    const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
    ASSERT_EQ(root.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_NE(root.basis, nullptr);

    // Tighten a third of the uppers (x = 0 stays feasible: every row is a
    // <= with positive rhs), the branching move that leaves the parent
    // basis dual-feasible but usually primal-infeasible.
    Rng rng(seed * 977);
    for (std::size_t j = 0; j < upper.size(); j += 3) {
      upper[j] *= rng.uniform(0.1, 0.6);
    }

    SimplexOptions primal_only;
    primal_only.mode = SolveMode::kPrimal;
    SolveContext cold_ctx;
    const LpSolution cold =
        LpEngine(primal_only).solve(prep, lower, upper, cold_ctx);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_FALSE(cold.used_dual);

    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        prep, lower, upper, warm_ctx,
        LpStartBasis(root.basis.get(), LpStartBasis::Origin::kBoundChange));
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::abs(cold.objective)))
        << "seed " << seed;
    if (warm.used_dual) {
      ++dual_runs;
      EXPECT_GT(warm.dual_pivots + warm.bound_flips, 0) << "seed " << seed;
    }
  }
  // The optimal basis must pass the dual-feasibility gate on most seeds —
  // reduced costs do not move when bounds do.
  EXPECT_GE(dual_runs, 4);
}

// A single >=-row over near-equal-cost boxed variables: forbidding the
// variables the optimum selected leaves the row massively infeasible, and
// one BFRT ratio test must flip through several boxed breakpoints before
// an entering variable absorbs the rest.
TEST(DualSimplex, BoundFlippingRatioTestFlipsBoxedVariables) {
  const int n = 20;
  Model model;
  std::vector<Term> objective;
  std::vector<Term> row;
  for (int j = 0; j < n; ++j) {
    const int v = model.add_continuous("x" + std::to_string(j), 0.0, 1.0);
    objective.push_back({v, 1.0 + 0.01 * j});
    row.push_back({v, 1.0});
  }
  model.set_objective(Sense::kMinimize, objective);
  model.add_constraint("demand", row, Relation::kGreaterEqual, 10.0);

  const PreparedLp prep(model);
  std::vector<double> lower = model_lowers(model);
  std::vector<double> upper = model_uppers(model);

  SolveContext root_ctx;
  LpEngine engine;
  const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  EXPECT_NEAR(root.objective, 10.0 + 0.01 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 +
                                             8 + 9),
              1e-6);

  // Forbid the ten cheapest variables the optimum used.
  for (std::size_t j = 0; j < 10; ++j) upper[j] = 0.0;

  SolveContext warm_ctx;
  const LpSolution warm = engine.solve(
      prep, lower, upper, warm_ctx,
      LpStartBasis(root.basis.get(), LpStartBasis::Origin::kBoundChange));
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.used_dual);
  // Ten units of demand move to the ten remaining variables; one of them
  // enters, the others are bound flips of the same ratio test.
  EXPECT_GE(warm.bound_flips, 5);
  EXPECT_NEAR(warm.objective,
              10.0 + 0.01 * (10 + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19),
              1e-6);

  SimplexOptions primal_only;
  primal_only.mode = SolveMode::kPrimal;
  SolveContext cold_ctx;
  const LpSolution cold =
      LpEngine(primal_only).solve(prep, lower, upper, cold_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
}

// Appending a violated row and mapping the old basis over via extend_basis
// keeps the old duals (new slack basic), so Origin::kRowsAdded must take
// the dual path and agree with a cold solve of the grown model.
TEST(DualSimplex, WarmStartsAcrossAppendedCutRow) {
  const std::uint64_t seeds[] = {31, 32, 33, 34};
  int dual_runs = 0;
  for (const std::uint64_t seed : seeds) {
    Model model = random_boxed_lp(seed, 40, 20, 0.4);
    const PreparedLp prep(model);
    std::vector<double> lower = model_lowers(model);
    std::vector<double> upper = model_uppers(model);

    SolveContext root_ctx;
    LpEngine engine;
    const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
    ASSERT_EQ(root.status, SolveStatus::kOptimal) << "seed " << seed;

    // A cut through the current optimum: sum of the fractional-support
    // values, tightened by 20%. Feasibility survives (x = 0 satisfies it).
    std::vector<Term> cut;
    double activity = 0.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const double v = root.values[static_cast<std::size_t>(j)];
      if (v > 1e-9) {
        cut.push_back({j, 1.0});
        activity += v;
      }
    }
    ASSERT_FALSE(cut.empty()) << "seed " << seed;
    model.add_constraint("cut", cut, Relation::kLessEqual, 0.8 * activity);

    const PreparedLp grown(model);
    ASSERT_EQ(grown.num_rows(), prep.num_rows() + 1) << "seed " << seed;
    std::vector<int> old_row_of_new;
    for (int r = 0; r < prep.num_rows(); ++r) old_row_of_new.push_back(r);
    old_row_of_new.push_back(-1);
    const BasisSnapshot mapped =
        extend_basis(*root.basis, prep.num_vars, old_row_of_new,
                     grown.num_rows(), grown.num_columns());

    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        grown, lower, upper, warm_ctx,
        LpStartBasis(&mapped, LpStartBasis::Origin::kRowsAdded));
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;

    SimplexOptions primal_only;
    primal_only.mode = SolveMode::kPrimal;
    SolveContext cold_ctx;
    const LpSolution cold =
        LpEngine(primal_only).solve(grown, lower, upper, cold_ctx);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::abs(cold.objective)))
        << "seed " << seed;
    EXPECT_TRUE(warm.warm_started) << "seed " << seed;
    if (warm.used_dual) ++dual_runs;
  }
  EXPECT_GE(dual_runs, 3);
}

// A cold start carries no reoptimization claim: kAuto must not attempt the
// dual simplex, and kDual from a dual-infeasible start (attractive reduced
// costs at the slack basis) must fall back to the primal and still solve.
TEST(DualSimplex, FallsBackToPrimalOnDualInfeasibleStart) {
  // min -x - y subject to x + y <= 4, x, y in [0, 3]: at the slack basis
  // both reduced costs are -1, so no dual-feasible start exists cold.
  Model model;
  const int x = model.add_continuous("x", 0.0, 3.0);
  const int y = model.add_continuous("y", 0.0, 3.0);
  model.set_objective(Sense::kMinimize, {{x, -1.0}, {y, -1.0}});
  model.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4.0);

  SolveContext auto_ctx;
  const LpSolution cold = LpEngine().solve(model, auto_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_FALSE(cold.used_dual);
  EXPECT_EQ(cold.dual_pivots, 0);
  EXPECT_NEAR(cold.objective, -4.0, 1e-9);

  SimplexOptions dual_mode;
  dual_mode.mode = SolveMode::kDual;
  SolveContext dual_ctx;
  const LpSolution forced = LpEngine(dual_mode).solve(model, dual_ctx);
  ASSERT_EQ(forced.status, SolveStatus::kOptimal);
  EXPECT_FALSE(forced.used_dual);  // gate rejected the start; primal solved
  EXPECT_NEAR(forced.objective, -4.0, 1e-9);
}

// End-to-end differential: branch-and-bound under forced-primal and
// default-auto LP modes must prove the same optimum, and auto must
// actually run dual re-solves on the node restarts.
TEST(DualSimplex, BranchAndBoundAgreesAcrossLpModes) {
  Rng rng(23);
  Model model;
  const int tasks = 8;
  const int agents = 3;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(tasks));
  std::vector<Term> objective;
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int v = model.add_binary("x_" + std::to_string(t) + "_" +
                                     std::to_string(a));
      x[static_cast<std::size_t>(t)].push_back(v);
      objective.push_back({v, rng.uniform(1.0, 20.0)});
    }
  }
  model.set_objective(Sense::kMinimize, objective);
  for (int t = 0; t < tasks; ++t) {
    std::vector<Term> row;
    for (const int v : x[static_cast<std::size_t>(t)]) row.push_back({v, 1.0});
    model.add_constraint("assign" + std::to_string(t), row, Relation::kEqual,
                         1.0);
  }
  for (int a = 0; a < agents; ++a) {
    std::vector<Term> row;
    for (int t = 0; t < tasks; ++t) {
      row.push_back(
          {x[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)],
           rng.uniform(1.0, 8.0)});
    }
    model.add_constraint("cap" + std::to_string(a), row, Relation::kLessEqual,
                         3.0 * tasks / agents);
  }

  milp::SolverOptions primal_options;
  primal_options.lp.mode = SolveMode::kPrimal;
  milp::SolverOptions auto_options;  // default kAuto

  SolveContext primal_ctx;
  const auto primal =
      milp::BranchAndBoundSolver(primal_options).solve(model, primal_ctx);
  SolveContext auto_ctx;
  const auto dual =
      milp::BranchAndBoundSolver(auto_options).solve(model, auto_ctx);

  ASSERT_EQ(primal.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(dual.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(primal.objective, dual.objective, 1e-6);

  // The simplex subtrees hang off whichever phase ran the LPs (root_lp,
  // cuts, node re-solves), so aggregate over the whole branch_and_bound
  // subtree.
  const SolveStats* bb = auto_ctx.stats().find("branch_and_bound");
  ASSERT_NE(bb, nullptr);
  EXPECT_GT(bb->metric("dual_reopt_nodes"), 0.0);
  EXPECT_GT(bb->deep_metric("dual_solves"), 0.0);
  EXPECT_GT(bb->deep_metric("dual_pivots") + bb->deep_metric("bound_flips"),
            0.0);

  const SolveStats* primal_bb = primal_ctx.stats().find("branch_and_bound");
  ASSERT_NE(primal_bb, nullptr);
  EXPECT_NEAR(primal_bb->metric("dual_reopt_nodes"), 0.0, 1e-9);
  EXPECT_NEAR(primal_bb->deep_metric("dual_solves"), 0.0, 1e-9);
}

// Rebuilds `model` keeping only the variables and constraints the
// predicates admit, preserving names and coefficients — the shape of a
// replan delta that dropped columns and rows from the formulation.
template <typename KeepVar, typename KeepRow>
Model drop_from_model(const Model& model, KeepVar keep_var, KeepRow keep_row) {
  Model out;
  std::vector<int> new_of_old(static_cast<std::size_t>(model.num_variables()),
                              -1);
  std::vector<Term> objective;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!keep_var(j)) continue;
    const Variable& v = model.variable(j);
    new_of_old[static_cast<std::size_t>(j)] =
        out.add_continuous(v.name, v.lower, v.upper);
  }
  for (const Term& t : model.objective()) {
    const int nj = new_of_old[static_cast<std::size_t>(t.var)];
    if (nj >= 0) objective.push_back({nj, t.coef});
  }
  out.set_objective(model.sense(), objective);
  for (int i = 0; i < model.num_constraints(); ++i) {
    if (!keep_row(i)) continue;
    const Constraint& row = model.constraint(i);
    std::vector<Term> terms;
    for (const Term& t : row.terms) {
      const int nj = new_of_old[static_cast<std::size_t>(t.var)];
      if (nj >= 0) terms.push_back({nj, t.coef});
    }
    out.add_constraint(row.name, terms, row.relation, row.rhs);
  }
  return out;
}

// The bound-flipping ratio test as the dual loop ran it before breakpoint
// selection: std::sort the whole list by ratio, flip boxed breakpoints while
// the row stays infeasible, enter the first one that absorbs the rest, then
// prefer the first largest |alpha| among the Harris candidates.
detail::BreakpointChoice sort_and_walk(std::vector<detail::DualBreakpoint> bps,
                                       double slope, double ftol, double dtol,
                                       std::vector<int>& flips) {
  std::sort(bps.begin(), bps.end(),
            [](const detail::DualBreakpoint& a,
               const detail::DualBreakpoint& b) { return a.ratio < b.ratio; });
  flips.clear();
  std::size_t enter_k = bps.size();
  for (std::size_t k = 0; k < bps.size(); ++k) {
    if (std::isfinite(bps[k].range)) {
      const double drop = bps[k].range * bps[k].abs_alpha;
      if (slope - drop > ftol) {
        slope -= drop;
        flips.push_back(bps[k].j);
        continue;
      }
    }
    enter_k = k;
    break;
  }
  detail::BreakpointChoice choice;
  choice.slope = slope;
  if (enter_k == bps.size()) return choice;
  double t_accept = std::numeric_limits<double>::infinity();
  for (std::size_t k = enter_k; k < bps.size(); ++k) {
    t_accept = std::min(t_accept, bps[k].ratio + dtol / bps[k].abs_alpha);
  }
  std::size_t best = enter_k;
  for (std::size_t k = enter_k + 1; k < bps.size() && bps[k].ratio <= t_accept;
       ++k) {
    if (bps[k].abs_alpha > bps[best].abs_alpha) best = k;
  }
  choice.enter = bps[best].j;
  return choice;
}

// Breakpoint selection must reproduce the full sort bit for bit: the same
// entering column (Harris choice included), flip list and remaining slope,
// including lists whose read part holds exact ties, at ratio 0 and at equal
// positive ratios, where std::sort's tie order decides.
TEST(DualSimplex, BreakpointSelectionMatchesFullSort) {
  Rng rng(2024);
  int heap_decided = 0;
  int tie_fallbacks = 0;
  int rays = 0;
  int harris_moves = 0;
  std::vector<detail::DualBreakpoint> heap;
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 300));
    // Tie flavour: 0 none, 1 a block at ratio 0, 2 a coarse grid of
    // positive ratios, 3 both.
    const int ties = trial % 4;
    std::vector<detail::DualBreakpoint> bps;
    double total_drop = 0.0;
    for (int k = 0; k < n; ++k) {
      detail::DualBreakpoint bp{};
      bp.j = static_cast<int>(rng.uniform_int(0, 5000));
      bp.ratio = rng.uniform(0.0, 2.0);
      if ((ties & 1) != 0 && rng.uniform() < 0.1) bp.ratio = 0.0;
      if ((ties & 2) != 0 && rng.uniform() < 0.5) {
        bp.ratio = 0.125 * static_cast<double>(rng.uniform_int(0, 6));
      }
      bp.abs_alpha = rng.uniform(1e-3, 4.0);
      const bool boxed = rng.uniform() < 0.8;
      bp.range = boxed ? rng.uniform(0.1, 3.0)
                       : std::numeric_limits<double>::infinity();
      if (boxed) total_drop += bp.range * bp.abs_alpha;
      bps.push_back(bp);
    }
    // Every 7th list is all boxed with more infeasibility than all flips
    // absorb: the walk flips everything and reports a ray.
    if (trial % 7 == 0) {
      total_drop = 0.0;
      for (auto& bp : bps) {
        bp.range = rng.uniform(0.1, 3.0);
        total_drop += bp.range * bp.abs_alpha;
      }
    }
    const double slope = trial % 7 == 0
                             ? total_drop * 2.0 + 1.0
                             : rng.uniform(0.0, 1.0) * total_drop * 0.05 + 1e-3;
    const double ftol = 1e-7;
    const double dtol = trial % 3 == 0 ? 0.05 : 1e-7;

    std::vector<int> want_flips;
    const detail::BreakpointChoice want =
        sort_and_walk(bps, slope, ftol, dtol, want_flips);
    std::vector<detail::DualBreakpoint> work = bps;
    std::vector<int> got_flips = {-1};  // stale entries must be cleared
    const detail::BreakpointChoice got =
        detail::select_breakpoint(work, heap, slope, ftol, dtol, got_flips);

    ASSERT_EQ(got.enter, want.enter) << "trial " << trial;
    ASSERT_EQ(got_flips, want_flips) << "trial " << trial;
    ASSERT_EQ(std::memcmp(&got.slope, &want.slope, sizeof(double)), 0)
        << "trial " << trial << ": " << got.slope << " vs " << want.slope;
    if (want.enter < 0) ++rays;
    if (!got.sorted) ++heap_decided;
    if (got.sorted) ++tie_fallbacks;
    // Continuous ratios never tie, so only tied lists may need the sort.
    if (ties == 0) {
      EXPECT_FALSE(got.sorted) << "trial " << trial;
    }
    if (want.enter >= 0) {
      // Did Harris pick something other than the first absorbing breakpoint?
      std::vector<int> none;
      const detail::BreakpointChoice plain =
          sort_and_walk(bps, slope, ftol, 0.0, none);
      if (plain.enter != want.enter) ++harris_moves;
    }
  }
  // A Harris candidate exactly at t_accept = 0.5 + 0.25 / 1 still counts.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<detail::DualBreakpoint> boundary = {
      {7, 2.0, 1.0, inf}, {5, 0.75, 2.0, inf}, {3, 0.5, 1.0, inf}};
  std::vector<int> flips;
  EXPECT_EQ(sort_and_walk(boundary, 1.0, 1e-7, 0.25, flips).enter, 5);
  EXPECT_EQ(detail::select_breakpoint(boundary, heap, 1.0, 1e-7, 0.25, flips)
                .enter,
            5);

  // Every path was exercised.
  EXPECT_GT(heap_decided, 500);
  EXPECT_GT(tie_fallbacks, 100);
  EXPECT_GT(rays, 100);
  EXPECT_GT(harris_moves, 50);
}

// A basis named against a model and remapped back onto the same model must
// reproduce the optimal basis exactly: the warm solve starts optimal.
TEST(NamedBasis, RoundTripOnSameModelStartsOptimal) {
  const Model model = random_boxed_lp(71, 50, 25, 0.3);
  LpEngine engine;
  SolveContext cold_ctx;
  const LpSolution cold = engine.solve(model, cold_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_NE(cold.basis, nullptr);

  const NamedBasis named = name_basis(model, *cold.basis);
  EXPECT_EQ(static_cast<int>(named.variables.size()), model.num_variables());
  const auto mapped = remap_basis(named, model);
  ASSERT_TRUE(mapped.has_value());

  const PreparedLp prep(model);
  SolveContext warm_ctx;
  const LpSolution warm =
      engine.solve(prep, model_lowers(model), model_uppers(model), warm_ctx,
                   LpStartBasis(&*mapped, LpStartBasis::Origin::kBoundChange));
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_LT(warm.iterations, cold.iterations);
}

// Remapping across a delta that removed columns and a row: the carried
// basis (repaired if the survivors went singular) must warm-start the new
// LP and land on the same optimum a cold solve finds.
TEST(NamedBasis, RemapSurvivesDroppedColumnsAndRows) {
  const std::uint64_t seeds[] = {21, 22, 23, 24};
  int warm_runs = 0;
  for (const std::uint64_t seed : seeds) {
    const Model model = random_boxed_lp(seed, 60, 30, 0.3);
    LpEngine engine;
    SolveContext base_ctx;
    const LpSolution base = engine.solve(model, base_ctx);
    ASSERT_EQ(base.status, SolveStatus::kOptimal) << "seed " << seed;
    const NamedBasis named = name_basis(model, *base.basis);

    // Drop every 9th variable and two rows — a "pin" style delta.
    const Model target = drop_from_model(
        model, [](int j) { return j % 9 != 0; },
        [](int i) { return i != 4 && i != 17; });
    const auto mapped = remap_basis(named, target);
    ASSERT_TRUE(mapped.has_value()) << "seed " << seed;

    const PreparedLp prep(target);
    SolveContext cold_ctx;
    const LpSolution cold =
        engine.solve(prep, model_lowers(target), model_uppers(target),
                     cold_ctx);
    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        prep, model_lowers(target), model_uppers(target), warm_ctx,
        LpStartBasis(&*mapped, LpStartBasis::Origin::kBoundChange));
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "seed " << seed;
    if (warm.warm_started) ++warm_runs;
  }
  // The repair may reject an occasional degenerate map, but a name-based
  // carry-over that never applies would be broken.
  EXPECT_GT(warm_runs, 0);
}

// Malformed inputs: a snapshot that does not match the model's standard
// form is an input error for name_basis, and a NamedBasis whose recorded
// shape disagrees with its snapshot remaps to nullopt.
TEST(NamedBasis, RejectsMalformedShapes) {
  const Model model = random_boxed_lp(31, 20, 10, 0.4);
  LpEngine engine;
  SolveContext ctx;
  const LpSolution sol = engine.solve(model, ctx);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  BasisSnapshot truncated = *sol.basis;
  truncated.basic_columns.pop_back();
  EXPECT_THROW((void)name_basis(model, truncated), etransform::InvalidInputError);

  NamedBasis inconsistent = name_basis(model, *sol.basis);
  inconsistent.variables.pop_back();
  EXPECT_FALSE(remap_basis(inconsistent, model).has_value());
}

}  // namespace
}  // namespace etransform::lp
