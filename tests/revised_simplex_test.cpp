// Tests for the sparse revised simplex core: sparse-vs-dense differential
// agreement, cycling/degeneracy under partial pricing, warm-start
// regressions, numerical-error reporting, the basis-engine contract
// across repeated refactorizations, sparse-LU properties over random bases,
// an engine kept across solves against fresh ones, and PreparedLp's
// row-major copy.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lp/basis.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"

namespace etransform::lp {
namespace {

Model random_lp(std::uint64_t seed, int vars, int rows, double density) {
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

LpSolution solve_sparse(const Model& model) {
  SolveContext ctx;
  return LpEngine().solve(model, ctx);
}

LpSolution solve_dense(const Model& model) {
  SimplexOptions options;
  options.use_dense_fallback = true;
  options.pricing = PricingRule::kDantzig;
  SolveContext ctx;
  return LpEngine(options).solve(model, ctx);
}

// The two engines take different pivot paths but must agree on the optimum.
// Densities above the dense-window threshold exercise the hybrid
// Markowitz-then-dense factorization; sparse ones stay pure Markowitz.
TEST(RevisedSimplex, SparseAndDenseAgreeOnRandomLps) {
  const struct {
    std::uint64_t seed;
    int vars;
    int rows;
    double density;
  } cases[] = {
      {3, 40, 20, 0.3},  {4, 40, 30, 0.7},  {5, 80, 40, 0.1},
      {6, 80, 40, 0.5},  {7, 120, 60, 0.3}, {8, 60, 60, 0.9},
  };
  for (const auto& c : cases) {
    const Model model = random_lp(c.seed, c.vars, c.rows, c.density);
    const LpSolution sparse = solve_sparse(model);
    const LpSolution dense = solve_dense(model);
    SCOPED_TRACE("seed=" + std::to_string(c.seed));
    ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
    ASSERT_EQ(dense.status, SolveStatus::kOptimal);
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * (1.0 + std::abs(dense.objective)));
    // Duals of an optimal basis certify the objective; both engines must
    // produce complementary prices even if the optimal basis differs.
    ASSERT_EQ(sparse.duals.size(), dense.duals.size());
    double sparse_dual_obj = 0.0;
    double dense_dual_obj = 0.0;
    for (std::size_t r = 0; r < sparse.duals.size(); ++r) {
      sparse_dual_obj += sparse.duals[r];
      dense_dual_obj += dense.duals[r];
    }
    EXPECT_TRUE(std::isfinite(sparse_dual_obj));
    EXPECT_TRUE(std::isfinite(dense_dual_obj));
  }
}

// Beale's classic cycling example: Dantzig pricing without safeguards
// cycles forever on it. Partial pricing with the Bland fallback must
// terminate at the optimum, objective -1/20.
TEST(RevisedSimplex, BealeCyclingLpTerminates) {
  Model model;
  const int x4 = model.add_continuous("x4", 0.0, kInfinity);
  const int x5 = model.add_continuous("x5", 0.0, kInfinity);
  const int x6 = model.add_continuous("x6", 0.0, kInfinity);
  const int x7 = model.add_continuous("x7", 0.0, kInfinity);
  model.set_objective(Sense::kMinimize, {{x4, -0.75},
                                         {x5, 150.0},
                                         {x6, -0.02},
                                         {x7, 6.0}});
  model.add_constraint("r1",
                       {{x4, 0.25}, {x5, -60.0}, {x6, -1.0 / 25.0}, {x7, 9.0}},
                       Relation::kLessEqual, 0.0);
  model.add_constraint("r2",
                       {{x4, 0.5}, {x5, -90.0}, {x6, -1.0 / 50.0}, {x7, 3.0}},
                       Relation::kLessEqual, 0.0);
  model.add_constraint("r3", {{x6, 1.0}}, Relation::kLessEqual, 1.0);

  const LpSolution sparse = solve_sparse(model);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, -0.05, 1e-9);
  EXPECT_LT(sparse.iterations, 1000);

  const LpSolution dense = solve_dense(model);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, -0.05, 1e-9);
}

// Warm-starting from the parent's optimal basis after a single branching
// bound change must re-solve in far fewer pivots than a cold start, and
// reach the same optimum.
TEST(RevisedSimplex, WarmStartAfterBoundChangeSavesIterations) {
  const Model model = random_lp(11, 100, 50, 0.3);
  const PreparedLp prep(model);
  LpEngine solver;

  std::vector<double> lower(static_cast<std::size_t>(model.num_variables()));
  std::vector<double> upper(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }

  SolveContext root_ctx;
  const LpSolution root = solver.solve(prep, lower, upper, root_ctx);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  ASSERT_NE(root.basis, nullptr);

  // "Branch": fix the first variable with a fractional-looking value to 0.
  upper[0] = 0.0;

  SolveContext cold_ctx;
  const LpSolution cold = solver.solve(prep, lower, upper, cold_ctx);
  SolveContext warm_ctx;
  const LpSolution warm =
      solver.solve(prep, lower, upper, warm_ctx,
                   LpStartBasis(root.basis.get()));

  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LE(warm.phase1_iterations, cold.phase1_iterations);
}

// A numerically singular basis must be reported as such by the engine, for
// both factorization paths.
TEST(RevisedSimplex, EnginesRejectSingularBasis) {
  // Two identical columns plus one slack: rank 2 < 3.
  std::vector<SparseColumn> columns(3);
  columns[0].rows = {0, 1, 2};
  columns[0].coefs = {1.0, 2.0, 3.0};
  columns[1] = columns[0];
  columns[2].rows = {2};
  columns[2].coefs = {1.0};
  const std::vector<int> basis = {0, 1, 2};
  for (const bool dense : {false, true}) {
    const auto engine = make_basis_factorization(3, dense, 1e-9);
    EXPECT_FALSE(engine->factorize(columns, basis))
        << (dense ? "dense" : "sparse");
  }
}

void expect_identical(const LpSolution& got, const LpSolution& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.duals, want.duals);
  ASSERT_EQ(got.basis == nullptr, want.basis == nullptr);
  if (got.basis != nullptr) {
    EXPECT_EQ(got.basis->basic_columns, want.basis->basic_columns);
    EXPECT_EQ(got.basis->column_status, want.basis->column_status);
  }
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.phase1_iterations, want.phase1_iterations);
  EXPECT_EQ(got.refactorizations, want.refactorizations);
  EXPECT_EQ(got.degenerate_pivots, want.degenerate_pivots);
  EXPECT_EQ(got.dual_pivots, want.dual_pivots);
  EXPECT_EQ(got.bound_flips, want.bound_flips);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.used_dual, want.used_dual);
}

// An LpEngine keeps its factorization engine across solves. Nothing a solve
// leaves behind may reach the next one: over a sequence whose row count
// grows and shrinks, with a warm dual re-solve, a singular warm basis that
// fails to factorize, iteration-limit stops and the dense fallback, every
// solution of the kept engine equals a fresh engine's bit for bit.
TEST(RevisedSimplex, KeptEngineMatchesFreshEngineOverASequence) {
  const Model a = random_lp(41, 40, 20, 0.3);
  const Model b = random_lp(42, 60, 35, 0.2);
  const Model c = random_lp(43, 15, 10, 0.5);
  // `d` has two identical columns, so a basis holding both is singular.
  Model d = random_lp(44, 12, 8, 0.5);
  {
    Model rebuilt;
    for (int j = 0; j < d.num_variables(); ++j) {
      rebuilt.add_continuous(d.variable(j).name, d.variable(j).lower,
                             d.variable(j).upper);
    }
    rebuilt.set_objective(d.sense(), d.objective());
    for (int i = 0; i < d.num_constraints(); ++i) {
      std::vector<Term> terms = {{0, 1.0 + i}, {1, 1.0 + i}};
      for (const Term& t : d.constraint(i).terms) {
        if (t.var > 1) terms.push_back(t);
      }
      rebuilt.add_constraint(d.constraint(i).name, terms,
                             d.constraint(i).relation, d.constraint(i).rhs);
    }
    d = std::move(rebuilt);
  }
  const PreparedLp pa(a);
  const PreparedLp pb(b);
  const PreparedLp pc(c);
  const PreparedLp pd(d);
  const auto bounds = [](const Model& model, std::vector<double>& lower,
                         std::vector<double>& upper) {
    lower.clear();
    upper.clear();
    for (int j = 0; j < model.num_variables(); ++j) {
      lower.push_back(model.variable(j).lower);
      upper.push_back(model.variable(j).upper);
    }
  };
  std::vector<double> la, ua, lb, ub, lc, uc, ld, ud;
  bounds(a, la, ua);
  bounds(b, lb, ub);
  bounds(c, lc, uc);
  bounds(d, ld, ud);

  // Warm start for `a`: its optimal basis, re-solved after a bound change.
  SolveContext root_ctx;
  const LpSolution a_root = LpEngine().solve(pa, la, ua, root_ctx);
  ASSERT_EQ(a_root.status, SolveStatus::kOptimal);
  std::vector<double> ua_branch = ua;
  for (int j = 0; j < a.num_variables(); ++j) {
    const double v = a_root.values[static_cast<std::size_t>(j)];
    if (v > 1e-6) {
      ua_branch[static_cast<std::size_t>(j)] = v / 2;
      break;
    }
  }
  // Singular warm start for `d`: both twins basic, slacks elsewhere.
  BasisSnapshot singular;
  singular.column_status.assign(static_cast<std::size_t>(pd.num_columns()),
                                BasisVarStatus::kAtLower);
  for (int r = 0; r < pd.num_rows(); ++r) {
    const int col = r < 2 ? r : pd.num_vars + r;
    singular.basic_columns.push_back(col);
    singular.column_status[static_cast<std::size_t>(col)] =
        BasisVarStatus::kBasic;
  }

  struct Step {
    const PreparedLp* prep;
    const std::vector<double>* lower;
    const std::vector<double>* upper;
    LpStartBasis start;
  };
  const std::vector<Step> steps = {
      {&pa, &la, &ua, {}},
      {&pb, &lb, &ub, {}},  // more rows
      {&pa, &la, &ua_branch,
       LpStartBasis(a_root.basis.get(), LpStartBasis::Origin::kBoundChange)},
      {&pd, &ld, &ud, LpStartBasis(&singular)},  // fewer rows, singular
      {&pd, &ld, &ud, {}},  // right after the failed factorization
      {&pc, &lc, &uc, {}},
      {&pa, &la, &ua_branch,
       LpStartBasis(a_root.basis.get(), LpStartBasis::Origin::kBoundChange)},
  };

  SimplexOptions limited;
  limited.max_iterations = 6;
  SimplexOptions dense;
  dense.use_dense_fallback = true;
  int limit_stops = 0;
  int dual_solves = 0;
  int singular_fallbacks = 0;
  for (const SimplexOptions& options : {SimplexOptions{}, limited, dense}) {
    LpEngine kept(options);
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const Step& step = steps[k];
      SolveContext kept_ctx;
      const LpSolution got = kept.solve(*step.prep, *step.lower, *step.upper,
                                        kept_ctx, step.start);
      SolveContext fresh_ctx;
      const LpSolution want = LpEngine(options).solve(
          *step.prep, *step.lower, *step.upper, fresh_ctx, step.start);
      expect_identical(got, want,
                       std::string(options.use_dense_fallback ? "dense" : "lu") +
                           " max_iterations=" +
                           std::to_string(options.max_iterations) + " step " +
                           std::to_string(k));
      if (got.status == SolveStatus::kIterationLimit) ++limit_stops;
      if (got.used_dual) ++dual_solves;
      if (step.start.snapshot == &singular && !got.warm_started) {
        ++singular_fallbacks;
      }
    }
  }
  EXPECT_GT(limit_stops, 0);
  EXPECT_GT(dual_solves, 0);
  EXPECT_EQ(singular_fallbacks, 3);
}

// Regression for a factorization-reuse bug: the Schur-update scratch marks
// persist across factorize() calls, so a second factorization of the same
// object must still produce the same factors as a fresh engine (the broken
// version silently dropped fill-in entries on every refactorization).
TEST(RevisedSimplex, RefactorizeTwiceMatchesFreshEngine) {
  const int m = 40;
  Rng rng(17);
  std::vector<SparseColumn> columns(static_cast<std::size_t>(2 * m));
  for (int j = 0; j < 2 * m; ++j) {
    auto& col = columns[static_cast<std::size_t>(j)];
    for (int i = 0; i < m; ++i) {
      if (rng.uniform() < 0.25) {
        col.rows.push_back(i);
        col.coefs.push_back(rng.uniform(-2.0, 2.0));
      }
    }
    // Guarantee a structural diagonal so random bases stay nonsingular.
    const int diag = j % m;
    col.rows.push_back(diag);
    col.coefs.push_back(3.0 + rng.uniform(0.0, 1.0));
  }
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) basis[static_cast<std::size_t>(k)] = k;

  const auto engine = make_basis_factorization(m, /*dense=*/false, 1e-9);
  ASSERT_TRUE(engine->factorize(columns, basis));

  // Pivot a few replacement columns in via product-form updates.
  std::vector<double> w(static_cast<std::size_t>(m));
  for (int pivot = 0; pivot < 6; ++pivot) {
    const int entering = m + pivot;
    const SparseColumn& col = columns[static_cast<std::size_t>(entering)];
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      w[static_cast<std::size_t>(col.rows[e])] = col.coefs[e];
    }
    engine->ftran(w);
    const int r = pivot;  // replace basis position `pivot`
    ASSERT_TRUE(engine->update(w, r));
    basis[static_cast<std::size_t>(r)] = entering;
  }

  // Refactorize the SAME engine object, then compare its solves against a
  // brand-new engine factorizing the same basis.
  ASSERT_TRUE(engine->factorize(columns, basis));
  const auto fresh = make_basis_factorization(m, /*dense=*/false, 1e-9);
  ASSERT_TRUE(fresh->factorize(columns, basis));

  Rng probe_rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      x[static_cast<std::size_t>(i)] = probe_rng.uniform(-1.0, 1.0);
    }
    std::vector<double> ftran_reused = x;
    std::vector<double> ftran_fresh = x;
    engine->ftran(ftran_reused);
    fresh->ftran(ftran_fresh);
    std::vector<double> btran_reused = x;
    std::vector<double> btran_fresh = x;
    engine->btran(btran_reused);
    fresh->btran(btran_fresh);
    // Same basis, same pivot order: the factors, and so every solve, must
    // be bit-identical whatever scratch the engine kept.
    for (int i = 0; i < m; ++i) {
      EXPECT_EQ(ftran_reused[static_cast<std::size_t>(i)],
                ftran_fresh[static_cast<std::size_t>(i)])
          << "ftran trial " << trial << " row " << i;
      EXPECT_EQ(btran_reused[static_cast<std::size_t>(i)],
                btran_fresh[static_cast<std::size_t>(i)])
          << "btran trial " << trial << " row " << i;
    }
  }
}

// Random column pool for the factorization property test: `slacks` unit
// columns (e_i for i < slacks) followed by `structurals` columns with
// entry density `density` and a dominant diagonal entry in row j % m, which
// keeps bases drawn from it well conditioned.
std::vector<SparseColumn> random_column_pool(Rng& rng, int m, int slacks,
                                             int structurals, double density) {
  std::vector<SparseColumn> pool;
  for (int i = 0; i < slacks; ++i) {
    SparseColumn col;
    col.rows.push_back(i);
    col.coefs.push_back(1.0);
    pool.push_back(std::move(col));
  }
  for (int j = 0; j < structurals; ++j) {
    SparseColumn col;
    const int diag = j % m;
    for (int i = 0; i < m; ++i) {
      if (i == diag) {
        col.rows.push_back(i);
        col.coefs.push_back(static_cast<double>(m) * (1.0 + rng.uniform()));
      } else if (rng.uniform() < density) {
        col.rows.push_back(i);
        col.coefs.push_back(rng.uniform(-2.0, 2.0));
      }
    }
    pool.push_back(std::move(col));
  }
  return pool;
}

// Checks max_i |(B z - x)_i| for z = B^-1 x and max_k |(B^T y - x)_k| for
// y = B^-T x against 1e-9, over one random probe x.
void expect_small_residuals(const BasisFactorization& engine,
                            const std::vector<SparseColumn>& pool,
                            const std::vector<int>& basis, Rng& rng,
                            const std::string& label) {
  const int m = static_cast<int>(basis.size());
  std::vector<double> x(static_cast<std::size_t>(m));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  std::vector<double> z = x;
  engine.ftran(z);
  std::vector<double> bz(static_cast<std::size_t>(m), 0.0);
  for (int k = 0; k < m; ++k) {
    const SparseColumn& col =
        pool[static_cast<std::size_t>(basis[static_cast<std::size_t>(k)])];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      bz[static_cast<std::size_t>(col.rows[e])] +=
          col.coefs[e] * z[static_cast<std::size_t>(k)];
    }
  }
  std::vector<double> y = x;
  engine.btran(y);
  double ftran_residual = 0.0;
  double btran_residual = 0.0;
  for (int k = 0; k < m; ++k) {
    ftran_residual = std::max(
        ftran_residual, std::abs(bz[static_cast<std::size_t>(k)] -
                                 x[static_cast<std::size_t>(k)]));
    const SparseColumn& col =
        pool[static_cast<std::size_t>(basis[static_cast<std::size_t>(k)])];
    const double bty = TableauRowExtractor::row_coefficient(y, col);
    btran_residual = std::max(
        btran_residual, std::abs(bty - x[static_cast<std::size_t>(k)]));
  }
  EXPECT_LE(ftran_residual, 1e-9) << label;
  EXPECT_LE(btran_residual, 1e-9) << label;
}

// Property test of the sparse LU over random bases: slack-heavy bases
// (mostly count-1 columns), bases dense enough to take the dense-window
// path from the first step (m >= 32, density >= 0.35), and singular ones.
// One engine refactorizes every basis in turn and must match a fresh
// engine bit for bit, with FTRAN/BTRAN residuals within 1e-9.
TEST(RevisedSimplex, SparseLuPropertiesOverRandomBases) {
  const struct {
    int m;
    int slacks;
    double density;
  } shapes[] = {
      {24, 24, 0.15},  // slack-heavy, pure Markowitz
      {40, 40, 0.08},  // slack-heavy, large enough for the density check
      {48, 0, 0.05},   // sparse structurals only
      {40, 8, 0.5},    // starts dense: dense window at step 0
      {64, 16, 0.5},
  };
  Rng rng(2012);
  for (const auto& shape : shapes) {
    const int m = shape.m;
    const std::vector<SparseColumn> pool =
        random_column_pool(rng, m, shape.slacks, 2 * m, shape.density);
    const auto reused = make_basis_factorization(m, /*dense=*/false, 1e-9);
    for (int trial = 0; trial < 6; ++trial) {
      // Basis: structural column k or k + m at position k, except that a
      // slack-heavy shape puts its unit column in about 3 of 4 positions.
      std::vector<int> basis(static_cast<std::size_t>(m));
      for (int k = 0; k < m; ++k) {
        const bool slack = k < shape.slacks && rng.uniform() < 0.75;
        const int structural =
            shape.slacks + k + (rng.uniform() < 0.5 ? 0 : m);
        basis[static_cast<std::size_t>(k)] = slack ? k : structural;
      }
      const std::string label = "m=" + std::to_string(m) + " slacks=" +
                                std::to_string(shape.slacks) + " trial " +
                                std::to_string(trial);
      ASSERT_TRUE(reused->factorize(pool, basis)) << label;
      const auto fresh = make_basis_factorization(m, /*dense=*/false, 1e-9);
      ASSERT_TRUE(fresh->factorize(pool, basis)) << label;
      EXPECT_EQ(reused->counters().factor_entries,
                fresh->counters().factor_entries)
          << label;
      std::vector<double> x(static_cast<std::size_t>(m));
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      std::vector<double> a = x;
      std::vector<double> b = x;
      reused->ftran(a);
      fresh->ftran(b);
      EXPECT_EQ(a, b) << label << " ftran";
      a = x;
      b = x;
      reused->btran(a);
      fresh->btran(b);
      EXPECT_EQ(a, b) << label << " btran";
      expect_small_residuals(*reused, pool, basis, rng, label);

      // Singular variants of the same basis, through the same engine: an
      // empty (count-0) column, and a repeated column.
      std::vector<SparseColumn> with_empty = pool;
      with_empty.push_back(SparseColumn{});
      std::vector<int> singular = basis;
      singular[static_cast<std::size_t>(trial % m)] =
          static_cast<int>(with_empty.size()) - 1;
      EXPECT_FALSE(reused->factorize(with_empty, singular)) << label;
      singular = basis;
      singular[static_cast<std::size_t>((trial + 1) % m)] =
          singular[static_cast<std::size_t>(trial % m)];
      EXPECT_FALSE(reused->factorize(pool, singular)) << label;
    }
  }
}

// PreparedLp's row-major copy is the exact transpose of `columns`, slack
// columns included, over the kept rows only (dropped rows leave no row).
TEST(RevisedSimplex, PreparedLpRowMajorCopyIsExactTranspose) {
  Model model;
  const int x = model.add_continuous("x", 0.0, 4.0);
  const int y = model.add_continuous("y", -1.0, 1.0);
  const int z = model.add_continuous("z", 0.0, kInfinity);
  model.set_objective(Sense::kMinimize, {{x, 1.0}, {y, -2.0}, {z, 0.5}});
  model.add_constraint("a", {{x, 1.0}, {z, -3.0}}, Relation::kLessEqual, 5.0);
  model.add_constraint("vacuous", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual,
                       kInfinity);
  model.add_constraint("b", {{y, 2.0}, {x, 0.25}}, Relation::kGreaterEqual,
                       -1.0);
  model.add_constraint("empty", {{z, 0.0}}, Relation::kLessEqual, 1.0);
  model.add_constraint("c", {{z, 7.0}, {y, -1.5}, {x, 1.0}}, Relation::kEqual,
                       2.0);
  const PreparedLp prep(model);
  ASSERT_EQ(prep.num_rows(), 3);
  EXPECT_EQ(prep.row_of_model_row, (std::vector<int>{0, -1, 1, -1, 2}));
  ASSERT_EQ(prep.row_start.size(), static_cast<std::size_t>(prep.num_rows()) + 1);
  EXPECT_EQ(prep.row_start.front(), 0);

  // Rebuild the transpose from the columns and compare entry for entry.
  std::vector<std::vector<std::pair<int, double>>> rows(
      static_cast<std::size_t>(prep.num_rows()));
  for (int j = 0; j < prep.num_columns(); ++j) {
    const SparseColumn& col = prep.columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      rows[static_cast<std::size_t>(col.rows[e])].emplace_back(j, col.coefs[e]);
    }
  }
  std::size_t total = 0;
  for (int r = 0; r < prep.num_rows(); ++r) {
    const auto& want = rows[static_cast<std::size_t>(r)];
    const int begin = prep.row_start[static_cast<std::size_t>(r)];
    const int end = prep.row_start[static_cast<std::size_t>(r) + 1];
    ASSERT_EQ(static_cast<std::size_t>(end - begin), want.size()) << "row " << r;
    for (int e = begin; e < end; ++e) {
      const auto& [col, coef] = want[static_cast<std::size_t>(e - begin)];
      EXPECT_EQ(prep.row_cols[static_cast<std::size_t>(e)], col) << "row " << r;
      EXPECT_EQ(prep.row_coefs[static_cast<std::size_t>(e)], coef) << "row " << r;
    }
    // Each kept row ends with its own +1 slack column.
    EXPECT_EQ(prep.row_cols[static_cast<std::size_t>(end) - 1],
              prep.num_vars + r);
    EXPECT_EQ(prep.row_coefs[static_cast<std::size_t>(end) - 1], 1.0);
    total += want.size();
  }
  EXPECT_EQ(prep.row_cols.size(), total);
  EXPECT_EQ(prep.row_coefs.size(), total);
  // Row "c" lists x, y, z in ascending column order whatever the model's
  // term order was.
  const int c_begin = prep.row_start[2];
  EXPECT_EQ(prep.row_cols[static_cast<std::size_t>(c_begin)], x);
  EXPECT_EQ(prep.row_cols[static_cast<std::size_t>(c_begin) + 1], y);
  EXPECT_EQ(prep.row_cols[static_cast<std::size_t>(c_begin) + 2], z);
}

// B&B node warm-starting must reduce the total simplex work on a
// branching-heavy assignment MILP without changing the optimum.
TEST(RevisedSimplex, BranchAndBoundWarmStartReducesLpIterations) {
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

  // Cuts off: the root cutting loop can close this instance at the root,
  // and this test is specifically about node-LP warm starts in the tree.
  milp::SolverOptions warm_options;
  warm_options.search.warm_start_nodes = true;
  warm_options.cuts.enable = false;
  milp::SolverOptions cold_options;
  cold_options.search.warm_start_nodes = false;
  cold_options.cuts.enable = false;

  SolveContext warm_ctx;
  const auto warm = milp::BranchAndBoundSolver(warm_options).solve(model,
                                                                   warm_ctx);
  SolveContext cold_ctx;
  const auto cold = milp::BranchAndBoundSolver(cold_options).solve(model,
                                                                   cold_ctx);

  ASSERT_EQ(warm.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(cold.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_LT(warm.lp_iterations, cold.lp_iterations);

  // The stats tree records how many nodes actually reused a parent basis.
  const SolveStats* bb = warm_ctx.stats().find("branch_and_bound");
  ASSERT_NE(bb, nullptr);
  EXPECT_GT(bb->metric("warm_started_nodes"), 0.0);
}

// TableauRowExtractor recovers rows of B^-1 A by one BTRAN each (the cut
// separators build Gomory cuts from them). Two identities pin it down on an
// optimal basis of a random LP:
//   * the coefficient of the q-th basic column in tableau row p is δ_pq
//     (B^-1 B = I),
//   * every tableau row is satisfied by the primal point: since A x = b in
//     the internal form, rho_p . (A x) must equal rho_p . b.
TEST(RevisedSimplex, TableauRowExtractorRecoversIdentityOnBasicColumns) {
  const Model model = random_lp(/*seed=*/11, /*vars=*/8, /*rows=*/6,
                                /*density=*/0.6);
  const PreparedLp prep(model);
  std::vector<double> lower;
  std::vector<double> upper;
  for (int j = 0; j < model.num_variables(); ++j) {
    lower.push_back(model.variable(j).lower);
    upper.push_back(model.variable(j).upper);
  }
  SolveContext ctx;
  const auto solution =
      LpEngine().solve(prep, lower, upper, ctx);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  ASSERT_NE(solution.basis, nullptr);
  const auto& basic = solution.basis->basic_columns;
  ASSERT_EQ(static_cast<int>(basic.size()), prep.num_rows());

  TableauRowExtractor extractor;
  ASSERT_TRUE(extractor.load(prep.num_rows(), prep.columns, basic));

  // Internal primal point: model variables then one slack per row
  // (a.x + s = rhs).
  std::vector<double> internal(static_cast<std::size_t>(prep.num_columns()),
                               0.0);
  for (int j = 0; j < prep.num_vars; ++j) {
    internal[static_cast<std::size_t>(j)] = solution.values[static_cast<std::size_t>(j)];
  }
  std::vector<double> activity(static_cast<std::size_t>(prep.num_rows()), 0.0);
  for (int j = 0; j < prep.num_vars; ++j) {
    const auto& column = prep.columns[static_cast<std::size_t>(j)];
    for (std::size_t k = 0; k < column.rows.size(); ++k) {
      activity[static_cast<std::size_t>(column.rows[k])] +=
          column.coefs[k] * internal[static_cast<std::size_t>(j)];
    }
  }
  for (int r = 0; r < prep.num_rows(); ++r) {
    internal[static_cast<std::size_t>(prep.num_vars + r)] =
        prep.rhs[static_cast<std::size_t>(r)] -
        activity[static_cast<std::size_t>(r)];
  }

  for (int p = 0; p < prep.num_rows(); ++p) {
    const auto& rho = extractor.row_multipliers(p);
    // Identity block over the basic columns.
    for (int q = 0; q < prep.num_rows(); ++q) {
      const double coef = TableauRowExtractor::row_coefficient(
          rho, prep.columns[static_cast<std::size_t>(
                   basic[static_cast<std::size_t>(q)])]);
      EXPECT_NEAR(coef, p == q ? 1.0 : 0.0, 1e-8)
          << "tableau row " << p << ", basic column " << q;
    }
    // Row equation: sum_j abar_j x_j == rho . rhs at the primal point.
    double lhs = 0.0;
    for (int c = 0; c < prep.num_columns(); ++c) {
      lhs += TableauRowExtractor::row_coefficient(
                 rho, prep.columns[static_cast<std::size_t>(c)]) *
             internal[static_cast<std::size_t>(c)];
    }
    double rhs = 0.0;
    for (int r = 0; r < prep.num_rows(); ++r) {
      rhs += rho[static_cast<std::size_t>(r)] *
             prep.rhs[static_cast<std::size_t>(r)];
    }
    EXPECT_NEAR(lhs, rhs, 1e-7) << "tableau row " << p;
  }
}

}  // namespace
}  // namespace etransform::lp
