#include "lp/lp_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "lp/basis.h"
#include "lp/simplex_core.h"
#include "telemetry/metrics.h"

namespace etransform::lp {

LpEngine::LpEngine(SimplexOptions options) : options_(options) {}

BasisFactorization& LpEngine::factorization(int rows) {
  if (factorization_ == nullptr || factorization_rows_ != rows) {
    factorization_ = make_basis_factorization(
        rows, options_.use_dense_fallback, options_.pivot_tol);
    factorization_rows_ = rows;
  }
  return *factorization_;
}

LpSolution LpEngine::solve(const Model& model, SolveContext& ctx) {
  std::vector<double> lower(static_cast<std::size_t>(model.num_variables()));
  std::vector<double> upper(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return solve(model, lower, upper, ctx);
}

LpSolution LpEngine::solve(const Model& model, const std::vector<double>& lower,
                           const std::vector<double>& upper,
                           SolveContext& ctx) {
  const PreparedLp prep(model);
  return solve(prep, lower, upper, ctx);
}

LpSolution LpEngine::solve(const PreparedLp& prep,
                           const std::vector<double>& lower,
                           const std::vector<double>& upper, SolveContext& ctx,
                           const LpStartBasis& start) {
  const Model& model = *prep.model;
  if (lower.size() != static_cast<std::size_t>(prep.num_vars) ||
      upper.size() != static_cast<std::size_t>(prep.num_vars)) {
    throw InvalidInputError("solve: bound override size mismatch");
  }
  SolveScope scope(ctx, "simplex");
  scope.stats().add("calls", 1.0);
  LpSolution solution;
  if (prep.trivially_infeasible) {
    solution.status = SolveStatus::kInfeasible;
    ET_LOG(kDebug) << "simplex: trivially infeasible ("
                   << prep.infeasibility_note << ")";
    return solution;
  }

  detail::RevisedSimplex core(prep, options_, ctx,
                              factorization(prep.num_rows()));
  if (!core.set_bounds(lower, upper)) {
    solution.status = SolveStatus::kInfeasible;
    ET_LOG(kDebug) << "simplex: trivially infeasible (lower > upper)";
    return solution;
  }
  // Algorithm selection. kAuto only spends the dual-feasibility check when
  // the caller advertises a reoptimization start; kDual always attempts it
  // (even the cold slack basis is dual-feasible when no reduced cost is
  // attractive); kPrimal never does.
  bool try_dual = false;
  switch (options_.mode) {
    case SolveMode::kPrimal: break;
    case SolveMode::kDual: try_dual = true; break;
    case SolveMode::kAuto:
      try_dual = start.snapshot != nullptr &&
                 start.origin != LpStartBasis::Origin::kNone;
      break;
  }
  const SolveStatus status = core.run(start.snapshot, try_dual);
  solution.status = status;
  solution.iterations = core.iterations();
  solution.phase1_iterations = core.phase1_iterations();
  solution.refactorizations = core.refactorizations();
  solution.degenerate_pivots = core.degenerate_pivots();
  solution.warm_started = core.warm_started();
  solution.used_dual = core.used_dual();
  solution.dual_pivots = core.dual_pivots();
  solution.bound_flips = core.bound_flips();
  const BasisCounters& bc = core.basis_counters();
  SolveStats& stats = scope.stats();
  stats.add("pivots", solution.iterations);
  stats.add("phase1_pivots", solution.phase1_iterations);
  stats.add("dual_pivots", solution.dual_pivots);
  stats.add("bound_flips", solution.bound_flips);
  stats.add("ratio_test_sorts", core.ratio_test_sorts());
  stats.add("dual_solves", solution.used_dual ? 1.0 : 0.0);
  stats.add("refactorizations", solution.refactorizations);
  stats.add("factorize_ms", core.factorize_ms());
  stats.add("pivot_row_entries", static_cast<double>(core.pivot_row_entries()));
  stats.add("degenerate_pivots", solution.degenerate_pivots);
  stats.add("etas", static_cast<double>(bc.etas));
  stats.add("eta_entries", static_cast<double>(bc.eta_entries));
  stats.add("pricing_candidate_hits",
            static_cast<double>(core.candidate_hits()));
  stats.add("pricing_full_scans", static_cast<double>(core.full_scans()));
  stats.add("warm_starts", core.warm_started() ? 1.0 : 0.0);
  if (telemetry::MetricsRegistry* reg = ctx.metrics()) {
    reg->counter("etransform_simplex_solves_total",
                 "Simplex solve() calls observed by this registry")
        .increment();
    reg->counter("etransform_simplex_pivots_total",
                 "Simplex pivots across all solves")
        .add(solution.iterations);
    reg->counter("etransform_simplex_refactorizations_total",
                 "Basis refactorizations across all solves")
        .add(solution.refactorizations);
    reg->counter("etransform_simplex_dual_pivots_total",
                 "Dual-simplex pivots across all solves")
        .add(solution.dual_pivots);
    reg->counter("etransform_simplex_bound_flips_total",
                 "Dual ratio-test bound flips across all solves")
        .add(solution.bound_flips);
  }
  if (status != SolveStatus::kOptimal) return solution;

  solution.values.resize(static_cast<std::size_t>(prep.num_vars));
  for (int j = 0; j < prep.num_vars; ++j) {
    solution.values[static_cast<std::size_t>(j)] = core.column_value(j);
  }
  solution.objective = model.evaluate_objective(solution.values);

  const std::vector<double> y = core.row_duals();
  solution.duals.assign(static_cast<std::size_t>(model.num_constraints()),
                        0.0);
  for (int i = 0; i < model.num_constraints(); ++i) {
    const int r = prep.row_of_model_row[static_cast<std::size_t>(i)];
    if (r < 0) continue;
    solution.duals[static_cast<std::size_t>(i)] =
        prep.sense_sign * y[static_cast<std::size_t>(r)];
  }
  solution.basis = std::make_shared<BasisSnapshot>(core.snapshot());
  return solution;
}

BasisSnapshot extend_basis(const BasisSnapshot& old, int num_vars,
                           const std::vector<int>& old_row_of_new,
                           int new_rows, int new_cols) {
  BasisSnapshot snap;
  snap.basic_columns.assign(static_cast<std::size_t>(new_rows), -1);
  snap.column_status.assign(static_cast<std::size_t>(new_cols),
                            BasisVarStatus::kAtLower);
  for (int j = 0; j < num_vars; ++j) {
    snap.column_status[static_cast<std::size_t>(j)] =
        old.column_status[static_cast<std::size_t>(j)];
  }
  for (int r = 0; r < new_rows; ++r) {
    const int o = old_row_of_new[static_cast<std::size_t>(r)];
    if (o >= 0) {
      snap.column_status[static_cast<std::size_t>(num_vars + r)] =
          old.column_status[static_cast<std::size_t>(num_vars + o)];
    }
  }
  // Inverse row map: old slack columns must be re-indexed through it — a
  // slack basic in some *other* surviving row keeps that slack (re-homed to
  // the slack's new column index), not the row's own. Substituting the own
  // slack would change the basis matrix, which both risks singularity and
  // moves the duals the kRowsAdded contract promises to preserve.
  const int old_rows = static_cast<int>(old.basic_columns.size());
  std::vector<int> new_row_of_old(static_cast<std::size_t>(old_rows), -1);
  for (int r = 0; r < new_rows; ++r) {
    const int o = old_row_of_new[static_cast<std::size_t>(r)];
    if (o >= 0) new_row_of_old[static_cast<std::size_t>(o)] = r;
  }
  std::vector<char> used(static_cast<std::size_t>(new_cols), 0);
  for (int r = 0; r < new_rows; ++r) {
    const int o = old_row_of_new[static_cast<std::size_t>(r)];
    int b = num_vars + r;  // own slack: fresh rows, and the fallback
    if (o >= 0) {
      int ob = old.basic_columns[static_cast<std::size_t>(o)];
      if (ob >= num_vars) {
        const int slack_row =
            new_row_of_old[static_cast<std::size_t>(ob - num_vars)];
        ob = slack_row >= 0 ? num_vars + slack_row : -1;  // purged: fallback
      }
      if (ob >= 0 && !used[static_cast<std::size_t>(ob)]) b = ob;
    }
    if (used[static_cast<std::size_t>(b)]) b = num_vars + r;
    used[static_cast<std::size_t>(b)] = 1;
    snap.basic_columns[static_cast<std::size_t>(r)] = b;
  }
  for (int r = 0; r < new_rows; ++r) {
    snap.column_status[static_cast<std::size_t>(
        snap.basic_columns[static_cast<std::size_t>(r)])] =
        BasisVarStatus::kBasic;
  }
  // Model columns whose basic row was purged keep a stale kBasic marker;
  // apply_snapshot demotes those to a resting bound.
  return snap;
}

NamedBasis name_basis(const Model& model, const BasisSnapshot& basis) {
  const PreparedLp prep(model);
  if (prep.trivially_infeasible ||
      basis.basic_columns.size() != static_cast<std::size_t>(prep.num_rows()) ||
      basis.column_status.size() !=
          static_cast<std::size_t>(prep.num_columns())) {
    throw InvalidInputError(
        "name_basis: snapshot does not match the model's standard form");
  }
  NamedBasis named;
  named.basis = basis;
  named.variables.reserve(static_cast<std::size_t>(prep.num_vars));
  for (int j = 0; j < prep.num_vars; ++j) {
    named.variables.push_back(model.variable(j).name);
  }
  named.rows.assign(static_cast<std::size_t>(prep.num_rows()), {});
  for (int i = 0; i < model.num_constraints(); ++i) {
    const int r = prep.row_of_model_row[static_cast<std::size_t>(i)];
    if (r >= 0) named.rows[static_cast<std::size_t>(r)] =
        model.constraint(i).name;
  }
  return named;
}

std::optional<BasisSnapshot> remap_basis(const NamedBasis& old_basis,
                                         const Model& target) {
  const int old_vars = static_cast<int>(old_basis.variables.size());
  const int old_rows = static_cast<int>(old_basis.rows.size());
  if (static_cast<int>(old_basis.basis.basic_columns.size()) != old_rows ||
      static_cast<int>(old_basis.basis.column_status.size()) !=
          old_vars + old_rows) {
    return std::nullopt;
  }
  const PreparedLp prep(target);
  if (prep.trivially_infeasible) return std::nullopt;
  const int num_vars = prep.num_vars;
  const int rows = prep.num_rows();
  const int cols = prep.num_columns();

  std::unordered_map<std::string, int> old_var;
  std::unordered_map<std::string, int> old_row;
  old_var.reserve(static_cast<std::size_t>(old_vars));
  old_row.reserve(static_cast<std::size_t>(old_rows));
  for (int j = 0; j < old_vars; ++j) old_var.emplace(old_basis.variables[j], j);
  for (int r = 0; r < old_rows; ++r) old_row.emplace(old_basis.rows[r], r);

  // Name-match target columns/rows against the old standard form:
  // new_col_of_old translates an old internal column index into the target
  // layout (-1 when the column vanished with the delta).
  std::vector<int> new_col_of_old(static_cast<std::size_t>(old_vars + old_rows),
                                  -1);
  std::vector<int> old_row_of_new(static_cast<std::size_t>(rows), -1);
  for (int j = 0; j < num_vars; ++j) {
    const auto it = old_var.find(target.variable(j).name);
    if (it != old_var.end()) {
      new_col_of_old[static_cast<std::size_t>(it->second)] = j;
    }
  }
  for (int i = 0; i < target.num_constraints(); ++i) {
    const int r = prep.row_of_model_row[static_cast<std::size_t>(i)];
    if (r < 0) continue;
    const auto it = old_row.find(target.constraint(i).name);
    if (it != old_row.end()) {
      old_row_of_new[static_cast<std::size_t>(r)] = it->second;
      new_col_of_old[static_cast<std::size_t>(old_vars + it->second)] =
          num_vars + r;
    }
  }

  BasisSnapshot snap;
  snap.basic_columns.assign(static_cast<std::size_t>(rows), -1);
  snap.column_status.assign(static_cast<std::size_t>(cols),
                            BasisVarStatus::kAtLower);
  // Nonbasic statuses carry over by name; stale kBasic markers on columns
  // whose basic row vanished are demoted when the snapshot is applied.
  for (int j = 0; j < num_vars; ++j) {
    const auto it = old_var.find(target.variable(j).name);
    if (it != old_var.end()) {
      snap.column_status[static_cast<std::size_t>(j)] =
          old_basis.basis.column_status[static_cast<std::size_t>(it->second)];
    }
  }
  for (int r = 0; r < rows; ++r) {
    const int o = old_row_of_new[static_cast<std::size_t>(r)];
    if (o >= 0) {
      snap.column_status[static_cast<std::size_t>(num_vars + r)] =
          old_basis.basis
              .column_status[static_cast<std::size_t>(old_vars + o)];
    }
  }
  // Surviving rows keep their old basic column when it too survived
  // (first-come-first-served on conflicts — an old slack basic in another
  // row can land on a column a later row also wants); rows whose basic
  // column vanished, lost the race, or are fresh take an unused slack,
  // preferring their own.
  std::vector<char> used(static_cast<std::size_t>(cols), 0);
  for (int r = 0; r < rows; ++r) {
    const int o = old_row_of_new[static_cast<std::size_t>(r)];
    if (o < 0) continue;
    const int ob = new_col_of_old[static_cast<std::size_t>(
        old_basis.basis.basic_columns[static_cast<std::size_t>(o)])];
    if (ob >= 0 && !used[static_cast<std::size_t>(ob)]) {
      snap.basic_columns[static_cast<std::size_t>(r)] = ob;
      used[static_cast<std::size_t>(ob)] = 1;
    }
  }
  for (int r = 0; r < rows; ++r) {
    const int own = num_vars + r;
    if (snap.basic_columns[static_cast<std::size_t>(r)] < 0 &&
        !used[static_cast<std::size_t>(own)]) {
      snap.basic_columns[static_cast<std::size_t>(r)] = own;
      used[static_cast<std::size_t>(own)] = 1;
    }
  }
  // One slack per row exists, so there are always enough left over.
  int next_slack = 0;
  for (int r = 0; r < rows; ++r) {
    if (snap.basic_columns[static_cast<std::size_t>(r)] >= 0) continue;
    while (used[static_cast<std::size_t>(num_vars + next_slack)]) ++next_slack;
    snap.basic_columns[static_cast<std::size_t>(r)] = num_vars + next_slack;
    used[static_cast<std::size_t>(num_vars + next_slack)] = 1;
  }

  // The carried-over set was nonsingular in the *old* matrix, but the delta
  // dropped rows and columns out from under it, so verify against the
  // target before handing it to the engine (a singular warm basis would be
  // thrown away wholesale there, wasting the whole map). On singularity,
  // repair with a greedy crash: start from the always-factorizable slack
  // identity and re-install each carried column only when it prices a
  // usable pivot against the basis built so far — a zero pivot also rejects
  // columns already basic, so the rebuild cannot produce duplicates. This
  // preserves the bulk of the old basis instead of discarding it because a
  // handful of rows became dependent.
  constexpr double kPivotTol = 1e-7;
  auto lu = make_basis_factorization(rows, /*dense=*/false, kPivotTol);
  if (rows > 0 && !lu->factorize(prep.columns, snap.basic_columns)) {
    std::vector<int> basic(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      basic[static_cast<std::size_t>(r)] = num_vars + r;
    }
    if (!lu->factorize(prep.columns, basic)) return std::nullopt;
    std::vector<double> w(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      const int cand = snap.basic_columns[static_cast<std::size_t>(r)];
      if (cand == num_vars + r) continue;
      std::fill(w.begin(), w.end(), 0.0);
      const SparseColumn& col = prep.columns[static_cast<std::size_t>(cand)];
      for (std::size_t e = 0; e < col.rows.size(); ++e) {
        w[static_cast<std::size_t>(col.rows[e])] = col.coefs[e];
      }
      lu->ftran(w);
      if (std::abs(w[static_cast<std::size_t>(r)]) < kPivotTol) continue;
      const int previous = basic[static_cast<std::size_t>(r)];
      basic[static_cast<std::size_t>(r)] = cand;
      if (!lu->update(w, r) || lu->should_refactorize()) {
        if (!lu->factorize(prep.columns, basic)) {
          // The eta representation accepted what the fresh factorization
          // rejects: drop this candidate and resynchronize.
          basic[static_cast<std::size_t>(r)] = previous;
          if (!lu->factorize(prep.columns, basic)) return std::nullopt;
        }
      }
    }
    snap.basic_columns = basic;
    // Final guard: the eta file can be more permissive than a fresh
    // factorization; make sure the repaired set stands on its own.
    if (!lu->factorize(prep.columns, snap.basic_columns)) return std::nullopt;
  }

  for (int r = 0; r < rows; ++r) {
    snap.column_status[static_cast<std::size_t>(
        snap.basic_columns[static_cast<std::size_t>(r)])] =
        BasisVarStatus::kBasic;
  }
  return snap;
}

}  // namespace etransform::lp
