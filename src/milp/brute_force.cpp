#include "milp/brute_force.h"

#include <cmath>
#include <memory>
#include <vector>

#include "common/error.h"
#include "lp/lp_engine.h"

namespace etransform::milp {

namespace {
using lp::Model;
using lp::LpEngine;
using lp::SolveStatus;
}  // namespace

MilpSolution solve_brute_force(const Model& model, SolveContext& ctx,
                               std::uint64_t max_assignments) {
  model.validate();
  SolveScope scope(ctx, "brute_force");
  const int n = model.num_variables();
  std::vector<int> integer_vars;
  std::uint64_t combinations = 1;
  for (int j = 0; j < n; ++j) {
    const auto& v = model.variable(j);
    if (!v.is_integer) continue;
    if (!std::isfinite(v.lower) || !std::isfinite(v.upper)) {
      throw InvalidInputError(
          "brute force requires finite integer bounds (variable '" + v.name +
          "')");
    }
    const double span = std::floor(v.upper + 1e-9) - std::ceil(v.lower - 1e-9);
    if (span < 0) {
      MilpSolution result;
      result.status = MilpStatus::kInfeasible;
      return result;
    }
    combinations *= static_cast<std::uint64_t>(span) + 1;
    if (combinations > max_assignments) {
      throw InvalidInputError("brute force: too many integer assignments");
    }
    integer_vars.push_back(j);
  }

  const double sense_sign = model.sense() == lp::Sense::kMinimize ? 1.0 : -1.0;
  LpEngine lp_solver;
  // One standard form shared by all assignments; only bounds change, and
  // each enumerated LP warm-starts from the previous one's basis.
  const lp::PreparedLp prep(model);
  std::shared_ptr<const lp::BasisSnapshot> warm;
  MilpSolution result;
  bool have_best = false;
  double best_internal = 0.0;

  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }

  std::vector<double> assignment(integer_vars.size());
  for (std::size_t k = 0; k < integer_vars.size(); ++k) {
    assignment[k] =
        std::ceil(model.variable(integer_vars[k]).lower - 1e-9);
  }

  for (std::uint64_t iteration = 0; iteration < combinations; ++iteration) {
    if (ctx.should_stop()) {
      result.status = ctx.cancelled() ? MilpStatus::kCancelled
                                      : MilpStatus::kTimeLimit;
      if (have_best) result.objective = sense_sign * best_internal;
      return result;
    }
    for (std::size_t k = 0; k < integer_vars.size(); ++k) {
      const auto j = static_cast<std::size_t>(integer_vars[k]);
      lower[j] = assignment[k];
      upper[j] = assignment[k];
    }
    // Successive assignments differ only in the fixed integer bounds, so
    // each re-solve is a kBoundChange restart (dual simplex under kAuto).
    const lp::LpSolution lp = lp_solver.solve(
        prep, lower, upper, ctx,
        lp::LpStartBasis(warm.get(), lp::LpStartBasis::Origin::kBoundChange));
    if (lp.basis) warm = lp.basis;
    result.lp_iterations += lp.iterations;
    ++result.nodes;
    if (lp.status == SolveStatus::kUnbounded) {
      result.status = MilpStatus::kUnbounded;
      return result;
    }
    if (lp.status == SolveStatus::kOptimal) {
      const double internal = sense_sign * lp.objective;
      if (!have_best || internal < best_internal) {
        have_best = true;
        best_internal = internal;
        result.values = lp.values;
      }
    }
    // Odometer increment over the integer assignment.
    for (std::size_t k = 0; k < integer_vars.size(); ++k) {
      const auto& v = model.variable(integer_vars[k]);
      if (assignment[k] + 1.0 <= std::floor(v.upper + 1e-9)) {
        assignment[k] += 1.0;
        break;
      }
      assignment[k] = std::ceil(v.lower - 1e-9);
    }
  }

  if (have_best) {
    result.status = MilpStatus::kOptimal;
    result.objective = sense_sign * best_internal;
    result.best_bound = result.objective;
  } else {
    result.status = MilpStatus::kInfeasible;
  }
  return result;
}

}  // namespace etransform::milp
