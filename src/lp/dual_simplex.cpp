// Bound-flipping-ratio-test (BFRT) dual simplex — the reoptimization loop
// of RevisedSimplex. Shares the sparse Markowitz LU / FTRAN / BTRAN / eta
// machinery in lp/basis.* with the primal loop (simplex.cpp).
//
// Why a dual loop at all: branch-and-bound children and cut rounds restart
// from a parent-optimal basis whose duals are still feasible — only the
// primal values are out of bounds (a tightened branch bound, or a freshly
// violated cut row whose slack enters basic and infeasible). The dual
// simplex walks straight back to optimality without the composite phase-1
// detour, typically in a handful of pivots.
//
// Loop shape per pivot:
//  * Leaving row r: the basic variable with the largest bound violation
//    (Dantzig-style dual pricing); sigma = +1 when it sits above its upper
//    bound (it will leave at upper), -1 below its lower bound.
//  * Pivot row: rho = B^-T e_r (one btran), alpha_j = rho . A_j over the
//    nonbasic columns, scattered row-wise from PreparedLp's row-major copy
//    over the rows where rho is nonzero (rho is typically sparse).
//  * BFRT: breakpoints (nonbasic j whose reduced cost d_j hits zero at dual
//    step t_j = d_j / (sigma alpha_j)) are walked in ascending ratio; boxed
//    breakpoints whose full-range flip still leaves the row infeasible are
//    flipped (slope -= range * |alpha_j|) instead of entering, letting one
//    dual pivot pass many small breakpoints. The first breakpoint that
//    absorbs the remaining slope enters the basis. The walk reads a few of
//    a list that runs to hundreds, so select_breakpoint() pops them off a
//    min-heap and sorts the list only to settle ties (see there).
//  * Harris-style widening: among breakpoints whose selection keeps every
//    other candidate's reduced cost within dtol_ of feasibility, the
//    largest |alpha| pivot is preferred for stability.
//  * Anti-cycling: a run of degenerate (zero-step) dual pivots triggers a
//    deterministic cost-shift perturbation that pushes every nonbasic
//    reduced cost strictly inside its half-space; shifts live only in
//    shifted_cost_/d_, so the primal phase-2 cleanup that certifies the
//    final basis always prices against the true costs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lp/simplex_core.h"

namespace etransform::lp::detail {

namespace {
/// Pivot-row entries below this are treated as structural zeros.
constexpr double kAlphaZeroTol = 1e-11;
/// Dual steps below this count as degenerate pivots.
constexpr double kDegenerateStep = 1e-10;
}  // namespace

BreakpointChoice select_breakpoint(std::vector<DualBreakpoint>& bps,
                                   std::vector<DualBreakpoint>& heap,
                                   double slope, double ftol, double dtol,
                                   std::vector<int>& flips) {
  // Equal ratios are the one case where the heap's order may differ from
  // std::sort's, which neither orders ties by column nor keeps them stable.
  // A tie among the popped breakpoints therefore hands the pivot to the
  // sort below. Everything left in the heap has a larger ratio than
  // everything popped, so no other tie can matter.
  flips.clear();
  heap.assign(bps.begin(), bps.end());
  const auto later = [](const DualBreakpoint& a, const DualBreakpoint& b) {
    return a.ratio > b.ratio;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  auto end = heap.end();  // popped breakpoints collect behind `end`
  double last_ratio = -std::numeric_limits<double>::infinity();
  bool tied = false;
  const auto pop = [&]() -> const DualBreakpoint& {
    std::pop_heap(heap.begin(), end, later);
    --end;
    tied = tied || end->ratio == last_ratio;
    last_ratio = end->ratio;
    return *end;
  };
  BreakpointChoice choice;
  choice.slope = slope;
  const DualBreakpoint* enter = nullptr;
  while (end != heap.begin() && !tied) {
    const DualBreakpoint& bp = pop();
    const double drop = bp.range * bp.abs_alpha;
    if (choice.slope - drop > ftol) {
      choice.slope -= drop;
      flips.push_back(bp.j);
      continue;
    }
    enter = &bp;
    break;
  }
  if (enter != nullptr && !tied) {
    // min is exact, so the heap's order over the rest does not matter.
    double t_accept = enter->ratio + dtol / enter->abs_alpha;
    for (auto it = heap.begin(); it != end; ++it) {
      t_accept = std::min(t_accept, it->ratio + dtol / it->abs_alpha);
    }
    const DualBreakpoint* best = enter;
    while (end != heap.begin() && heap.front().ratio <= t_accept && !tied) {
      const DualBreakpoint& bp = pop();
      if (bp.abs_alpha > best->abs_alpha) best = &bp;
    }
    choice.enter = best->j;
  }
  if (!tied) return choice;

  flips.clear();
  choice = BreakpointChoice{-1, slope, /*sorted=*/true};
  std::sort(bps.begin(), bps.end(),
            [](const DualBreakpoint& a, const DualBreakpoint& b) {
              return a.ratio < b.ratio;
            });
  std::size_t enter_k = bps.size();
  for (std::size_t k = 0; k < bps.size(); ++k) {
    const double drop = bps[k].range * bps[k].abs_alpha;
    if (choice.slope - drop > ftol) {
      choice.slope -= drop;
      flips.push_back(bps[k].j);
      continue;
    }
    enter_k = k;
    break;
  }
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

void RevisedSimplex::dual_refresh() {
  certified_ = false;
  y_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    y_[static_cast<std::size_t>(k)] = shifted_cost_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(k)])];
  }
  engine_.btran(y_);
  d_.assign(static_cast<std::size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    double d = shifted_cost_[static_cast<std::size_t>(j)];
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      d -= y_[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
    }
    d_[static_cast<std::size_t>(j)] = d;
  }
  fresh_duals_ = !perturbed_;
}

bool RevisedSimplex::dual_start_feasible() {
  double cost_scale = 1.0;
  for (const double c : prep_.cost) {
    cost_scale = std::max(cost_scale, std::abs(c));
  }
  dtol_ = options_.optimality_tol * cost_scale;
  shifted_cost_ = prep_.cost;
  dual_refresh();
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (status_[ju] == BasisVarStatus::kBasic) continue;
    if (lower_[ju] == upper_[ju]) continue;  // fixed: any sign is feasible
    switch (status_[ju]) {
      case BasisVarStatus::kAtLower:
        if (d_[ju] < -dtol_) return false;
        break;
      case BasisVarStatus::kAtUpper:
        if (d_[ju] > dtol_) return false;
        break;
      case BasisVarStatus::kFree:
        if (std::abs(d_[ju]) > dtol_) return false;
        break;
      case BasisVarStatus::kBasic: break;
    }
  }
  return true;
}

void RevisedSimplex::dual_perturb() {
  perturbed_ = true;
  fresh_duals_ = false;
  certified_ = false;
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (status_[ju] == BasisVarStatus::kBasic) continue;
    if (lower_[ju] == upper_[ju]) continue;
    // Deterministic per-column spread in [dtol_, 1.5 dtol_]: ties between
    // breakpoints become strict orderings, which is all cycling needs.
    const double eps =
        dtol_ * (1.0 + 0.5 * static_cast<double>((j * 37) % 101) / 101.0);
    switch (status_[ju]) {
      case BasisVarStatus::kAtLower:
        if (d_[ju] < eps) {
          shifted_cost_[ju] += eps - d_[ju];
          d_[ju] = eps;
        }
        break;
      case BasisVarStatus::kAtUpper:
        if (d_[ju] > -eps) {
          shifted_cost_[ju] -= d_[ju] + eps;
          d_[ju] = -eps;
        }
        break;
      default: break;  // free columns keep their (near-zero) reduced cost
    }
  }
}

void RevisedSimplex::compute_pivot_row() {
  if (alpha_.size() != static_cast<std::size_t>(n_)) {
    alpha_.assign(static_cast<std::size_t>(n_), 0.0);
    alpha_touched_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
  }
  for (const int j : alpha_nz_) alpha_[static_cast<std::size_t>(j)] = 0.0;
  alpha_nz_.clear();
  // Row-wise scatter over the rows with rho_i != 0. Column entries are in
  // ascending row order, so every alpha_j sums the same nonzero products in
  // the same order as a column-wise dot product; the skipped terms are
  // exact zeros.
  for (int i = 0; i < m_; ++i) {
    const double rho_i = rho_[static_cast<std::size_t>(i)];
    if (rho_i == 0.0) continue;
    const int end = prep_.row_start[static_cast<std::size_t>(i) + 1];
    const int begin = prep_.row_start[static_cast<std::size_t>(i)];
    pivot_row_entries_ += end - begin;
    for (int e = begin; e < end; ++e) {
      const auto ju = static_cast<std::size_t>(prep_.row_cols[static_cast<std::size_t>(e)]);
      alpha_[ju] += rho_i * prep_.row_coefs[static_cast<std::size_t>(e)];
      alpha_touched_[ju / 64] |= std::uint64_t{1} << (ju % 64);
    }
  }
  // Collect in ascending column order (the breakpoint list and its sort's
  // tie order depend on it), zeroing whatever is not kept.
  for (std::size_t w = 0; w < alpha_touched_.size(); ++w) {
    for (std::uint64_t word = alpha_touched_[w]; word != 0; word &= word - 1) {
      const std::size_t ju = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      if (status_[ju] == BasisVarStatus::kBasic ||
          std::abs(alpha_[ju]) <= kAlphaZeroTol) {
        alpha_[ju] = 0.0;
        continue;
      }
      alpha_nz_.push_back(static_cast<int>(ju));
    }
    alpha_touched_[w] = 0;
  }
}

SolveStatus RevisedSimplex::iterate_dual() {
  int degenerate_run = 0;
  int pivots_since_poll = options_.refactor_interval;  // poll on entry
  while (true) {
    if (iterations_ >= options_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    if (pivots_since_poll >= options_.refactor_interval) {
      pivots_since_poll = 0;
      const SolveStatus interrupted = interruption_status();
      if (interrupted != SolveStatus::kOptimal) return interrupted;
    }
    ++pivots_since_poll;

    // Leaving row: the most violated basic variable (dual Dantzig pricing).
    int r = -1;
    double best_v = ftol_;
    for (int k = 0; k < m_; ++k) {
      const double v = violation(basis_[static_cast<std::size_t>(k)]);
      if (v > best_v) {
        best_v = v;
        r = k;
      }
    }
    if (r < 0) {
      // Primal feasible => dual-optimal. Like the primal loop, only declare
      // against a verified basis: a fresh factorization, or an eta file
      // whose residuals certify() checked. A refused certification
      // refactorizes; either way the recomputed values are re-scanned.
      if (verified()) return SolveStatus::kOptimal;
      if (!certify(/*dual_loop=*/true)) {
        if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
        if (restart_phase1_) {
          dual_abandoned_ = true;
          return SolveStatus::kOptimal;
        }
        dual_refresh();
      }
      continue;
    }

    const int leaving = basis_[static_cast<std::size_t>(r)];
    const auto lu = static_cast<std::size_t>(leaving);
    const bool above = value_[lu] > upper_[lu];
    const double sigma = above ? 1.0 : -1.0;

    // Pivot row: rho = B^-T e_r, alpha_j = rho . A_j for nonbasic j.
    rho_.assign(static_cast<std::size_t>(m_), 0.0);
    rho_[static_cast<std::size_t>(r)] = 1.0;
    engine_.btran(rho_);
    compute_pivot_row();

    // Ratio-test breakpoints: nonbasic columns whose reduced cost blocks
    // the dual step along +sigma * rho.
    bps_.clear();
    for (const int j : alpha_nz_) {
      const auto ju = static_cast<std::size_t>(j);
      if (lower_[ju] == upper_[ju]) continue;  // fixed: never enters
      const double a = sigma * alpha_[ju];
      bool eligible = false;
      switch (status_[ju]) {
        case BasisVarStatus::kAtLower: eligible = a > options_.pivot_tol; break;
        case BasisVarStatus::kAtUpper:
          eligible = a < -options_.pivot_tol;
          break;
        case BasisVarStatus::kFree:
          eligible = std::abs(a) > options_.pivot_tol;
          break;
        case BasisVarStatus::kBasic: break;
      }
      if (!eligible) continue;
      double ratio = d_[ju] / a;
      if (ratio < 0.0) ratio = 0.0;  // d_ drift within tolerance
      bps_.push_back(
          {j, ratio, std::abs(alpha_[ju]), upper_[ju] - lower_[ju]});
    }

    // Bound-flipping walk plus Harris-style widening: while the row's
    // infeasibility survives flipping a boxed breakpoint across its whole
    // range, flip it and keep walking; among the breakpoints whose
    // selection keeps every other candidate's reduced cost within dtol_ of
    // feasibility, the largest |alpha| enters as the most stable pivot.
    // No breakpoint, or all of them flipped away with infeasibility left:
    // the dual is unbounded along this ray.
    BreakpointChoice choice;
    if (!bps_.empty()) {
      choice = select_breakpoint(bps_, bp_heap_, best_v, ftol_, dtol_, flips_);
    }
    if (choice.enter < 0) {
      // Declare primal infeasibility only against a fresh factorization.
      if (pivots_since_refactor_ == 0) return SolveStatus::kInfeasible;
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
      continue;
    }
    const int q = choice.enter;
    const auto qu = static_cast<std::size_t>(q);

    // Entering direction w = B^-1 A_q; validate the pivot before mutating
    // any state so a retreat leaves the basis consistent.
    w_.assign(static_cast<std::size_t>(m_), 0.0);
    const SparseColumn& qcol = prep_.columns[qu];
    for (std::size_t e = 0; e < qcol.rows.size(); ++e) {
      w_[static_cast<std::size_t>(qcol.rows[e])] = qcol.coefs[e];
    }
    engine_.ftran(w_);
    const double pivot = w_[static_cast<std::size_t>(r)];
    // FTRAN and BTRAN views of the pivot must agree; a large relative gap
    // means the eta file has drifted.
    const bool unstable =
        std::abs(pivot) < options_.pivot_tol ||
        std::abs(pivot - alpha_[qu]) > 1e-6 + 0.5 * std::abs(pivot);
    if (unstable) {
      if (pivots_since_refactor_ == 0) {
        // Fresh basis and still no usable pivot: hand the repair to the
        // primal phases rather than looping.
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
      continue;
    }

    double t = d_[qu] / (sigma * alpha_[qu]);
    if (t < 0.0) t = 0.0;  // degenerate: restores q's own feasibility

    // Apply the accumulated bound flips: each nonbasic jumps its whole
    // range; the basic values absorb B^-1 (sum delta_j A_j) in one ftran.
    if (!flips_.empty()) {
      work_.assign(static_cast<std::size_t>(m_), 0.0);
      for (const int j : flips_) {
        const auto ju = static_cast<std::size_t>(j);
        const double range = upper_[ju] - lower_[ju];
        double delta;
        if (status_[ju] == BasisVarStatus::kAtLower) {
          status_[ju] = BasisVarStatus::kAtUpper;
          value_[ju] = upper_[ju];
          delta = range;
        } else {
          status_[ju] = BasisVarStatus::kAtLower;
          value_[ju] = lower_[ju];
          delta = -range;
        }
        const SparseColumn& col = prep_.columns[ju];
        for (std::size_t e = 0; e < col.rows.size(); ++e) {
          work_[static_cast<std::size_t>(col.rows[e])] += col.coefs[e] * delta;
        }
      }
      engine_.ftran(work_);
      for (int k = 0; k < m_; ++k) {
        value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] -=
            work_[static_cast<std::size_t>(k)];
      }
      bound_flips_ += static_cast<int>(flips_.size());
    }

    // Dual update along y' = y + t sigma rho: d_j -= t sigma alpha_j for
    // every nonbasic column with a pivot-row entry; the leaving variable
    // lands at -sigma t (feasible for the bound it leaves at).
    if (t != 0.0) {
      for (const int j : alpha_nz_) {
        const auto ju = static_cast<std::size_t>(j);
        d_[ju] -= t * sigma * alpha_[ju];
      }
    }
    d_[lu] = -sigma * t;
    d_[qu] = 0.0;

    // Primal step: drive the leaving variable exactly onto its violated
    // bound; the entering variable absorbs the row's residual.
    const double target = above ? upper_[lu] : lower_[lu];
    const double dx = (value_[lu] - target) / pivot;
    if (dx != 0.0) {
      for (int k = 0; k < m_; ++k) {
        value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] -=
            dx * w_[static_cast<std::size_t>(k)];
      }
    }
    value_[qu] += dx;

    status_[lu] = above ? BasisVarStatus::kAtUpper : BasisVarStatus::kAtLower;
    value_[lu] = target;
    status_[qu] = BasisVarStatus::kBasic;
    basis_[static_cast<std::size_t>(r)] = q;
    fresh_duals_ = false;
    certified_ = false;

    ++iterations_;
    ++dual_pivots_;
    if (choice.sorted) ++ratio_test_sorts_;
    if (t < kDegenerateStep) {
      ++degenerate_run;
      ++degenerate_pivots_;
      if (degenerate_run > options_.degeneracy_threshold) {
        dual_perturb();
        degenerate_run = 0;
      }
    } else {
      degenerate_run = 0;
    }

    const bool updated = engine_.update(w_, r);
    if (!updated || ++pivots_since_refactor_ >= options_.refactor_interval ||
        engine_.should_refactorize()) {
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
    }
  }
}

}  // namespace etransform::lp::detail
