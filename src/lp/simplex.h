// Bounded-variable revised simplex — shared types and tuning knobs.
//
// This header holds the data model of the LP layer: statuses, options,
// PreparedLp (the bounds-independent standard form), BasisSnapshot and
// LpSolution. The solve entry point lives in lp/lp_engine.h (lp::LpEngine),
// which dispatches between the two-phase primal simplex and the
// bound-flipping dual simplex per SolveMode.
//
// Solves target the LP relaxation of a Model: integrality markers are
// ignored here (branch-and-bound in milp/ enforces them by tightening
// bounds). Variables keep their model bounds directly (finite / infinite /
// fixed / free); every kept row becomes an equality with a sign-constrained
// slack, so the sparse structure is independent of the bounds and can be
// prepared once per Model (PreparedLp) and reused across bound-override
// solves.
//
// Implementation notes:
//  * The basis is held as a sparse LU factorization (Markowitz ordering)
//    updated by product-form eta files — see lp/basis.h. FTRAN/BTRAN kernels
//    replace the old dense B^-1 sweeps; the basis is refactorized every
//    `refactor_interval` pivots or when the eta file outgrows the factors.
//    The legacy dense explicit inverse survives behind
//    SimplexOptions::use_dense_fallback for differential testing.
//  * Pricing is candidate-list partial pricing with Devex-style reference
//    weights (PricingRule::kDevexPartial, the default): a rotating cursor
//    refills a small candidate list, and optimality is only declared after a
//    full scan against a verified basis: a fresh factorization, or an eta
//    file whose primal and dual residuals check out (DESIGN §8b). Dantzig
//    full pricing is available (PricingRule::kDantzig), and a run of
//    degenerate pivots still switches to Bland's rule, which guarantees
//    termination.
//  * Phase 1 is composite (artificial-free): basic variables outside their
//    bounds get cost +-1 toward feasibility, so any basis — in particular a
//    warm-started one whose bounds just changed — can be repaired in place.
//  * Solves can warm-start from a BasisSnapshot (returned in LpSolution) so
//    branch-and-bound children resume from the parent basis instead of
//    cold-starting phase 1.
//  * A singular or unstable factorization triggers slack-basis recovery;
//    repeated failures surface as SolveStatus::kNumericalError instead of
//    masquerading as an iteration limit.
//  * Control & observability flow through a SolveContext: the deadline and
//    cancellation token are polled every `refactor_interval` pivots inside
//    the pivot loop, `on_simplex_phase` fires as each phase completes, and
//    pivot/refactorization/pricing/eta counters aggregate into the context's
//    "simplex" stats node.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/solve_context.h"
#include "lp/basis.h"
#include "lp/model.h"

namespace etransform::lp {

/// Result status of an LP solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,  // pivot budget (SimplexOptions::max_iterations) exhausted
  kTimeLimit,       // SolveContext deadline expired mid-solve
  kCancelled,       // SolveContext::request_cancel() observed mid-solve
  kNumericalError,  // singular/unstable basis that recovery could not repair
};

/// Human-readable status name.
[[nodiscard]] const char* to_string(SolveStatus status);

/// Column-selection strategy of the pivot loop.
enum class PricingRule {
  kDevexPartial,  // candidate list + Devex-style reference weights (default)
  kDantzig,       // full scan, most negative reduced cost (legacy behavior)
};

/// Which simplex variant LpEngine runs.
///
///  * kPrimal — two-phase primal simplex, always.
///  * kDual   — attempt the dual simplex from the start basis (the slack
///              basis when none is supplied); fall back to primal when the
///              start basis is not dual-feasible.
///  * kAuto   — dual when an LpStartBasis advertises a reoptimization
///              relationship (bound change / appended rows) *and* the
///              numeric dual-feasibility check passes; primal otherwise.
enum class SolveMode {
  kPrimal,
  kDual,
  kAuto,
};

/// Human-readable mode name ("primal" / "dual" / "auto").
[[nodiscard]] const char* to_string(SolveMode mode);

/// Tuning knobs for the simplex.
struct SimplexOptions {
  /// Algorithm selection policy; see SolveMode. The default lets warm
  /// restarts (B&B children, cut rounds) reoptimize with the dual simplex.
  SolveMode mode = SolveMode::kAuto;
  /// Hard cap on total pivots across both phases.
  int max_iterations = 200000;
  /// Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  /// Minimum absolute pivot element.
  double pivot_tol = 1e-9;
  /// Primal feasibility tolerance (relative to the instance's magnitude).
  double feasibility_tol = 1e-7;
  /// Refactorize the basis every this many pivots. Also the cadence of
  /// deadline/cancellation polls inside the pivot loop.
  int refactor_interval = 128;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int degeneracy_threshold = 64;
  /// Use the legacy dense explicit-inverse basis engine instead of the
  /// sparse LU. Kept for differential testing and benchmarking.
  bool use_dense_fallback = false;
  /// Pricing strategy; see PricingRule.
  PricingRule pricing = PricingRule::kDevexPartial;
  /// Partial-pricing candidate list size; 0 picks clamp(n/32, 8, 32).
  int candidate_list_size = 0;
};

/// Status of one internal column in a basis snapshot.
enum class BasisVarStatus : unsigned char { kBasic, kAtLower, kAtUpper, kFree };

/// A restartable description of a simplex basis: which internal column is
/// basic in each row, and where every nonbasic column rests. Returned from
/// optimal solves and accepted as a warm start by LpEngine::solve (wrapped
/// in an LpStartBasis) — valid for any solve over the *same* PreparedLp
/// (bound overrides may differ; statuses are re-clamped to the new bounds
/// and any resulting infeasibility is repaired by the dual simplex or by
/// composite phase 1).
struct BasisSnapshot {
  std::vector<int> basic_columns;             // one per internal row
  std::vector<BasisVarStatus> column_status;  // one per internal column
};

/// Bounds-independent standard form of one Model, built once and shared by
/// every bound-override solve (e.g. all branch-and-bound nodes). Internal
/// column j < num_vars is model variable j verbatim; the remaining columns
/// are row slacks (a.x + s = rhs, s sign-constrained by the row relation).
/// Members are an internal layout published for the solver; treat as opaque.
struct PreparedLp {
  /// Validates the model and builds the internal form. The model must
  /// outlive this object. Throws InvalidInputError on malformed models.
  explicit PreparedLp(const Model& model);

  [[nodiscard]] int num_rows() const { return static_cast<int>(rhs.size()); }
  [[nodiscard]] int num_columns() const {
    return static_cast<int>(columns.size());
  }

  const Model* model = nullptr;
  int num_vars = 0;         // model variables == leading internal columns
  double sense_sign = 1.0;  // +1 minimize, -1 maximize
  std::vector<SparseColumn> columns;  // num_vars structural + one slack/row
  /// Row-major copy of `columns`, slack columns included: row r's entries
  /// are [row_start[r], row_start[r+1]) of row_cols/row_coefs, in ascending
  /// column order. The dual pivot row scatters from it.
  std::vector<int> row_start;
  std::vector<int> row_cols;
  std::vector<double> row_coefs;
  std::vector<double> cost;           // internal minimization cost per column
  std::vector<double> rhs;            // one per kept row
  std::vector<double> slack_lower;    // slack bounds per kept row
  std::vector<double> slack_upper;
  std::vector<int> row_of_model_row;  // -1 when the model row was dropped
  bool trivially_infeasible = false;
  std::string infeasibility_note;
};

/// Outcome of an LP solve. `values`/`duals`/`basis` are only meaningful when
/// status is kOptimal. Duals are reported for the original row orientation:
/// the classic multiplier of the equality form after adding slacks, so for a
/// minimization a binding `>=` row has dual >= 0.
struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the model's own sense (includes the objective constant).
  double objective = 0.0;
  /// One value per model variable.
  std::vector<double> values;
  /// One multiplier per model constraint.
  std::vector<double> duals;
  /// Final basis, usable to warm-start related solves (B&B children).
  std::shared_ptr<const BasisSnapshot> basis;
  /// Total simplex pivots used.
  int iterations = 0;
  /// Pivots spent in phase 1 (0 when the start basis was feasible).
  int phase1_iterations = 0;
  /// Basis factorizations performed (>= 1: the start basis counts).
  int refactorizations = 0;
  /// Optimality claims certified by residual checks on an eta file instead
  /// of a fresh factorization.
  int residual_certifications = 0;
  /// Degenerate (zero-step) pivots encountered.
  int degenerate_pivots = 0;
  /// True when a supplied warm-start basis was successfully installed.
  bool warm_started = false;
  /// True when the dual simplex ran (it may still have handed a cleaned-up
  /// basis to the primal phase-2 loop for the final optimality check).
  bool used_dual = false;
  /// Dual-simplex pivots (a subset of `iterations`).
  int dual_pivots = 0;
  /// Nonbasic bound flips taken by the dual ratio test (not pivots).
  int bound_flips = 0;
};

}  // namespace etransform::lp
