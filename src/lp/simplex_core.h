// Internal working state of the revised simplex — shared by the primal
// pivot loop (simplex.cpp) and the bound-flipping dual pivot loop
// (dual_simplex.cpp). Not part of the public LP surface; include
// lp/lp_engine.h instead.
//
// One RevisedSimplex instance covers one solve of one PreparedLp + bound
// set, on a factorization engine it borrows from its LpEngine (the engine
// outlives the solve so its scratch is not rebuilt per LP call). LpEngine
// drives it: run() installs the (warm) basis, optionally
// attempts the dual simplex when the start basis passes the numeric
// dual-feasibility check, and always finishes through the primal phase-2
// loop so optimality is certified by a single code path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/solve_context.h"
#include "lp/basis.h"
#include "lp/simplex.h"

namespace etransform::lp::detail {

/// Maximum slack-basis recoveries from singular factorizations before a
/// solve gives up with kNumericalError.
inline constexpr int kMaxRecoveries = 3;

/// Test seam: while set, every residual certification refuses, so each
/// optimality claim over a pending eta file refactorizes first — the
/// solver as it ran before certification existed.
void refuse_certification(bool refuse);

/// Refuses residual certification for its lifetime, so a test that throws
/// or fails an ASSERT never leaves the seam set for the tests after it.
struct RefuseCertification {
  RefuseCertification() { refuse_certification(true); }
  ~RefuseCertification() { refuse_certification(false); }
  RefuseCertification(const RefuseCertification&) = delete;
  RefuseCertification& operator=(const RefuseCertification&) = delete;
};

/// One bound-flipping ratio-test breakpoint of a dual pivot.
struct DualBreakpoint {
  int j;             // nonbasic internal column
  double ratio;      // dual step at which its reduced cost hits zero
  double abs_alpha;  // |pivot row entry|, the flip slope / pivot size
  double range;      // upper - lower: +inf unless boxed, so it never flips
};

/// Outcome of the bound-flipping ratio test over one pivot's breakpoints.
struct BreakpointChoice {
  int enter = -1;       // entering column; -1 when every breakpoint flipped
  double slope = 0.0;   // row infeasibility left after the flips
  bool sorted = false;  // a tie sent it to the full sort of the list
};

/// The bound-flipping ratio test with Harris widening. Walks the
/// breakpoints in ascending ratio: a breakpoint whose full-range flip
/// (range * abs_alpha) still leaves more than `ftol` of `slope` is flipped
/// (appended to `flips`, in walk order); the first one that absorbs the
/// rest enters. Among the breakpoints with ratio <= t_accept, the minimum
/// over the entering one and all later ones of ratio + dtol / abs_alpha,
/// the first of largest abs_alpha enters instead.
///
/// The result is that of a std::sort of `bps` by ratio followed by that
/// walk, bit for bit, tie order included. It gets there through a min-heap
/// (`heap` is scratch) that pops only the breakpoints the walk reads; when
/// two of those have equal ratios, it sorts `bps` in place and walks that.
[[nodiscard]] BreakpointChoice select_breakpoint(
    std::vector<DualBreakpoint>& bps, std::vector<DualBreakpoint>& heap,
    double slope, double ftol, double dtol, std::vector<int>& flips);

/// Working state of the revised simplex on one PreparedLp + bound set.
class RevisedSimplex {
 public:
  /// `engine` must have been made for prep.num_rows() rows and the
  /// options' dense/pivot-tolerance choice; run() resets its counters.
  RevisedSimplex(const PreparedLp& prep, const SimplexOptions& options,
                 SolveContext& ctx, BasisFactorization& engine);

  /// Installs per-variable bound overrides (+ the fixed slack bounds) and
  /// derives the feasibility scale. Returns false when some lower > upper.
  [[nodiscard]] bool set_bounds(const std::vector<double>& lo,
                                const std::vector<double>& up);

  /// Runs the solve, optionally warm-starting from `warm`. When `try_dual`
  /// is set and the installed start basis is dual-feasible, reoptimizes
  /// with the dual simplex first; the primal phases then finish (or repair)
  /// from wherever the dual loop left the basis.
  SolveStatus run(const BasisSnapshot* warm, bool try_dual);

  [[nodiscard]] int iterations() const { return iterations_; }
  [[nodiscard]] int phase1_iterations() const { return phase1_iterations_; }
  [[nodiscard]] int refactorizations() const {
    return static_cast<int>(engine_.counters().refactorizations);
  }
  [[nodiscard]] int degenerate_pivots() const { return degenerate_pivots_; }
  [[nodiscard]] const BasisCounters& basis_counters() const {
    return engine_.counters();
  }
  [[nodiscard]] long long candidate_hits() const { return candidate_hits_; }
  [[nodiscard]] long long full_scans() const { return full_scans_; }
  [[nodiscard]] bool warm_started() const { return warm_started_; }
  [[nodiscard]] bool used_dual() const { return used_dual_; }
  [[nodiscard]] int dual_pivots() const { return dual_pivots_; }
  [[nodiscard]] int bound_flips() const { return bound_flips_; }
  /// Dual pivots whose ratio test fell back to the full sort (a tie).
  [[nodiscard]] int ratio_test_sorts() const { return ratio_test_sorts_; }
  /// Wall time spent inside BasisFactorization::factorize, in ms.
  [[nodiscard]] double factorize_ms() const { return factorize_ms_; }
  /// Optimality claims certified by residual checks (see certify()).
  [[nodiscard]] int residual_certifications() const {
    return residual_certifications_;
  }
  /// Wall time spent in certify(), passed or refused, in ms.
  [[nodiscard]] double certify_ms() const { return certify_ms_; }
  /// Matrix entries scanned while building dual pivot rows.
  [[nodiscard]] long long pivot_row_entries() const {
    return pivot_row_entries_;
  }

  [[nodiscard]] double column_value(int col) const {
    return value_[static_cast<std::size_t>(col)];
  }

  /// Objective of the internal minimization (slack costs are zero).
  [[nodiscard]] double internal_objective() const;

  /// Row multipliers y = c_B B^-T for the phase-2 costs (row-indexed).
  /// Reuses the dual loop's y_ while fresh_duals_ holds.
  [[nodiscard]] std::vector<double> row_duals() const;

  [[nodiscard]] BasisSnapshot snapshot() const;

 private:
  // --- shared plumbing (simplex.cpp) ---
  void fire_phase_event(int phase, int pivots, double objective);
  void init_slack_basis();
  [[nodiscard]] BasisVarStatus default_nonbasic_status(int j) const;
  [[nodiscard]] bool apply_snapshot(const BasisSnapshot& snap);
  [[nodiscard]] double nonbasic_resting_value(int j) const;
  void recompute_values();
  [[nodiscard]] bool refactorize();
  [[nodiscard]] bool refactorize_or_recover();
  /// Optimality may be declared: the factorization is fresh, or certify()
  /// passed and no pivot, bound flip, cost shift or dual recomputation has
  /// happened since.
  [[nodiscard]] bool verified() const {
    return pivots_since_refactor_ == 0 || certified_;
  }
  /// Residual certification of the current basis over the pending eta
  /// file: recomputes x_B by one FTRAN and checks |b - A x|_inf, then
  /// refreshes the duals by one BTRAN (dual_refresh() in the dual loop,
  /// compute_duals() in phase 2) and checks |c_B - B^T y|_inf. Sets
  /// certified_ when both pass; false means the caller refactorizes.
  [[nodiscard]] bool certify(bool dual_loop);
  [[nodiscard]] double violation(int col) const;
  [[nodiscard]] bool has_infeasible_basic() const;
  [[nodiscard]] double total_infeasibility() const;
  [[nodiscard]] SolveStatus interruption_status() const;

  // --- primal pivot loop (simplex.cpp) ---
  [[nodiscard]] double phase1_cost(int col) const;
  /// y_ = B^-T c_B for the current phase.
  void compute_duals();
  /// Reduced cost of nonbasic column j under y_ for the current phase.
  [[nodiscard]] double reduced_cost(int j) const;
  [[nodiscard]] double attractive_dir(int j, double d, double tol) const;
  void price_full_scan(bool bland, double tol, int& entering,
                       double& entering_dir) const;
  void price_candidates(int& entering, double& entering_dir);
  void rebuild_candidates();
  void devex_update(int entering, int leaving, int r,
                    const std::vector<double>& w);
  SolveStatus iterate();

  // --- dual pivot loop (dual_simplex.cpp) ---
  /// Computes the dual tolerance, duals and reduced costs for the installed
  /// basis and checks every nonbasic column against its feasibility
  /// half-space. A true return licenses iterate_dual().
  [[nodiscard]] bool dual_start_feasible();
  /// Refreshes y_ and d_ from the (possibly perturbed) costs via one btran;
  /// sets fresh_duals_ unless the costs are shifted.
  void dual_refresh();
  /// alpha_j = rho_ . A_j for the nonbasic columns, scattered row-wise from
  /// the rows where rho_ is nonzero; fills alpha_nz_ in ascending j.
  void compute_pivot_row();
  /// Shifts every nonbasic reduced cost strictly inside its feasible
  /// half-space (deterministic spread) to break dual-degenerate ties.
  void dual_perturb();
  /// Bound-flipping-ratio-test dual pivot loop, entered straight after a
  /// passing dual_start_feasible() and starting from the y_/d_ it computed.
  /// kOptimal means the basis is primal feasible (dual-optimal); run() then
  /// certifies with the primal phase-2 loop. Sets dual_abandoned_ when it
  /// retreats (singular-basis recovery, unusable pivot) and the primal
  /// phases must repair instead.
  SolveStatus iterate_dual();

  const PreparedLp& prep_;
  const SimplexOptions& options_;
  SolveContext& ctx_;
  int m_;
  int n_;
  std::vector<double> lower_, upper_;
  std::vector<BasisVarStatus> status_;
  std::vector<double> value_;
  std::vector<int> basis_;
  std::vector<double> gamma_;       // Devex reference weights
  std::vector<int> candidates_;     // partial-pricing candidate list
  BasisFactorization& engine_;
  int cursor_ = 0;
  int list_size_ = 8;
  double ftol_ = 1e-7;
  bool phase1_ = false;
  bool restart_phase1_ = false;
  bool warm_started_ = false;
  int iterations_ = 0;
  int phase1_iterations_ = 0;
  int degenerate_pivots_ = 0;
  int pivots_since_refactor_ = 0;
  int recoveries_ = 0;
  bool certified_ = false;
  int residual_certifications_ = 0;
  double certify_ms_ = 0.0;
  long long candidate_hits_ = 0;
  long long full_scans_ = 0;
  double factorize_ms_ = 0.0;
  // Scratch vectors reused across iterations.
  std::vector<double> y_, w_, rho_, work_;

  // Dual-simplex state (dual_simplex.cpp).
  std::vector<double> shifted_cost_;  // prep_.cost + anti-cycling shifts
  std::vector<double> d_;             // reduced costs of nonbasic columns
  std::vector<double> alpha_;         // dense pivot row; 0 off alpha_nz_
  std::vector<int> alpha_nz_;         // nonbasic j with |alpha_[j]| > 0
  std::vector<std::uint64_t> alpha_touched_;  // columns the scatter hit
  std::vector<DualBreakpoint> bps_;   // ratio-test breakpoints
  std::vector<DualBreakpoint> bp_heap_;  // select_breakpoint() scratch
  std::vector<int> flips_;            // bound flips of the current pivot
  double dtol_ = 1e-7;                // dual feasibility tolerance (scaled)
  bool perturbed_ = false;
  // y_ and d_ are what dual_refresh() computed from the true costs for the
  // current basis and factorization, so they equal the phase-2 duals and
  // reduced costs bit for bit. Any pivot, refactorization, cost shift or
  // other write to y_ clears it.
  bool fresh_duals_ = false;
  bool used_dual_ = false;
  bool dual_abandoned_ = false;
  int dual_pivots_ = 0;
  int bound_flips_ = 0;
  int ratio_test_sorts_ = 0;
  long long pivot_row_entries_ = 0;
};

}  // namespace etransform::lp::detail
