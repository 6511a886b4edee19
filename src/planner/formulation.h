// MILP formulation of the transformation & consolidation problem
// (paper §III-B) and its disaster-recovery extension (§IV).
//
// Decision variables:
//   X_ij in {0,1}   group i's primary site is j      (only allowed pairs)
//   Y_ij in {0,1}   group i's secondary (DR) site is j
//   G_j  >= 0       backup servers provisioned at site j
//   J_abc >= 0      linearization of X_ca AND Y_cb for shared backup sizing
//                   (continuous suffices: the minimization drives J to
//                   max(0, X+Y-1), which is all the sizing rows need)
//   q/z tier vars   Schoomer step-function linearization of every volume-
//                   discount schedule (z_k picks the tier, q_k carries the
//                   quantity, q_k in [tier lower edge, tier upper edge])
//
// Constraints: one site per group; site capacity over primaries + backups;
// X_ij + Y_ij <= 1; business impact sum_i X_ij <= omega*M; pairwise
// separation rows; shared backup sizing G_b >= sum_c J_abc * S_c for all a
// (or the fixed-primary collapse / dedicated over-sizing variants).
//
// The objective carries per-placement latency penalties and VPN WAN costs on
// X/Y, tier-priced site aggregates (space on servers, power on kWh, labor on
// admins, flat-mode WAN on megabits), and backup capex zeta * sum G_j.
//
// One builder covers every horizon (FormulationOptions::horizon). A static
// plan is the one-period case: its blocks carry the classic names (x_0_3,
// capacity_2, ...). A real horizon replicates every block above per demand
// period t with "@p<t>"-suffixed names (T = 1 included), coefficients
// priced by the period-scaled cost model and weighted by the period's
// duration, plus inter-period migration coupling
//
//   MV_it >= X_ijt - X_ij(t-1)   for every site j       (MV_it in [0, 1])
//
// whose objective coefficient is migration_cost_per_server * period-t
// servers — the switching cost of "Optimal Algorithms for Right-Sizing Data
// Centers". `lock_placement` instead shares one X (and Y) block across all
// periods: the best *static* plan evaluated against the whole horizon, the
// competitor the time-expanded plan must beat. Fixed-primary sizing (stage
// 2 of the two-stage DR method) exists at a static horizon only.
#pragma once

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "lp/model.h"
#include "model/horizon.h"
#include "model/plan.h"

namespace etransform {

/// Which DR backup-sizing rows to emit.
enum class BackupSizing {
  /// Exact shared sizing via J_abc variables (M*N^2 of them): G_b >=
  /// sum_c J_abc S_c for every potential failing site a. Only viable for
  /// small/medium instances.
  kSharedJoint,
  /// Exact shared sizing with the primary assignment fixed (stage 2 of the
  /// two-stage method): G_b >= sum_{i: primary_i = a} S_i Y_ib, N^2 rows,
  /// no J and no X variables. Static horizon only.
  kSharedFixedPrimary,
  /// Dedicated over-sizing G_b >= sum_i S_i Y_ib (upper bound; used as the
  /// stage-1 surrogate where J would be too large).
  kDedicated,
};

/// Options controlling what gets emitted.
struct FormulationOptions {
  bool enable_dr = false;
  /// Business impact parameter omega (§IV-B): no site may host more than
  /// omega * M application groups. 1.0 disables the row.
  double business_impact_omega = 1.0;
  /// false replaces every schedule with its base (first-tier) price,
  /// dropping all tier binaries — the "no economies of scale" ablation.
  bool economies_of_scale = true;
  BackupSizing backup_sizing = BackupSizing::kSharedJoint;
  /// Required when backup_sizing == kSharedFixedPrimary: primary_i per group.
  const std::vector<int>* fixed_primary = nullptr;
  /// decode_plan: provision dedicated per-site sums instead of recomputing
  /// the single-failure sharing law (multi-failure planning).
  bool decode_dedicated_counts = false;
  /// The demand horizon the model covers; null means a static horizon (one
  /// period, the caller's cost model, unsuffixed names). A non-static
  /// horizon is incompatible with kSharedFixedPrimary. The horizon must
  /// outlive the formulation.
  const PlanningHorizon* horizon = nullptr;
  /// Share one placement block across all periods (the "best static plan
  /// over the horizon" competitor). No migration variables are emitted. At
  /// a static horizon the model is the same either way.
  bool lock_placement = false;
};

/// The built model plus the variable maps needed to decode a solution. A
/// static horizon has the one period t = 0.
struct Formulation {
  lp::Model model;
  /// xt[t][i][j] = variable index of X_ij in period t, or -1 when the pair
  /// is disallowed or fixed (with kSharedFixedPrimary no X variables exist).
  /// With lock_placement every period aliases the shared block.
  std::vector<std::vector<std::vector<int>>> xt;
  /// yt[t][i][j] = Y_ij in period t, or -1; gt[t][j] = G_j in period t.
  /// Empty without DR.
  std::vector<std::vector<std::vector<int>>> yt;
  std::vector<std::vector<int>> gt;
  /// move[t-1][i] = MV_it migration indicator for t >= 1, or -1 when the
  /// horizon charges no migration. Empty in static / locked mode.
  std::vector<std::vector<int>> move;
};

/// Builds the MILP. Throws InvalidInputError on inconsistent options (e.g.
/// kSharedFixedPrimary without fixed_primary, or over a non-static
/// horizon).
[[nodiscard]] Formulation build_formulation(const CostModel& cost,
                                            const FormulationOptions& options);

/// Decodes a one-period solve back into a Plan: reads X/Y, recomputes the
/// backup counts exactly via the sharing law, and prices the plan with the
/// cost model. Throws InvalidInputError if some group has no selected site
/// or the formulation has more than one period.
[[nodiscard]] Plan decode_plan(const CostModel& cost,
                               const Formulation& formulation,
                               const FormulationOptions& options,
                               const std::vector<double>& values,
                               const std::string& algorithm);

/// Decodes a time-expanded solve into per-period plans (the same per-period
/// decode as decode_plan), each re-priced exactly against its period-scaled
/// cost model, and totals them with assemble_multi_period (weighted sums +
/// the migration charge). Requires a non-static options.horizon; throws
/// InvalidInputError otherwise.
[[nodiscard]] MultiPeriodPlan decode_multi_period_plan(
    const CostModel& cost, const Formulation& formulation,
    const FormulationOptions& options, const std::vector<double>& values,
    const std::string& algorithm);

/// True if the group may be placed at site j under its pin / allowed-sites
/// constraints (shared by the planner and the heuristics).
[[nodiscard]] bool group_allowed_at(const ApplicationGroup& group, int site);

}  // namespace etransform
