// Multi-period planning: the demand timeline a time-expanded plan covers.
//
// The paper plans one static to-be state from a single demand snapshot. A
// PlanningHorizon generalizes that input: an ordered list of demand periods,
// each scaling the snapshot's traffic (per group or uniformly) and optionally
// failing sites, plus a switching cost charged per server moved between
// consecutive periods ("Optimal Algorithms for Right-Sizing Data Centers",
// Albers & Quedenfeld). An empty horizon means the classic static problem;
// the planner treats horizon semantics as:
//
//   total cost = sum_t weight_t * monthly_cost(plan_t under demand_t)
//              + migration_cost_per_server * servers moved at each t -> t+1
//
// weight_t is the period's duration in months (all-zero weights default to
// 1/T each, so a horizon-of-1 with multiplier 1 totals exactly the static
// monthly cost — the differential-test contract).
#pragma once

#include <string>
#include <vector>

#include "common/money.h"
#include "model/entities.h"
#include "model/plan.h"

namespace etransform {

/// One demand period of the horizon.
struct DemandPeriod {
  /// Display name; empty defaults to "p<t>".
  std::string name;
  /// Duration of the period in months. All-zero weights mean 1/T each.
  double weight = 0.0;
  /// Uniform traffic multiplier applied to every group's servers, monthly
  /// data, and user counts. Must be > 0.
  double multiplier = 1.0;
  /// Per-group multiplier override (size = num_groups); empty falls back to
  /// the uniform `multiplier`.
  std::vector<double> group_multipliers;
  /// Sites unavailable this period (capacity forced to 0) — site-failure /
  /// maintenance-window scenarios.
  std::vector<int> failed_sites;
};

/// The demand timeline plus the inter-period switching cost.
struct PlanningHorizon {
  /// Ordered demand periods. Empty = the classic static single snapshot.
  std::vector<DemandPeriod> periods;
  /// One-time cost per server moved between consecutive periods.
  Money migration_cost_per_server = 0.0;

  [[nodiscard]] bool is_static() const { return periods.empty(); }
  [[nodiscard]] int num_periods() const {
    return periods.empty() ? 1 : static_cast<int>(periods.size());
  }
  /// Resolved duration of period t in months (auto 1/T when all zero).
  [[nodiscard]] double period_weight(int t) const;
  /// Effective traffic multiplier of group `group` in period t.
  [[nodiscard]] double multiplier(int t, int group) const;
  /// Display name of period t ("p<t>" when unnamed).
  [[nodiscard]] std::string period_name(int t) const;

  /// T equal unit periods at multiplier 1 — the trivial horizon.
  [[nodiscard]] static PlanningHorizon uniform(
      int num_periods, Money migration_cost_per_server = 0.0);
};

/// Demand-scaled server count: ceil(servers * multiplier), at least 1 for a
/// nonempty group (a group stays placed even in its trough).
[[nodiscard]] int scaled_servers(int servers, double multiplier);

/// Materializes the instance as period t sees it: group servers / monthly
/// data / user counts scaled by the period multiplier, failed sites'
/// capacity zeroed, name suffixed with the period name. The result is a
/// self-contained static instance (feed it to CostModel for per-period
/// pricing).
[[nodiscard]] ConsolidationInstance apply_period(
    const ConsolidationInstance& base, const PlanningHorizon& horizon, int t);

/// Throws InvalidInputError on an inconsistent horizon: non-positive
/// multipliers, per-group multiplier vectors of the wrong length, mixed
/// zero/nonzero weights, out-of-range failed-site indices, a negative
/// migration rate, or more than kMaxHorizonPeriods periods.
void validate_horizon(const ConsolidationInstance& base,
                      const PlanningHorizon& horizon);

/// Upper bound on periods per horizon (bounds daemon memory and MILP size).
inline constexpr int kMaxHorizonPeriods = 64;

/// Canonical one-line encoding of the horizon (period weights, multipliers,
/// failures, migration rate). Feeds the daemon's options_fingerprint so the
/// result cache never serves a static result for a multi-period request (or
/// vice versa), and labels sweep scenarios. Numbers use their exact
/// round-trip spelling (append_round_trip), so horizons that differ in any
/// bit get different encodings. Empty string for a static horizon.
[[nodiscard]] std::string horizon_fingerprint(const PlanningHorizon& horizon);

/// A plan per period plus horizon-level totals.
struct MultiPeriodPlan {
  /// periods[t] is priced at period t's demand (monthly rates).
  std::vector<Plan> periods;
  /// Weighted horizon totals: sum_t weight_t * periods[t].cost, plus the
  /// migration term in cost.migration.
  CostBreakdown cost;
  /// Group relocations across consecutive periods.
  int total_moves = 0;
  /// Servers relocated (counted at the arrival period's scaled size).
  long long moved_servers = 0;
  std::string algorithm;

  [[nodiscard]] bool empty() const { return periods.empty(); }
};

/// Builds the horizon-level totals from per-period plans that are already
/// priced: weighted cost sums, move counts, and the migration charge
/// (rate * arrival-period servers per relocated group). Shared by the MILP
/// decode, the heuristic smoother, and the online baselines so every
/// competitor is totalled by the same rule. Throws InvalidInputError when
/// the plan count does not match the horizon.
[[nodiscard]] MultiPeriodPlan assemble_multi_period(
    const ConsolidationInstance& base, const PlanningHorizon& horizon,
    std::vector<Plan> period_plans, std::string algorithm);

}  // namespace etransform
