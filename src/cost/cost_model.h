// The cost model: exact monthly pricing of plans and of the as-is state.
//
// This is the single source of truth for costs. Every algorithm (LP planner,
// greedy, manual, local search) is priced by the same evaluator, so the
// Fig. 4 / Fig. 6 comparisons are apples-to-apples:
//
//   site cost(j)   = space_j(n) * n + E_j(kWh) * kWh + T_j(admins) * admins
//                    [+ W_j(data) * data in flat-WAN mode]
//   placement cost = WAN (VPN-link formula in VPN mode) + latency penalty
//   DR             = backup servers join the site server aggregate, the
//                    group's data joins the secondary site's WAN aggregate
//                    (replication traffic), and backup purchase is
//                    zeta * sum_j G_j.
//
// where n, kWh, admins, data are *site aggregates*, so volume discounts
// (StepSchedule) apply across all groups consolidated at the site — the
// economies of scale the paper optimizes for.
#pragma once

#include <span>
#include <vector>

#include "model/entities.h"
#include "model/plan.h"

namespace etransform {

/// Precomputes per-(group,site) latency and WAN figures for an instance and
/// prices plans exactly. The instance must outlive the model.
class CostModel {
 public:
  /// Validates the instance (throws InvalidInputError/InfeasibleError) and
  /// precomputes the M x N latency, WAN and placement-cost matrices.
  explicit CostModel(const ConsolidationInstance& instance);

  /// User-weighted average latency of group i served from site j (ms).
  [[nodiscard]] double average_latency(int group, int site) const;

  /// Monthly latency penalty of the placement: users * per-user step penalty
  /// (the L_ij term of the objective).
  [[nodiscard]] Money latency_penalty(int group, int site) const;

  /// True if the placement pays a nonzero latency penalty.
  [[nodiscard]] bool latency_violated(int group, int site) const;

  /// Monthly WAN cost of the placement in VPN mode (dedicated-link formula,
  /// paper §III-B):  sum_r (C_ir * D_i) / (gamma * sum_r C_ir) * F_jr.
  /// In flat mode returns D_i priced at the site's *base* WAN unit price
  /// (aggregate discounts are applied in price_plan).
  [[nodiscard]] Money wan_cost(int group, int site) const;

  /// Per-placement objective term: latency penalty, plus the VPN WAN cost
  /// in VPN mode (c = L_ij; if VPN, c += WAN_ij). Tabulated once at
  /// construction; this table is the single source of that term for the
  /// formulation, the heuristics and local search.
  [[nodiscard]] Money placement_cost(int group, int site) const;

  /// Group i's row of the placement-cost table (one entry per site), for
  /// hot loops. Throws InvalidInputError if the group is out of range.
  [[nodiscard]] std::span<const Money> placement_cost_row(int group) const;

  /// Placement coefficient at base (first-tier) prices:
  /// S_i*(Q_j + alpha*E_j*hours + T_j/beta) + WAN + latency penalty.
  /// This is the c_ij the greedy baseline and heuristics price against.
  [[nodiscard]] Money assignment_cost(int group, int site) const;

  /// Exact cost of running `servers` servers and `data_megabits` of monthly
  /// flat-WAN traffic at site j, with volume discounts applied (space,
  /// power, labor, and flat-mode WAN; no latency/VPN terms).
  [[nodiscard]] CostBreakdown site_cost(int site, long long servers,
                                        double data_megabits) const;

  /// Marginal cost of adding a group to a site that currently hosts the
  /// given aggregates (exact, including tier-boundary effects).
  [[nodiscard]] Money marginal_cost(int group, int site,
                                    long long site_servers,
                                    double site_data_megabits) const;

  /// Prices `plan` exactly: fills plan.cost and plan.latency_violations.
  /// Throws InvalidInputError if the plan's shape does not match the
  /// instance. Does not check feasibility (see check_plan).
  void price_plan(Plan& plan) const;

  /// Cost of the current estate: every group at its as-is center, priced at
  /// the centers' own flat rates.
  [[nodiscard]] CostBreakdown as_is_cost() const;

  /// Latency violations in the as-is state (0 if no as-is latency matrix).
  [[nodiscard]] int as_is_latency_violations() const;

  [[nodiscard]] const ConsolidationInstance& instance() const {
    return *instance_;
  }

 private:
  const ConsolidationInstance* instance_;
  /// avg_latency_[i * num_sites + j]
  std::vector<double> avg_latency_;
  /// wan_cost_[i * num_sites + j] (VPN mode) or base-price WAN (flat mode)
  std::vector<Money> wan_cost_;
  /// placement_cost_[i * num_sites + j]: latency penalty [+ VPN WAN]
  std::vector<Money> placement_cost_;

  [[nodiscard]] std::size_t index(int group, int site) const;
};

}  // namespace etransform
