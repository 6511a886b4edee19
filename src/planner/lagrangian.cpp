#include "planner/lagrangian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "planner/formulation.h"

namespace etransform {

namespace {

/// Cheapest possible unit price of a schedule (its deepest-discount tier).
Money floor_price(const StepSchedule& schedule) {
  Money lowest = std::numeric_limits<double>::infinity();
  for (const auto& tier : schedule.tiers()) {
    lowest = std::min(lowest, tier.unit_price);
  }
  return lowest;
}

}  // namespace

LagrangianBound lagrangian_lower_bound(const CostModel& model,
                                       const LagrangianOptions& options) {
  const auto& instance = model.instance();
  const int num_groups = instance.num_groups();
  const int num_sites = instance.num_sites();

  // cLB_ij: floor-tier site costs + exact per-placement terms. Any feasible
  // plan's total cost is >= sum_i cLB_{i,site(i)} because every schedule's
  // total cost is >= floor_price * quantity and quantities add per site.
  std::vector<double> clb(static_cast<std::size_t>(num_groups) *
                          static_cast<std::size_t>(num_sites));
  std::vector<bool> feasible(clb.size(), false);
  const auto& p = instance.params;
  for (int j = 0; j < num_sites; ++j) {
    const auto& site = instance.sites[static_cast<std::size_t>(j)];
    const Money per_server =
        floor_price(site.space_cost_per_server) +
        floor_price(site.power_cost_per_kwh) * p.server_power_kw *
            p.hours_per_month +
        floor_price(site.labor_cost_per_admin) / p.servers_per_admin;
    const Money per_megabit =
        instance.use_vpn_links ? 0.0 : floor_price(site.wan_cost_per_megabit);
    for (int i = 0; i < num_groups; ++i) {
      const auto& group = instance.groups[static_cast<std::size_t>(i)];
      const auto idx = static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(num_sites) +
                       static_cast<std::size_t>(j);
      if (!group_allowed_at(group, j) ||
          site.capacity_servers < group.servers) {
        clb[idx] = std::numeric_limits<double>::infinity();
        continue;
      }
      feasible[idx] = true;
      // Not placement_cost(): the latency term joins this sum before the
      // VPN term, and regrouping would change bits.
      double c = group.servers * per_server +
                 group.monthly_data_megabits * per_megabit +
                 model.latency_penalty(i, j);
      if (instance.use_vpn_links) c += model.wan_cost(i, j);
      clb[idx] = c;
    }
  }

  // Internal upper bound for Polyak steps: each group at its cheapest site
  // (capacity ignored) is a *lower* bound; scale up for a crude UB target.
  double ub = options.upper_bound;
  if (ub <= 0.0) {
    double relaxed = 0.0;
    for (int i = 0; i < num_groups; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (int j = 0; j < num_sites; ++j) {
        best = std::min(best, clb[static_cast<std::size_t>(i) *
                                      static_cast<std::size_t>(num_sites) +
                                  static_cast<std::size_t>(j)]);
      }
      relaxed += best;
    }
    ub = relaxed * 1.5 + 1.0;
  }

  std::vector<double> lambda(static_cast<std::size_t>(num_sites), 0.0);
  std::vector<double> usage(static_cast<std::size_t>(num_sites), 0.0);
  double best_bound = -std::numeric_limits<double>::infinity();
  double step_scale = options.step_scale;
  int since_improvement = 0;
  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    // Solve the relaxed subproblem: each group picks argmin cLB + lambda*S.
    std::fill(usage.begin(), usage.end(), 0.0);
    double value = 0.0;
    for (int j = 0; j < num_sites; ++j) {
      value -= lambda[static_cast<std::size_t>(j)] *
               instance.sites[static_cast<std::size_t>(j)].capacity_servers;
    }
    for (int i = 0; i < num_groups; ++i) {
      const auto servers = static_cast<double>(
          instance.groups[static_cast<std::size_t>(i)].servers);
      double best = std::numeric_limits<double>::infinity();
      int best_site = -1;
      for (int j = 0; j < num_sites; ++j) {
        const auto idx = static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(num_sites) +
                         static_cast<std::size_t>(j);
        if (!feasible[idx]) continue;
        const double score =
            clb[idx] + lambda[static_cast<std::size_t>(j)] * servers;
        if (score < best) {
          best = score;
          best_site = j;
        }
      }
      value += best;
      usage[static_cast<std::size_t>(best_site)] += servers;
    }
    if (value > best_bound + 1e-9) {
      best_bound = value;
      since_improvement = 0;
    } else if (++since_improvement >= options.patience) {
      step_scale *= 0.5;
      since_improvement = 0;
      if (step_scale < 1e-6) break;
    }

    // Subgradient: capacity violation per site.
    double norm_sq = 0.0;
    for (int j = 0; j < num_sites; ++j) {
      const double g =
          usage[static_cast<std::size_t>(j)] -
          instance.sites[static_cast<std::size_t>(j)].capacity_servers;
      norm_sq += g * g;
    }
    if (norm_sq < 1e-12) break;  // capacity satisfied: bound is exact here
    const double step = step_scale * std::max(ub - value, 1e-6) / norm_sq;
    for (int j = 0; j < num_sites; ++j) {
      const double g =
          usage[static_cast<std::size_t>(j)] -
          instance.sites[static_cast<std::size_t>(j)].capacity_servers;
      lambda[static_cast<std::size_t>(j)] =
          std::max(0.0, lambda[static_cast<std::size_t>(j)] + step * g);
    }
  }
  ET_LOG(kDebug) << "lagrangian: bound " << best_bound << " after "
                 << iteration << " iterations";
  return LagrangianBound{best_bound, iteration};
}

}  // namespace etransform
