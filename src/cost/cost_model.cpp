#include "cost/cost_model.h"

#include <cmath>

#include "common/error.h"

namespace etransform {

CostModel::CostModel(const ConsolidationInstance& instance)
    : instance_(&instance) {
  validate_instance(instance);
  const int num_groups = instance.num_groups();
  const int num_sites = instance.num_sites();
  const std::size_t cells = static_cast<std::size_t>(num_groups) *
                            static_cast<std::size_t>(num_sites);
  avg_latency_.resize(cells);
  wan_cost_.resize(cells);
  placement_cost_.resize(cells);
  // Flat mode prices WAN at each site's first-tier rate.
  std::vector<Money> base_wan_price;
  if (!instance.use_vpn_links) {
    for (const auto& site : instance.sites) {
      base_wan_price.push_back(site.wan_cost_per_megabit.unit_price(0.0));
    }
  }
  for (int i = 0; i < num_groups; ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const double total_users = group.total_users();
    for (int j = 0; j < num_sites; ++j) {
      const std::size_t k = index(i, j);
      avg_latency_[k] = weighted_average_latency(
          instance.latency_ms[static_cast<std::size_t>(j)],
          group.users_per_location);
      Money wan = 0.0;
      if (instance.use_vpn_links) {
        // Dedicated links: links to location r carry the user-proportional
        // share of the group's traffic, each link has capacity gamma.
        if (total_users > 0.0 && group.monthly_data_megabits > 0.0) {
          for (int r = 0; r < instance.num_locations(); ++r) {
            const double share =
                group.users_per_location[static_cast<std::size_t>(r)] /
                total_users;
            const double links_needed =
                share * group.monthly_data_megabits /
                instance.params.vpn_link_capacity_megabits;
            wan += links_needed *
                   instance.vpn_link_monthly_cost[static_cast<std::size_t>(
                       j)][static_cast<std::size_t>(r)];
          }
        }
      } else {
        wan = base_wan_price[static_cast<std::size_t>(j)] *
              group.monthly_data_megabits;
      }
      wan_cost_[k] = wan;
      Money placement = latency_penalty(i, j);
      if (instance.use_vpn_links) placement += wan;
      placement_cost_[k] = placement;
    }
  }
}

std::size_t CostModel::index(int group, int site) const {
  if (group < 0 || group >= instance_->num_groups() || site < 0 ||
      site >= instance_->num_sites()) {
    throw InvalidInputError("CostModel: group/site index out of range");
  }
  return static_cast<std::size_t>(group) *
             static_cast<std::size_t>(instance_->num_sites()) +
         static_cast<std::size_t>(site);
}

double CostModel::average_latency(int group, int site) const {
  return avg_latency_[index(group, site)];
}

Money CostModel::latency_penalty(int group, int site) const {
  const auto& g = instance_->groups[static_cast<std::size_t>(group)];
  return g.total_users() *
         g.latency_penalty.penalty_per_user(avg_latency_[index(group, site)]);
}

bool CostModel::latency_violated(int group, int site) const {
  const auto& g = instance_->groups[static_cast<std::size_t>(group)];
  return g.latency_penalty.violated_at(avg_latency_[index(group, site)]);
}

Money CostModel::wan_cost(int group, int site) const {
  return wan_cost_[index(group, site)];
}

Money CostModel::placement_cost(int group, int site) const {
  return placement_cost_[index(group, site)];
}

std::span<const Money> CostModel::placement_cost_row(int group) const {
  if (group < 0 || group >= instance_->num_groups()) {
    throw InvalidInputError("CostModel: group index out of range");
  }
  const auto num_sites = static_cast<std::size_t>(instance_->num_sites());
  return {placement_cost_.data() + static_cast<std::size_t>(group) * num_sites,
          num_sites};
}

Money CostModel::assignment_cost(int group, int site) const {
  const auto& g = instance_->groups[static_cast<std::size_t>(group)];
  const auto& s = instance_->sites[static_cast<std::size_t>(site)];
  const auto& p = instance_->params;
  const Money space = s.space_cost_per_server.unit_price(0.0);
  const Money power = s.power_cost_per_kwh.unit_price(0.0) *
                      p.server_power_kw * p.hours_per_month;
  const Money labor =
      s.labor_cost_per_admin.unit_price(0.0) / p.servers_per_admin;
  return g.servers * (space + power + labor) + wan_cost(group, site) +
         latency_penalty(group, site);
}

CostBreakdown CostModel::site_cost(int site, long long servers,
                                   double data_megabits) const {
  if (site < 0 || site >= instance_->num_sites()) {
    throw InvalidInputError("site_cost: site index out of range");
  }
  // Incremental callers (local search) accumulate floating-point drift on
  // the data aggregate; tolerate epsilon-negative values.
  if (data_megabits < 0.0 && data_megabits > -1e-3) data_megabits = 0.0;
  if (servers < 0 || data_megabits < 0.0) {
    throw InvalidInputError("site_cost: negative aggregate");
  }
  const auto& s = instance_->sites[static_cast<std::size_t>(site)];
  const auto& p = instance_->params;
  CostBreakdown cost;
  const auto n = static_cast<double>(servers);
  cost.space = s.space_cost_per_server.total_cost(n);
  const double kwh = n * p.server_power_kw * p.hours_per_month;
  cost.power = s.power_cost_per_kwh.total_cost(kwh);
  const double admins = n / p.servers_per_admin;
  cost.labor = s.labor_cost_per_admin.total_cost(admins);
  if (!instance_->use_vpn_links) {
    cost.wan = s.wan_cost_per_megabit.total_cost(data_megabits);
  }
  return cost;
}

Money CostModel::marginal_cost(int group, int site, long long site_servers,
                               double site_data_megabits) const {
  const auto& g = instance_->groups[static_cast<std::size_t>(group)];
  const CostBreakdown before =
      site_cost(site, site_servers, site_data_megabits);
  const double extra_data =
      instance_->use_vpn_links ? 0.0 : g.monthly_data_megabits;
  const CostBreakdown after = site_cost(site, site_servers + g.servers,
                                        site_data_megabits + extra_data);
  Money delta = after.total() - before.total();
  if (instance_->use_vpn_links) delta += wan_cost(group, site);
  return delta + latency_penalty(group, site);
}

void CostModel::price_plan(Plan& plan) const {
  const int num_groups = instance_->num_groups();
  const int num_sites = instance_->num_sites();
  if (static_cast<int>(plan.primary.size()) != num_groups) {
    throw InvalidInputError("price_plan: primary assignment size mismatch");
  }
  const bool dr = plan.has_dr();
  if (dr && static_cast<int>(plan.secondary.size()) != num_groups) {
    throw InvalidInputError("price_plan: secondary assignment size mismatch");
  }
  if (dr && static_cast<int>(plan.backup_servers.size()) != num_sites) {
    throw InvalidInputError("price_plan: backup vector size mismatch");
  }

  std::vector<long long> servers(static_cast<std::size_t>(num_sites), 0);
  std::vector<double> data(static_cast<std::size_t>(num_sites), 0.0);
  CostBreakdown cost;
  int violations = 0;

  for (int i = 0; i < num_groups; ++i) {
    const auto& group = instance_->groups[static_cast<std::size_t>(i)];
    const int j = plan.primary[static_cast<std::size_t>(i)];
    if (j < 0 || j >= num_sites) {
      throw InvalidInputError("price_plan: primary site out of range");
    }
    servers[static_cast<std::size_t>(j)] += group.servers;
    data[static_cast<std::size_t>(j)] += group.monthly_data_megabits;
    if (instance_->use_vpn_links) cost.wan += wan_cost(i, j);
    cost.latency_penalty += latency_penalty(i, j);
    if (latency_violated(i, j)) ++violations;
    if (dr) {
      const int b = plan.secondary[static_cast<std::size_t>(i)];
      if (b < 0 || b >= num_sites) {
        throw InvalidInputError("price_plan: secondary site out of range");
      }
      // Replication traffic reaches the secondary site.
      data[static_cast<std::size_t>(b)] += group.monthly_data_megabits;
      if (instance_->use_vpn_links) cost.wan += wan_cost(i, b);
      cost.latency_penalty += latency_penalty(i, b);
      if (latency_violated(i, b)) ++violations;
    }
  }
  if (dr) {
    for (int j = 0; j < num_sites; ++j) {
      servers[static_cast<std::size_t>(j)] +=
          plan.backup_servers[static_cast<std::size_t>(j)];
      cost.backup_capex += instance_->params.dr_server_cost *
                           plan.backup_servers[static_cast<std::size_t>(j)];
    }
  }
  for (int j = 0; j < num_sites; ++j) {
    const CostBreakdown site = site_cost(j, servers[static_cast<std::size_t>(j)],
                                         data[static_cast<std::size_t>(j)]);
    cost.space += site.space;
    cost.power += site.power;
    cost.labor += site.labor;
    cost.wan += site.wan;
  }
  plan.cost = cost;
  plan.latency_violations = violations;
}

CostBreakdown CostModel::as_is_cost() const {
  const auto& instance = *instance_;
  if (instance.as_is_placement.empty()) {
    throw InvalidInputError("as_is_cost: instance has no as-is placement");
  }
  CostBreakdown cost;
  const auto& p = instance.params;
  const int num_centers = static_cast<int>(instance.as_is_centers.size());
  std::vector<long long> servers(static_cast<std::size_t>(num_centers), 0);
  for (int i = 0; i < instance.num_groups(); ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const int d = instance.as_is_placement[static_cast<std::size_t>(i)];
    const auto& center = instance.as_is_centers[static_cast<std::size_t>(d)];
    servers[static_cast<std::size_t>(d)] += group.servers;
    cost.wan += center.wan_cost_per_megabit * group.monthly_data_megabits;
    if (!instance.as_is_latency_ms.empty()) {
      const double latency = weighted_average_latency(
          instance.as_is_latency_ms[static_cast<std::size_t>(d)],
          group.users_per_location);
      cost.latency_penalty +=
          group.total_users() *
          group.latency_penalty.penalty_per_user(latency);
    }
  }
  for (int d = 0; d < num_centers; ++d) {
    const auto& center = instance.as_is_centers[static_cast<std::size_t>(d)];
    const auto n = static_cast<double>(servers[static_cast<std::size_t>(d)]);
    cost.space += center.space_cost_per_server * n;
    cost.power +=
        center.power_cost_per_kwh * n * p.server_power_kw * p.hours_per_month;
    cost.labor += center.labor_cost_per_admin * n / p.servers_per_admin;
  }
  return cost;
}

int CostModel::as_is_latency_violations() const {
  const auto& instance = *instance_;
  if (instance.as_is_placement.empty() || instance.as_is_latency_ms.empty()) {
    return 0;
  }
  int violations = 0;
  for (int i = 0; i < instance.num_groups(); ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const int d = instance.as_is_placement[static_cast<std::size_t>(i)];
    const double latency = weighted_average_latency(
        instance.as_is_latency_ms[static_cast<std::size_t>(d)],
        group.users_per_location);
    if (group.latency_penalty.violated_at(latency)) ++violations;
  }
  return violations;
}

}  // namespace etransform
