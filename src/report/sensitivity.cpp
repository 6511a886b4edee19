#include "report/sensitivity.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.h"
#include "common/money.h"
#include "common/table.h"

namespace etransform {

namespace {

/// Runs the analysis with a pluggable loop driver so the sequential and
/// thread-pool overloads share one kernel: `for_each_group(n, fn)` must
/// invoke fn(i) exactly once for every i in [0, n) and return only when all
/// are done. The per-group work reads only shared immutable aggregates, so
/// any execution order yields the same report.
template <typename ForEachGroup>
SensitivityReport analyze_sensitivity_impl(const CostModel& model,
                                           const Plan& plan,
                                           const ForEachGroup& for_each_group) {
  const auto& instance = model.instance();
  if (!check_plan(instance, plan).empty()) {
    throw InvalidInputError("analyze_sensitivity: plan is not feasible");
  }
  const int num_groups = instance.num_groups();
  const int num_sites = instance.num_sites();
  const bool dr = plan.has_dr();

  // Site aggregates under the plan.
  std::vector<long long> servers(static_cast<std::size_t>(num_sites), 0);
  std::vector<double> data(static_cast<std::size_t>(num_sites), 0.0);
  for (int i = 0; i < num_groups; ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const int a = plan.primary[static_cast<std::size_t>(i)];
    servers[static_cast<std::size_t>(a)] += group.servers;
    if (!instance.use_vpn_links) {
      data[static_cast<std::size_t>(a)] += group.monthly_data_megabits;
    }
    if (dr) {
      const int b = plan.secondary[static_cast<std::size_t>(i)];
      if (!instance.use_vpn_links) {
        data[static_cast<std::size_t>(b)] += group.monthly_data_megabits;
      }
    }
  }
  if (dr) {
    for (int j = 0; j < num_sites; ++j) {
      servers[static_cast<std::size_t>(j)] +=
          plan.backup_servers[static_cast<std::size_t>(j)];
    }
  }

  SensitivityReport report;
  const auto allowed_at = [&](const ApplicationGroup& group, int j) {
    if (group.pinned_site >= 0) return j == group.pinned_site;
    if (group.allowed_sites.empty()) return true;
    return std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                     j) != group.allowed_sites.end();
  };

  report.groups.resize(static_cast<std::size_t>(num_groups));
  for_each_group(num_groups, [&](int i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const int a = plan.primary[static_cast<std::size_t>(i)];
    const double d =
        instance.use_vpn_links ? 0.0 : group.monthly_data_megabits;
    // Exact cost of the current placement's removable share.
    const Money at_a =
        model.site_cost(a, servers[static_cast<std::size_t>(a)],
                        data[static_cast<std::size_t>(a)])
            .total() -
        model
            .site_cost(a, servers[static_cast<std::size_t>(a)] - group.servers,
                       data[static_cast<std::size_t>(a)] - d)
            .total() +
        model.placement_cost(i, a);

    GroupSensitivity sensitivity;
    sensitivity.group = i;
    sensitivity.chosen_site = a;
    Money best_alternative = std::numeric_limits<double>::infinity();
    for (int j = 0; j < num_sites; ++j) {
      if (j == a) continue;
      if (!allowed_at(group, j)) continue;
      if (dr && plan.secondary[static_cast<std::size_t>(i)] == j) continue;
      const auto capacity = static_cast<long long>(
          instance.sites[static_cast<std::size_t>(j)].capacity_servers);
      if (servers[static_cast<std::size_t>(j)] + group.servers > capacity) {
        continue;
      }
      const Money at_j =
          model
              .site_cost(j, servers[static_cast<std::size_t>(j)] +
                                group.servers,
                         data[static_cast<std::size_t>(j)] + d)
              .total() -
          model
              .site_cost(j, servers[static_cast<std::size_t>(j)],
                         data[static_cast<std::size_t>(j)])
              .total() +
          model.placement_cost(i, j);
      if (at_j < best_alternative) {
        best_alternative = at_j;
        sensitivity.runner_up_site = j;
      }
    }
    if (sensitivity.runner_up_site >= 0) {
      sensitivity.regret = best_alternative - at_a;
    }
    report.groups[static_cast<std::size_t>(i)] = sensitivity;
  });
  // Stable sort on the group-indexed array: identical input order whether
  // the scan ran sequentially or on a pool, so ties break identically and
  // the rendered report is byte-stable across thread counts.
  std::stable_sort(report.groups.begin(), report.groups.end(),
                   [](const GroupSensitivity& x, const GroupSensitivity& y) {
                     return x.regret > y.regret;
                   });

  for (int j = 0; j < num_sites; ++j) {
    SiteUtilization utilization;
    utilization.site = j;
    utilization.servers = servers[static_cast<std::size_t>(j)];
    utilization.capacity =
        instance.sites[static_cast<std::size_t>(j)].capacity_servers;
    utilization.utilization =
        utilization.capacity > 0
            ? static_cast<double>(utilization.servers) /
                  utilization.capacity
            : 0.0;
    report.sites.push_back(utilization);
  }
  return report;
}

}  // namespace

SensitivityReport analyze_sensitivity(const CostModel& model,
                                      const Plan& plan) {
  return analyze_sensitivity_impl(
      model, plan, [](int count, const std::function<void(int)>& fn) {
        for (int i = 0; i < count; ++i) fn(i);
      });
}

SensitivityReport analyze_sensitivity(const CostModel& model, const Plan& plan,
                                      ThreadPool& pool) {
  return analyze_sensitivity_impl(
      model, plan, [&pool](int count, const std::function<void(int)>& fn) {
        parallel_for(pool, count, fn);
      });
}

std::string render_sensitivity(const ConsolidationInstance& instance,
                               const SensitivityReport& report,
                               std::size_t max_groups) {
  TextTable groups({"group", "placed at", "runner-up", "regret ($/mo)"});
  for (std::size_t k = 0; k < report.groups.size() && k < max_groups; ++k) {
    const auto& g = report.groups[k];
    groups.add_row(
        {instance.groups[static_cast<std::size_t>(g.group)].name,
         instance.sites[static_cast<std::size_t>(g.chosen_site)].name,
         g.runner_up_site >= 0
             ? instance.sites[static_cast<std::size_t>(g.runner_up_site)].name
             : "(none feasible)",
         g.runner_up_site >= 0 ? format_money(g.regret) : "-"});
  }
  TextTable sites({"site", "servers", "capacity", "utilization"});
  for (const auto& s : report.sites) {
    if (s.servers == 0) continue;
    sites.add_row({instance.sites[static_cast<std::size_t>(s.site)].name,
                   std::to_string(s.servers), std::to_string(s.capacity),
                   format_percent(100.0 * s.utilization, 0)});
  }
  return "placement regret (top " + std::to_string(max_groups) + "):\n" +
         groups.render() + "\nsite utilization:\n" + sites.render();
}

}  // namespace etransform
