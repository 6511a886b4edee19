#include "model/horizon.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace etransform {

double PlanningHorizon::period_weight(int t) const {
  if (periods.empty()) return 1.0;
  const bool all_zero =
      std::all_of(periods.begin(), periods.end(),
                  [](const DemandPeriod& p) { return p.weight == 0.0; });
  if (all_zero) return 1.0 / static_cast<double>(periods.size());
  return periods[static_cast<std::size_t>(t)].weight;
}

double PlanningHorizon::multiplier(int t, int group) const {
  if (periods.empty()) return 1.0;
  const auto& period = periods[static_cast<std::size_t>(t)];
  if (!period.group_multipliers.empty()) {
    return period.group_multipliers[static_cast<std::size_t>(group)];
  }
  return period.multiplier;
}

std::string PlanningHorizon::period_name(int t) const {
  if (!periods.empty() &&
      !periods[static_cast<std::size_t>(t)].name.empty()) {
    return periods[static_cast<std::size_t>(t)].name;
  }
  std::string name = "p";
  name += std::to_string(t);
  return name;
}

PlanningHorizon PlanningHorizon::uniform(int num_periods,
                                         Money migration_cost_per_server) {
  PlanningHorizon horizon;
  horizon.migration_cost_per_server = migration_cost_per_server;
  horizon.periods.resize(static_cast<std::size_t>(std::max(0, num_periods)));
  return horizon;
}

int scaled_servers(int servers, double multiplier) {
  if (servers <= 0) return servers;
  const double scaled = std::ceil(static_cast<double>(servers) * multiplier -
                                  1e-9);
  return std::max(1, static_cast<int>(scaled));
}

ConsolidationInstance apply_period(const ConsolidationInstance& base,
                                   const PlanningHorizon& horizon, int t) {
  if (t < 0 || t >= horizon.num_periods()) {
    throw InvalidInputError("apply_period: period index out of range");
  }
  ConsolidationInstance scaled = base;
  if (horizon.is_static()) return scaled;
  scaled.name = base.name + "@" + horizon.period_name(t);
  for (int i = 0; i < base.num_groups(); ++i) {
    const double m = horizon.multiplier(t, i);
    auto& group = scaled.groups[static_cast<std::size_t>(i)];
    group.servers = scaled_servers(group.servers, m);
    group.monthly_data_megabits *= m;
    for (double& users : group.users_per_location) users *= m;
  }
  for (const int j : horizon.periods[static_cast<std::size_t>(t)].failed_sites)
  {
    scaled.sites[static_cast<std::size_t>(j)].capacity_servers = 0;
  }
  return scaled;
}

void validate_horizon(const ConsolidationInstance& base,
                      const PlanningHorizon& horizon) {
  if (horizon.is_static()) {
    if (horizon.migration_cost_per_server < 0.0) {
      throw InvalidInputError("horizon: negative migration cost");
    }
    return;
  }
  if (static_cast<int>(horizon.periods.size()) > kMaxHorizonPeriods) {
    throw InvalidInputError("horizon: more than " +
                            std::to_string(kMaxHorizonPeriods) + " periods");
  }
  if (horizon.migration_cost_per_server < 0.0) {
    throw InvalidInputError("horizon: negative migration cost");
  }
  bool any_weight = false;
  bool any_zero_weight = false;
  for (std::size_t t = 0; t < horizon.periods.size(); ++t) {
    const auto& period = horizon.periods[t];
    const std::string where = "horizon period " + std::to_string(t);
    if (!(period.weight >= 0.0) || !std::isfinite(period.weight)) {
      throw InvalidInputError(where + ": weight must be finite and >= 0");
    }
    (period.weight > 0.0 ? any_weight : any_zero_weight) = true;
    if (!period.group_multipliers.empty() &&
        static_cast<int>(period.group_multipliers.size()) !=
            base.num_groups()) {
      throw InvalidInputError(where + ": group_multipliers must have one "
                                      "entry per group");
    }
    const auto check_multiplier = [&](double m) {
      if (!(m > 0.0) || !std::isfinite(m)) {
        throw InvalidInputError(where + ": multipliers must be finite and "
                                        "> 0");
      }
    };
    check_multiplier(period.multiplier);
    for (const double m : period.group_multipliers) check_multiplier(m);
    for (const int j : period.failed_sites) {
      if (j < 0 || j >= base.num_sites()) {
        throw InvalidInputError(where + ": failed-site index out of range");
      }
    }
  }
  if (any_weight && any_zero_weight) {
    throw InvalidInputError(
        "horizon: period weights must be all zero (auto 1/T) or all > 0");
  }
}

std::string horizon_fingerprint(const PlanningHorizon& horizon) {
  if (horizon.is_static()) return std::string();
  // Exact spellings: periods that differ in any bit must not share a key.
  std::string out = "T=" + std::to_string(horizon.periods.size()) + ";mig=";
  append_round_trip(out, horizon.migration_cost_per_server);
  for (std::size_t t = 0; t < horizon.periods.size(); ++t) {
    const auto& period = horizon.periods[t];
    out += ";p" + std::to_string(t) + ":w=";
    append_round_trip(out, period.weight);
    if (period.group_multipliers.empty()) {
      out += ",m=";
      append_round_trip(out, period.multiplier);
    } else {
      out += ",gm=";
      for (std::size_t i = 0; i < period.group_multipliers.size(); ++i) {
        if (i > 0) out += "|";
        append_round_trip(out, period.group_multipliers[i]);
      }
    }
    if (!period.failed_sites.empty()) {
      out += ",fail=";
      for (std::size_t i = 0; i < period.failed_sites.size(); ++i) {
        if (i > 0) out += "|";
        out += std::to_string(period.failed_sites[i]);
      }
    }
  }
  return out;
}

MultiPeriodPlan assemble_multi_period(const ConsolidationInstance& base,
                                      const PlanningHorizon& horizon,
                                      std::vector<Plan> period_plans,
                                      std::string algorithm) {
  if (static_cast<int>(period_plans.size()) != horizon.num_periods()) {
    throw InvalidInputError(
        "assemble_multi_period: plan count does not match horizon");
  }
  MultiPeriodPlan multi;
  multi.algorithm = std::move(algorithm);
  multi.periods = std::move(period_plans);
  for (int t = 0; t < horizon.num_periods(); ++t) {
    const double w = horizon.period_weight(t);
    const CostBreakdown& c =
        multi.periods[static_cast<std::size_t>(t)].cost;
    multi.cost.space += w * c.space;
    multi.cost.power += w * c.power;
    multi.cost.labor += w * c.labor;
    multi.cost.wan += w * c.wan;
    multi.cost.latency_penalty += w * c.latency_penalty;
    multi.cost.backup_capex += w * c.backup_capex;
    multi.cost.migration += w * c.migration;
    if (t == 0) continue;
    const auto& prev = multi.periods[static_cast<std::size_t>(t - 1)].primary;
    const auto& cur = multi.periods[static_cast<std::size_t>(t)].primary;
    for (int i = 0; i < base.num_groups(); ++i) {
      if (prev[static_cast<std::size_t>(i)] ==
          cur[static_cast<std::size_t>(i)]) {
        continue;
      }
      multi.total_moves += 1;
      multi.moved_servers += scaled_servers(
          base.groups[static_cast<std::size_t>(i)].servers,
          horizon.multiplier(t, i));
    }
  }
  multi.cost.migration += horizon.migration_cost_per_server *
                          static_cast<double>(multi.moved_servers);
  return multi;
}

}  // namespace etransform
