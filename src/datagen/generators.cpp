#include "datagen/generators.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace etransform {

namespace {

/// The four §VI-B user regions, placed on a square so geographic distance
/// (used by the manual baseline and VPN pricing) matches latency classes.
std::vector<UserLocation> four_regions() {
  return {
      UserLocation{"region-0", {0.0, 0.0}},
      UserLocation{"region-1", {100.0, 0.0}},
      UserLocation{"region-2", {0.0, 100.0}},
      UserLocation{"region-3", {100.0, 100.0}},
  };
}

}  // namespace

EnterpriseSpec enterprise1_spec(std::uint64_t seed) {
  EnterpriseSpec spec;
  spec.name = "enterprise1";
  spec.num_groups = 190;
  spec.total_servers = 1070;
  spec.num_as_is_centers = 67;
  spec.num_target_sites = 10;
  spec.total_users = 18913.0;
  spec.seed = seed;
  return spec;
}

EnterpriseSpec florida_spec(std::uint64_t seed) {
  EnterpriseSpec spec;
  spec.name = "florida";
  spec.num_groups = 190;
  spec.total_servers = 3907;
  spec.num_as_is_centers = 43;
  spec.num_target_sites = 10;
  // Users scale with the estate (paper reuses enterprise1 distributions).
  spec.total_users = 18913.0 * 3907.0 / 1070.0;
  spec.seed = seed;
  return spec;
}

EnterpriseSpec federal_spec(std::uint64_t seed) {
  EnterpriseSpec spec;
  spec.name = "federal";
  spec.num_groups = 1900;  // 10x enterprise1 (paper §VI-A)
  spec.total_servers = 42800;
  spec.num_as_is_centers = 2094;
  spec.num_target_sites = 100;
  spec.total_users = 18913.0 * 42800.0 / 1070.0;
  spec.seed = seed;
  return spec;
}

ConsolidationInstance make_enterprise(const EnterpriseSpec& spec) {
  if (spec.num_groups <= 0 || spec.total_servers < spec.num_groups ||
      spec.num_as_is_centers <= 0 || spec.num_target_sites <= 0) {
    throw InvalidInputError("make_enterprise: inconsistent spec");
  }
  Rng rng(spec.seed);
  ConsolidationInstance instance;
  instance.name = spec.name;
  instance.locations = four_regions();
  const int num_locations = instance.num_locations();

  // ---- application groups --------------------------------------------------
  // Server counts are heavy-tailed (Fig. 1 shows a complex multi-server
  // group; most groups are small).
  const auto servers = split_total_lognormal(rng, spec.total_servers,
                                             static_cast<std::size_t>(
                                                 spec.num_groups),
                                             0.0, 1.0, 1);
  std::vector<double> user_weights(static_cast<std::size_t>(spec.num_groups));
  for (auto& w : user_weights) w = rng.lognormal(0.0, 0.8);
  double weight_sum = 0.0;
  for (const double w : user_weights) weight_sum += w;

  instance.groups.reserve(static_cast<std::size_t>(spec.num_groups));
  for (int i = 0; i < spec.num_groups; ++i) {
    ApplicationGroup group;
    group.name = spec.name + "-ag" + std::to_string(i);
    group.servers = servers[static_cast<std::size_t>(i)];
    // 100 GB - 1 TB per server per month, in megabits (1 GB = 8000 Mb).
    group.monthly_data_megabits =
        group.servers * rng.uniform(100.0, 1000.0) * 8000.0;
    const double users = spec.total_users *
                         user_weights[static_cast<std::size_t>(i)] /
                         weight_sum;
    group.users_per_location.assign(static_cast<std::size_t>(num_locations),
                                    0.0);
    // §VI-B: half latency-sensitive; sensitive groups fall into 5 classes:
    // all users in one of the 4 regions, or spread evenly over all 4.
    const bool sensitive = (i % 2 == 0);
    const int user_class = static_cast<int>(rng.uniform_int(0, 4));
    if (user_class < 4) {
      group.users_per_location[static_cast<std::size_t>(user_class)] = users;
    } else {
      for (auto& u : group.users_per_location) u = users / num_locations;
    }
    if (sensitive) {
      group.latency_penalty =
          LatencyPenaltyFunction::single_step(10.0, 100.0);
    }
    instance.groups.push_back(std::move(group));
  }

  // ---- target sites --------------------------------------------------------
  // 5 latency classes (§VI-B): close to one region (5 ms there, 20 ms
  // elsewhere) or central (10 ms from everywhere). Costs follow the cited
  // public reports; space/WAN get volume-discount tiers (economies of scale).
  std::vector<int> capacities;
  {
    std::vector<double> raw(static_cast<std::size_t>(spec.num_target_sites));
    double raw_sum = 0.0;
    for (auto& c : raw) {
      c = rng.uniform(100.0, 1000.0);
      raw_sum += c;
    }
    const double scale =
        std::max(1.0, spec.capacity_headroom * spec.total_servers / raw_sum);
    int largest = 0;
    for (const double c : raw) {
      capacities.push_back(static_cast<int>(std::ceil(c * scale)));
      largest = std::max(largest, capacities.back());
    }
    // Every group must fit somewhere: grow the largest site if some group
    // outsizes it.
    int biggest_group = 0;
    for (const auto& g : instance.groups) {
      biggest_group = std::max(biggest_group, g.servers);
    }
    if (largest < biggest_group) {
      capacities[0] = biggest_group;
    }
  }
  for (int j = 0; j < spec.num_target_sites; ++j) {
    DataCenterSite site;
    site.name = spec.name + "-dc" + std::to_string(j);
    site.capacity_servers = capacities[static_cast<std::size_t>(j)];
    const int latency_class = static_cast<int>(rng.uniform_int(0, 4));
    std::vector<double> latency(static_cast<std::size_t>(num_locations));
    if (latency_class < 4) {
      for (int r = 0; r < num_locations; ++r) {
        latency[static_cast<std::size_t>(r)] =
            (r == latency_class) ? 5.0 : 20.0;
      }
      site.position =
          instance.locations[static_cast<std::size_t>(latency_class)].position;
      site.position.x += rng.uniform(-8.0, 8.0);
      site.position.y += rng.uniform(-8.0, 8.0);
    } else {
      for (auto& l : latency) l = 10.0;
      site.position = GeoPoint{50.0 + rng.uniform(-8.0, 8.0),
                               50.0 + rng.uniform(-8.0, 8.0)};
    }
    instance.latency_ms.push_back(std::move(latency));

    // Space: $60-150 /server/month with ~12%-per-tier volume discounts
    // (deep bulk pricing is what makes consolidation order matter).
    const Money space_base = rng.uniform(60.0, 150.0);
    site.space_cost_per_server = StepSchedule::volume_discount(
        space_base, std::max(1.0, site.capacity_servers / 4.0),
        0.12 * space_base, 4);
    // Power: $0.06-0.17 /kWh (EIA state range).
    site.power_cost_per_kwh = StepSchedule::flat(rng.uniform(0.06, 0.17));
    // Labor: $5.5k-8.3k /admin/month (salary survey).
    site.labor_cost_per_admin =
        StepSchedule::flat(rng.uniform(5500.0, 8300.0));
    // WAN: EC2-style $0.08-0.16 /GB => 1e-5..2e-5 $/Mb, with discounts.
    const Money wan_base = rng.uniform(1.0e-5, 2.0e-5);
    site.wan_cost_per_megabit = StepSchedule::volume_discount(
        wan_base, 2.0e8, 0.1 * wan_base, 3);
    instance.sites.push_back(std::move(site));
  }

  // ---- as-is estate ---------------------------------------------------------
  // Small dispersed centers at retail rates (no volume discounts), each near
  // one region (so the as-is state has few latency violations but high
  // cost). Groups are spread over centers with a heavy tail.
  instance.as_is_centers.reserve(
      static_cast<std::size_t>(spec.num_as_is_centers));
  std::vector<int> center_region(static_cast<std::size_t>(
      spec.num_as_is_centers));
  for (int d = 0; d < spec.num_as_is_centers; ++d) {
    AsIsDataCenter center;
    center.name = spec.name + "-asis" + std::to_string(d);
    const int region = static_cast<int>(rng.uniform_int(0, 3));
    center_region[static_cast<std::size_t>(d)] = region;
    center.position =
        instance.locations[static_cast<std::size_t>(region)].position;
    center.position.x += rng.uniform(-15.0, 15.0);
    center.position.y += rng.uniform(-15.0, 15.0);
    // Small server rooms pay steep retail rates (no bulk pricing, dedicated
    // facilities staff) — the cost gap that motivates the transformation.
    center.space_cost_per_server = rng.uniform(190.0, 360.0);
    center.power_cost_per_kwh = rng.uniform(0.11, 0.22);
    center.labor_cost_per_admin = rng.uniform(7500.0, 11000.0);
    center.wan_cost_per_megabit = rng.uniform(2.2e-5, 4.0e-5);
    std::vector<double> latency(static_cast<std::size_t>(num_locations));
    for (int r = 0; r < num_locations; ++r) {
      latency[static_cast<std::size_t>(r)] = (r == region) ? 5.0 : 20.0;
    }
    instance.as_is_latency_ms.push_back(std::move(latency));
    instance.as_is_centers.push_back(std::move(center));
  }
  // Enterprises grew their server rooms next to their users: groups whose
  // users sit in one region live in a center of that region (so the as-is
  // state has few latency violations — its problem is cost, not latency).
  std::vector<double> center_weights(
      static_cast<std::size_t>(spec.num_as_is_centers));
  for (auto& w : center_weights) w = rng.lognormal(0.0, 0.7);
  // Draw weights for a group whose users sit mostly in region r: only that
  // region's centers, or every center when the region has none.
  std::vector<std::vector<double>> region_weights(
      static_cast<std::size_t>(num_locations), center_weights);
  for (int r = 0; r < num_locations; ++r) {
    std::vector<double>& weights = region_weights[static_cast<std::size_t>(r)];
    for (int d = 0; d < spec.num_as_is_centers; ++d) {
      if (center_region[static_cast<std::size_t>(d)] != r) {
        weights[static_cast<std::size_t>(d)] = 0.0;
      }
    }
    double mass = 0.0;
    for (const double w : weights) mass += w;
    if (mass <= 0.0) weights = center_weights;  // no center in region
  }
  instance.as_is_placement.reserve(static_cast<std::size_t>(spec.num_groups));
  for (int i = 0; i < spec.num_groups; ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    // Dominant user region, or -1 when users are spread evenly.
    int dominant = -1;
    for (int r = 0; r < num_locations; ++r) {
      if (group.users_per_location[static_cast<std::size_t>(r)] >
          0.5 * group.total_users()) {
        dominant = r;
      }
    }
    const auto d = rng.weighted_index(
        dominant >= 0 ? region_weights[static_cast<std::size_t>(dominant)]
                      : center_weights);
    instance.as_is_placement.push_back(static_cast<int>(d));
    instance.as_is_centers[d].servers +=
        instance.groups[static_cast<std::size_t>(i)].servers;
  }

  validate_instance(instance);
  return instance;
}

ConsolidationInstance make_enterprise1(std::uint64_t seed) {
  return make_enterprise(enterprise1_spec(seed));
}
ConsolidationInstance make_florida(std::uint64_t seed) {
  return make_enterprise(florida_spec(seed));
}
ConsolidationInstance make_federal(std::uint64_t seed) {
  return make_enterprise(federal_spec(seed));
}

ConsolidationInstance make_latency_line(const LatencyLineSpec& spec) {
  if (spec.num_sites < 2 || spec.num_groups <= 0 ||
      spec.total_servers < spec.num_groups) {
    throw InvalidInputError("make_latency_line: inconsistent spec");
  }
  Rng rng(spec.seed);
  ConsolidationInstance instance;
  instance.name = "latency-line";
  const double span = spec.latency_step_ms * (spec.num_sites - 1);
  instance.locations = {
      UserLocation{"near", {0.0, 0.0}},
      UserLocation{"far", {span, 0.0}},
  };

  const auto servers = split_total_lognormal(
      rng, spec.total_servers, static_cast<std::size_t>(spec.num_groups), 0.0,
      1.0, 1);
  for (int i = 0; i < spec.num_groups; ++i) {
    ApplicationGroup group;
    group.name = "ag" + std::to_string(i);
    group.servers = servers[static_cast<std::size_t>(i)];
    group.monthly_data_megabits = 0.0;  // isolates space vs latency
    group.users_per_location = {
        spec.users_per_group * spec.fraction_users_near,
        spec.users_per_group * (1.0 - spec.fraction_users_near)};
    if (spec.penalty_per_user > 0.0) {
      group.latency_penalty = LatencyPenaltyFunction::single_step(
          spec.threshold_ms, spec.penalty_per_user);
    }
    instance.groups.push_back(std::move(group));
  }

  const int capacity = spec.site_capacity > 0
                           ? spec.site_capacity
                           : 2 * spec.total_servers + 1;
  for (int k = 0; k < spec.num_sites; ++k) {
    DataCenterSite site;
    site.name = "location-" + std::to_string(k);
    site.position = GeoPoint{spec.latency_step_ms * k, 0.0};
    site.capacity_servers = capacity;
    site.space_cost_per_server =
        StepSchedule::flat(spec.space_base + spec.space_step * k);
    site.power_cost_per_kwh = StepSchedule::flat(0.0);
    site.labor_cost_per_admin = StepSchedule::flat(0.0);
    site.wan_cost_per_megabit = StepSchedule::flat(0.0);
    instance.sites.push_back(std::move(site));
    instance.latency_ms.push_back(
        {spec.base_latency_ms + spec.latency_step_ms * k,
         spec.base_latency_ms +
             spec.latency_step_ms * (spec.num_sites - 1 - k)});
  }
  instance.params.dr_server_cost = spec.dr_server_cost;

  // A minimal as-is state (one mid-line center) so the instance is complete.
  AsIsDataCenter center;
  center.name = "asis-0";
  center.position = GeoPoint{span / 2.0, 0.0};
  center.servers = spec.total_servers;
  center.space_cost_per_server = spec.space_base * 2.0;
  instance.as_is_centers.push_back(center);
  instance.as_is_placement.assign(static_cast<std::size_t>(spec.num_groups),
                                  0);
  instance.as_is_latency_ms.push_back({span / 2.0, span / 2.0});

  validate_instance(instance);
  return instance;
}

ConsolidationInstance make_vpn_tradeoff(const VpnTradeoffSpec& spec) {
  if (spec.num_sites < 2 || spec.num_groups < 0 ||
      spec.servers_per_group <= 0 || spec.site_capacity <= 0) {
    throw InvalidInputError("make_vpn_tradeoff: inconsistent spec");
  }
  ConsolidationInstance instance;
  instance.name = "vpn-tradeoff";
  const double span = 10.0 * (spec.num_sites - 1);
  instance.locations = {UserLocation{"users", {span, 0.0}}};
  instance.use_vpn_links = true;
  instance.params.vpn_link_capacity_megabits =
      spec.vpn_link_capacity_megabits;

  for (int i = 0; i < spec.num_groups; ++i) {
    ApplicationGroup group;
    group.name = "ag" + std::to_string(i);
    group.servers = spec.servers_per_group;
    group.monthly_data_megabits = spec.data_per_group_megabits;
    group.users_per_location = {1.0};
    instance.groups.push_back(std::move(group));
  }

  for (int k = 0; k < spec.num_sites; ++k) {
    DataCenterSite site;
    site.name = "location-" + std::to_string(k);
    site.position = GeoPoint{10.0 * k, 0.0};
    site.capacity_servers = spec.site_capacity;
    site.space_cost_per_server =
        StepSchedule::flat(spec.space_base * std::pow(spec.space_ratio, k));
    site.power_cost_per_kwh = StepSchedule::flat(0.0);
    site.labor_cost_per_admin = StepSchedule::flat(0.0);
    site.wan_cost_per_megabit = StepSchedule::flat(0.0);
    instance.sites.push_back(std::move(site));
    instance.latency_ms.push_back({1.0 + (spec.num_sites - 1 - k)});
    instance.vpn_link_monthly_cost.push_back(
        {spec.vpn_base *
         std::pow(spec.vpn_ratio, spec.num_sites - 1 - k)});
  }

  if (spec.num_groups > 0) {
    AsIsDataCenter center;
    center.name = "asis-0";
    center.position = GeoPoint{span, 0.0};
    center.servers = spec.num_groups * spec.servers_per_group;
    center.space_cost_per_server = spec.space_base * 4.0;
    instance.as_is_centers.push_back(center);
    instance.as_is_placement.assign(static_cast<std::size_t>(spec.num_groups),
                                    0);
    instance.as_is_latency_ms.push_back({1.0});
    validate_instance(instance);
  }
  return instance;
}

ConsolidationInstance make_random_instance(Rng& rng, int groups, int sites,
                                           int locations) {
  if (groups <= 0 || sites < 2 || locations <= 0) {
    throw InvalidInputError("make_random_instance: inconsistent shape");
  }
  ConsolidationInstance instance;
  instance.name = "random";
  for (int r = 0; r < locations; ++r) {
    instance.locations.push_back(UserLocation{
        "loc" + std::to_string(r),
        {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)}});
  }
  long long total_servers = 0;
  for (int i = 0; i < groups; ++i) {
    ApplicationGroup group;
    group.name = "ag" + std::to_string(i);
    group.servers = static_cast<int>(rng.uniform_int(1, 8));
    total_servers += group.servers;
    group.monthly_data_megabits = rng.uniform(0.0, 1.0e6);
    group.users_per_location.assign(static_cast<std::size_t>(locations), 0.0);
    for (auto& u : group.users_per_location) u = rng.uniform(0.0, 50.0);
    if (rng.uniform() < 0.5) {
      group.latency_penalty = LatencyPenaltyFunction::single_step(
          rng.uniform(5.0, 15.0), rng.uniform(10.0, 200.0));
    }
    instance.groups.push_back(std::move(group));
  }
  // Capacity: dedicated-DR headroom so every baseline stays feasible.
  const long long per_site =
      (3 * total_servers + sites - 1) / sites + 8;
  for (int j = 0; j < sites; ++j) {
    DataCenterSite site;
    site.name = "dc" + std::to_string(j);
    site.position = GeoPoint{rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)};
    site.capacity_servers = static_cast<int>(per_site);
    const Money space = rng.uniform(40.0, 200.0);
    site.space_cost_per_server = rng.uniform() < 0.5
                                     ? StepSchedule::flat(space)
                                     : StepSchedule::volume_discount(
                                           space, per_site / 3.0,
                                           0.1 * space, 3);
    site.power_cost_per_kwh = StepSchedule::flat(rng.uniform(0.05, 0.2));
    site.labor_cost_per_admin =
        StepSchedule::flat(rng.uniform(5000.0, 9000.0));
    site.wan_cost_per_megabit = StepSchedule::flat(rng.uniform(0.0, 3e-5));
    instance.sites.push_back(std::move(site));
    std::vector<double> latency(static_cast<std::size_t>(locations));
    for (auto& l : latency) l = rng.uniform(2.0, 30.0);
    instance.latency_ms.push_back(std::move(latency));
  }
  // As-is: a couple of expensive centers.
  const int centers = 2 + static_cast<int>(rng.uniform_int(0, 2));
  for (int d = 0; d < centers; ++d) {
    AsIsDataCenter center;
    center.name = "asis" + std::to_string(d);
    center.position = GeoPoint{rng.uniform(0.0, 100.0),
                               rng.uniform(0.0, 100.0)};
    center.space_cost_per_server = rng.uniform(150.0, 300.0);
    center.power_cost_per_kwh = rng.uniform(0.08, 0.2);
    center.labor_cost_per_admin = rng.uniform(6000.0, 10000.0);
    center.wan_cost_per_megabit = rng.uniform(1e-5, 4e-5);
    instance.as_is_centers.push_back(center);
    std::vector<double> latency(static_cast<std::size_t>(locations));
    for (auto& l : latency) l = rng.uniform(2.0, 30.0);
    instance.as_is_latency_ms.push_back(std::move(latency));
  }
  for (int i = 0; i < groups; ++i) {
    const int d = static_cast<int>(rng.uniform_int(0, centers - 1));
    instance.as_is_placement.push_back(d);
    instance.as_is_centers[static_cast<std::size_t>(d)].servers +=
        instance.groups[static_cast<std::size_t>(i)].servers;
  }
  validate_instance(instance);
  return instance;
}

PlanningHorizon make_traffic_curve(const TrafficCurveSpec& spec) {
  if (spec.num_periods <= 0 || spec.num_periods > kMaxHorizonPeriods) {
    throw InvalidInputError("make_traffic_curve: num_periods out of range");
  }
  if (!(spec.peak_multiplier > 0.0) || !(spec.trough_multiplier > 0.0) ||
      spec.trough_multiplier > spec.peak_multiplier) {
    throw InvalidInputError(
        "make_traffic_curve: need 0 < trough_multiplier <= peak_multiplier");
  }
  if (spec.antiphase_fraction < 0.0 || spec.antiphase_fraction > 1.0 ||
      (spec.antiphase_fraction > 0.0 && spec.num_groups <= 0)) {
    throw InvalidInputError(
        "make_traffic_curve: antiphase_fraction needs [0,1] and num_groups");
  }
  const int T = spec.num_periods;
  const double amplitude = spec.peak_multiplier - spec.trough_multiplier;
  // Cycle position in [0, 1]: 0 at the trough, 1 at the peak.
  const auto cycle = [&](int t) {
    const double phase = static_cast<double>(t % T) / static_cast<double>(T);
    if (spec.shape == TrafficCurveSpec::Shape::kSeasonal) {
      return 1.0 - std::abs(2.0 * phase - 1.0);
    }
    return 0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 * phase));
  };
  const auto multiplier_at = [&](int t) {
    return spec.trough_multiplier + amplitude * cycle(t);
  };

  std::vector<bool> antiphase(static_cast<std::size_t>(
                                  spec.num_groups > 0 ? spec.num_groups : 0),
                              false);
  if (spec.antiphase_fraction > 0.0) {
    Rng rng(spec.seed);
    for (std::size_t i = 0; i < antiphase.size(); ++i) {
      antiphase[i] = rng.uniform() < spec.antiphase_fraction;
    }
  }

  PlanningHorizon horizon;
  horizon.migration_cost_per_server = spec.migration_cost_per_server;
  horizon.periods.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    DemandPeriod period;
    period.name = "t" + std::to_string(t);
    period.weight = spec.period_weight;
    period.multiplier = multiplier_at(t);
    if (spec.antiphase_fraction > 0.0) {
      period.group_multipliers.resize(
          static_cast<std::size_t>(spec.num_groups));
      const double shifted = multiplier_at(t + T / 2);
      for (std::size_t i = 0; i < period.group_multipliers.size(); ++i) {
        period.group_multipliers[i] =
            antiphase[i] ? shifted : period.multiplier;
      }
    }
    horizon.periods.push_back(std::move(period));
  }
  return horizon;
}

void add_failure_period(PlanningHorizon& horizon,
                        std::vector<int> failed_sites, double multiplier,
                        double weight) {
  DemandPeriod period;
  period.name = "fail" + std::to_string(horizon.periods.size());
  const bool all_zero_weights =
      std::all_of(horizon.periods.begin(), horizon.periods.end(),
                  [](const DemandPeriod& p) { return p.weight == 0.0; });
  period.weight =
      (!horizon.periods.empty() && all_zero_weights) ? 0.0 : weight;
  period.multiplier = multiplier;
  period.failed_sites = std::move(failed_sites);
  horizon.periods.push_back(std::move(period));
}

ConsolidationInstance make_rightsizing_estate(
    const RightsizingEstateSpec& spec) {
  if (spec.num_groups <= 0 || spec.servers_per_group <= 0 ||
      spec.site_capacities.empty() ||
      spec.site_capacities.size() != spec.site_space_costs.size()) {
    throw InvalidInputError("make_rightsizing_estate: inconsistent spec");
  }
  ConsolidationInstance instance;
  instance.name = "rightsizing-estate";
  instance.locations = {UserLocation{"users", {0.0, 0.0}}};

  for (int i = 0; i < spec.num_groups; ++i) {
    ApplicationGroup group;
    group.name = "ag" + std::to_string(i);
    group.servers = spec.servers_per_group;
    group.monthly_data_megabits = 0.0;  // isolates the space-cost tradeoff
    group.users_per_location = {1.0};
    instance.groups.push_back(std::move(group));
  }

  for (std::size_t k = 0; k < spec.site_capacities.size(); ++k) {
    DataCenterSite site;
    site.name = "site-" + std::to_string(k);
    site.position = GeoPoint{10.0 * static_cast<double>(k), 0.0};
    site.capacity_servers = spec.site_capacities[k];
    site.space_cost_per_server = StepSchedule::flat(spec.site_space_costs[k]);
    site.power_cost_per_kwh = StepSchedule::flat(0.0);
    site.labor_cost_per_admin = StepSchedule::flat(0.0);
    site.wan_cost_per_megabit = StepSchedule::flat(0.0);
    instance.sites.push_back(std::move(site));
    instance.latency_ms.push_back({5.0});
  }

  AsIsDataCenter center;
  center.name = "asis-0";
  center.position = GeoPoint{0.0, 0.0};
  center.servers = spec.num_groups * spec.servers_per_group;
  center.space_cost_per_server = 10.0;
  instance.as_is_centers.push_back(center);
  instance.as_is_placement.assign(static_cast<std::size_t>(spec.num_groups),
                                  0);
  instance.as_is_latency_ms.push_back({5.0});

  validate_instance(instance);
  return instance;
}

}  // namespace etransform
