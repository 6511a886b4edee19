// Tests for the cost model: coefficient algebra, volume discounts in plan
// pricing, VPN-link WAN, DR pricing, as-is pricing, marginal costs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.h"
#include "cost/cost_model.h"
#include "datagen/generators.h"

namespace etransform {
namespace {

ConsolidationInstance base_instance() {
  ConsolidationInstance instance;
  instance.name = "cost-test";
  instance.locations = {UserLocation{"l0", {0, 0}},
                        UserLocation{"l1", {100, 0}}};
  ApplicationGroup a;
  a.name = "a";
  a.servers = 2;
  a.monthly_data_megabits = 1.0e6;
  a.users_per_location = {30.0, 10.0};
  a.latency_penalty = LatencyPenaltyFunction::single_step(10.0, 100.0);
  ApplicationGroup b;
  b.name = "b";
  b.servers = 4;
  b.monthly_data_megabits = 2.0e6;
  b.users_per_location = {0.0, 20.0};
  instance.groups = {a, b};

  DataCenterSite near_site;
  near_site.name = "near";
  near_site.capacity_servers = 100;
  near_site.space_cost_per_server = StepSchedule::flat(100.0);
  near_site.power_cost_per_kwh = StepSchedule::flat(0.1);
  near_site.labor_cost_per_admin = StepSchedule::flat(6500.0);
  near_site.wan_cost_per_megabit = StepSchedule::flat(1.0e-5);
  DataCenterSite far_site = near_site;
  far_site.name = "far";
  far_site.space_cost_per_server = StepSchedule::flat(60.0);
  instance.sites = {near_site, far_site};
  instance.latency_ms = {{5.0, 20.0}, {20.0, 5.0}};

  AsIsDataCenter center;
  center.name = "old";
  center.servers = 6;
  center.space_cost_per_server = 200.0;
  center.power_cost_per_kwh = 0.12;
  center.labor_cost_per_admin = 7800.0;
  center.wan_cost_per_megabit = 2.0e-5;
  instance.as_is_centers = {center};
  instance.as_is_placement = {0, 0};
  instance.as_is_latency_ms = {{6.0, 25.0}};

  instance.params.server_power_kw = 0.4;
  instance.params.servers_per_admin = 130.0;
  instance.params.hours_per_month = 730.0;
  return instance;
}

TEST(CostModel, AverageLatencyIsUserWeighted) {
  const auto instance = base_instance();
  const CostModel model(instance);
  // Group a at "near": (30*5 + 10*20) / 40 = 8.75 ms.
  EXPECT_NEAR(model.average_latency(0, 0), 8.75, 1e-12);
  // Group a at "far": (30*20 + 10*5) / 40 = 16.25 ms.
  EXPECT_NEAR(model.average_latency(0, 1), 16.25, 1e-12);
  // Group b (all users at l1) at "far": 5 ms.
  EXPECT_NEAR(model.average_latency(1, 1), 5.0, 1e-12);
}

TEST(CostModel, LatencyPenaltyAppliesBeyondThreshold) {
  const auto instance = base_instance();
  const CostModel model(instance);
  EXPECT_DOUBLE_EQ(model.latency_penalty(0, 0), 0.0);  // 8.75 <= 10
  EXPECT_DOUBLE_EQ(model.latency_penalty(0, 1), 40.0 * 100.0);
  EXPECT_FALSE(model.latency_violated(0, 0));
  EXPECT_TRUE(model.latency_violated(0, 1));
  // Group b is insensitive everywhere.
  EXPECT_DOUBLE_EQ(model.latency_penalty(1, 0), 0.0);
  EXPECT_FALSE(model.latency_violated(1, 0));
}

TEST(CostModel, AssignmentCostCombinesComponents) {
  const auto instance = base_instance();
  const CostModel model(instance);
  // Group b at far: 4 * (60 + 0.1*0.4*730 + 6500/130) + 2e6 * 1e-5 + 0.
  const double expected = 4 * (60.0 + 29.2 + 50.0) + 20.0;
  EXPECT_NEAR(model.assignment_cost(1, 1), expected, 1e-9);
}

TEST(CostModel, SiteCostAppliesVolumeDiscounts) {
  auto instance = base_instance();
  instance.sites[0].space_cost_per_server =
      StepSchedule::volume_discount(100.0, 3.0, 20.0, 3);
  const CostModel model(instance);
  // 2 servers: first tier, $100 each.
  EXPECT_NEAR(model.site_cost(0, 2, 0.0).space, 200.0, 1e-9);
  // 6 servers: second tier, $80 each (applies to all units).
  EXPECT_NEAR(model.site_cost(0, 6, 0.0).space, 480.0, 1e-9);
  EXPECT_THROW((void)model.site_cost(0, -1, 0.0), InvalidInputError);
  EXPECT_THROW((void)model.site_cost(5, 1, 0.0), InvalidInputError);
}

TEST(CostModel, PricePlanMatchesHandComputation) {
  const auto instance = base_instance();
  const CostModel model(instance);
  Plan plan;
  plan.primary = {0, 1};
  model.price_plan(plan);
  // Site near: 2 servers. Site far: 4 servers.
  const double space = 2 * 100.0 + 4 * 60.0;
  const double power = 6 * 0.4 * 730 * 0.1;
  const double labor = 6 / 130.0 * 6500.0;
  const double wan = 1.0e6 * 1e-5 + 2.0e6 * 1e-5;
  EXPECT_NEAR(plan.cost.space, space, 1e-9);
  EXPECT_NEAR(plan.cost.power, power, 1e-9);
  EXPECT_NEAR(plan.cost.labor, labor, 1e-9);
  EXPECT_NEAR(plan.cost.wan, wan, 1e-9);
  EXPECT_DOUBLE_EQ(plan.cost.latency_penalty, 0.0);
  EXPECT_EQ(plan.latency_violations, 0);
}

TEST(CostModel, PricePlanCountsViolations) {
  const auto instance = base_instance();
  const CostModel model(instance);
  Plan plan;
  plan.primary = {1, 1};  // group a far from its users
  model.price_plan(plan);
  EXPECT_EQ(plan.latency_violations, 1);
  EXPECT_DOUBLE_EQ(plan.cost.latency_penalty, 4000.0);
}

TEST(CostModel, DrPlanAddsBackupCosts) {
  const auto instance = base_instance();
  const CostModel model(instance);
  Plan plan;
  plan.primary = {0, 1};
  plan.secondary = {1, 0};
  plan.backup_servers = {4, 2};
  model.price_plan(plan);
  // Backups join the server aggregates: near 2+4, far 4+2.
  EXPECT_NEAR(plan.cost.space, 6 * 100.0 + 6 * 60.0, 1e-9);
  // Replication doubles the WAN bytes (each group's data at both sites).
  EXPECT_NEAR(plan.cost.wan, 2 * (1.0e6 + 2.0e6) * 1e-5, 1e-9);
  EXPECT_NEAR(plan.cost.backup_capex, 6 * 1000.0, 1e-9);
  // Group a's secondary is "far": one violation and its penalty.
  EXPECT_EQ(plan.latency_violations, 1);
  EXPECT_DOUBLE_EQ(plan.cost.latency_penalty, 4000.0);
}

TEST(CostModel, VpnModeUsesLinkFormula) {
  auto instance = base_instance();
  instance.use_vpn_links = true;
  instance.params.vpn_link_capacity_megabits = 1.0e5;
  instance.vpn_link_monthly_cost = {{100.0, 400.0}, {400.0, 100.0}};
  const CostModel model(instance);
  // Group a at site 0: share l0 = 0.75, l1 = 0.25, data 1e6 => links
  // 7.5 and 2.5 => 7.5*100 + 2.5*400 = 1750.
  EXPECT_NEAR(model.wan_cost(0, 0), 1750.0, 1e-9);
  // Flat-WAN aggregate must not also be charged in VPN mode.
  Plan plan;
  plan.primary = {0, 1};
  model.price_plan(plan);
  const double wan_b_at_far = (20.0 / 20.0) * 2.0e6 / 1.0e5 * 100.0;
  EXPECT_NEAR(plan.cost.wan, 1750.0 + wan_b_at_far, 1e-9);
}

TEST(CostModel, MarginalCostMatchesSiteCostDelta) {
  auto instance = base_instance();
  instance.sites[0].space_cost_per_server =
      StepSchedule::volume_discount(100.0, 3.0, 20.0, 3);
  const CostModel model(instance);
  const Money before = model.site_cost(0, 2, 5.0e5).total();
  const Money after = model.site_cost(0, 6, 2.5e6).total();
  EXPECT_NEAR(model.marginal_cost(1, 0, 2, 5.0e5),
              after - before + model.latency_penalty(1, 0), 1e-9);
}

TEST(CostModel, AsIsCostUsesCenterRates) {
  const auto instance = base_instance();
  const CostModel model(instance);
  const CostBreakdown cost = model.as_is_cost();
  EXPECT_NEAR(cost.space, 6 * 200.0, 1e-9);
  EXPECT_NEAR(cost.power, 6 * 0.4 * 730 * 0.12, 1e-9);
  EXPECT_NEAR(cost.labor, 6 / 130.0 * 7800.0, 1e-9);
  EXPECT_NEAR(cost.wan, 3.0e6 * 2.0e-5, 1e-9);
  // As-is latency for group a: (30*6 + 10*25)/40 = 10.75 > 10 -> penalty.
  EXPECT_DOUBLE_EQ(cost.latency_penalty, 4000.0);
  EXPECT_EQ(model.as_is_latency_violations(), 1);
}

TEST(CostModel, RejectsMalformedPlans) {
  const auto instance = base_instance();
  const CostModel model(instance);
  Plan plan;
  plan.primary = {0};
  EXPECT_THROW(model.price_plan(plan), InvalidInputError);
  plan.primary = {0, 9};
  EXPECT_THROW(model.price_plan(plan), InvalidInputError);
  plan.primary = {0, 1};
  plan.secondary = {1, 0};
  EXPECT_THROW(model.price_plan(plan), InvalidInputError);  // missing backups
}

TEST(CostModel, IndexChecksThrow) {
  const auto instance = base_instance();
  const CostModel model(instance);
  EXPECT_THROW((void)model.average_latency(-1, 0), InvalidInputError);
  EXPECT_THROW((void)model.latency_penalty(0, 2), InvalidInputError);
  EXPECT_THROW((void)model.placement_cost(0, 2), InvalidInputError);
  EXPECT_THROW((void)model.placement_cost(-1, 0), InvalidInputError);
  EXPECT_THROW((void)model.placement_cost(2, 0), InvalidInputError);
  EXPECT_THROW((void)model.placement_cost_row(-1), InvalidInputError);
  EXPECT_THROW((void)model.placement_cost_row(2), InvalidInputError);
}

TEST(CostModel, PlacementCostTableIsLatencyPlusVpnWanToTheBit) {
  auto instance = make_enterprise1();
  for (const bool vpn : {false, true}) {
    if (vpn) {
      // Distance-priced dedicated links, so every (group, site) pays a
      // different VPN term.
      instance.use_vpn_links = true;
      instance.vpn_link_monthly_cost.clear();
      for (const auto& site : instance.sites) {
        std::vector<Money> row;
        for (const auto& location : instance.locations) {
          row.push_back(25.0 + 0.37 * distance(site.position,
                                               location.position));
        }
        instance.vpn_link_monthly_cost.push_back(row);
      }
    }
    const CostModel model(instance);
    int penalized = 0;
    for (int i = 0; i < instance.num_groups(); ++i) {
      const auto row = model.placement_cost_row(i);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(instance.num_sites()));
      for (int j = 0; j < instance.num_sites(); ++j) {
        Money expected = model.latency_penalty(i, j);
        if (vpn) expected += model.wan_cost(i, j);
        penalized += model.latency_penalty(i, j) > 0.0 ? 1 : 0;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(model.placement_cost(i, j)),
                  std::bit_cast<std::uint64_t>(expected))
            << "vpn=" << vpn << " i=" << i << " j=" << j;
        const Money from_row = row[static_cast<std::size_t>(j)];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(from_row),
                  std::bit_cast<std::uint64_t>(expected));
      }
    }
    EXPECT_GT(penalized, 0);  // the latency term is exercised
    EXPECT_GT(model.wan_cost(0, 0), 0.0);
  }
}

}  // namespace
}  // namespace etransform
