// Tests for the domain model: step schedules, latency penalty functions,
// instance validation, plan checking, and the DR backup sharing law.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "model/cost_schedule.h"
#include "model/entities.h"
#include "model/latency.h"
#include "model/plan.h"

namespace etransform {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StepSchedule, FlatScheduleIsConstant) {
  const auto schedule = StepSchedule::flat(5.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(0.0), 5.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(1e9), 5.0);
  EXPECT_DOUBLE_EQ(schedule.total_cost(10.0), 50.0);
  EXPECT_TRUE(schedule.is_flat());
}

TEST(StepSchedule, VolumeDiscountStepsDown) {
  // $100 base, 8-unit tiers, $10 off per tier, 3 tiers.
  const auto schedule = StepSchedule::volume_discount(100.0, 8.0, 10.0, 3);
  EXPECT_DOUBLE_EQ(schedule.unit_price(1.0), 100.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(8.0), 100.0);   // boundary inclusive
  EXPECT_DOUBLE_EQ(schedule.unit_price(8.5), 90.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(16.5), 80.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(1e6), 80.0);    // last tier infinite
  EXPECT_FALSE(schedule.is_flat());
  // Paper semantics: the discounted price applies to all units.
  EXPECT_DOUBLE_EQ(schedule.total_cost(20.0), 20.0 * 80.0);
}

TEST(StepSchedule, PricesFloorAtZero) {
  const auto schedule = StepSchedule::volume_discount(10.0, 5.0, 8.0, 4);
  EXPECT_DOUBLE_EQ(schedule.unit_price(6.0), 2.0);
  EXPECT_DOUBLE_EQ(schedule.unit_price(11.0), 0.0);
}

TEST(StepSchedule, ExplicitTiersExtendToInfinity) {
  const StepSchedule schedule({{10.0, 4.0}, {20.0, 3.0}});
  EXPECT_DOUBLE_EQ(schedule.unit_price(25.0), 3.0);
  EXPECT_EQ(schedule.tiers().size(), 3u);  // synthetic infinite tail
  EXPECT_TRUE(std::isinf(schedule.tiers().back().upto));
}

TEST(StepSchedule, RejectsInvalidTiers) {
  EXPECT_THROW(StepSchedule({}), InvalidInputError);
  EXPECT_THROW(StepSchedule({{10.0, 1.0}, {5.0, 0.5}}), InvalidInputError);
  EXPECT_THROW(StepSchedule({{10.0, -1.0}}), InvalidInputError);
  EXPECT_THROW(StepSchedule::volume_discount(10.0, 0.0, 1.0, 2),
               InvalidInputError);
  EXPECT_THROW(StepSchedule::volume_discount(10.0, 5.0, 1.0, 0),
               InvalidInputError);
  const auto schedule = StepSchedule::flat(1.0);
  EXPECT_THROW((void)schedule.unit_price(-1.0), InvalidInputError);
}

TEST(LatencyPenalty, DefaultIsInsensitive) {
  const LatencyPenaltyFunction penalty;
  EXPECT_TRUE(penalty.is_insensitive());
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(1000.0), 0.0);
  EXPECT_FALSE(penalty.violated_at(1000.0));
}

TEST(LatencyPenalty, SingleStepMatchesPaperExample) {
  // $100 per user if average latency exceeds 10 ms.
  const auto penalty = LatencyPenaltyFunction::single_step(10.0, 100.0);
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(10.0), 0.0);  // not exceeded
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(10.1), 100.0);
  EXPECT_TRUE(penalty.violated_at(11.0));
  EXPECT_FALSE(penalty.violated_at(9.0));
}

TEST(LatencyPenalty, MultiStepEscalates) {
  const LatencyPenaltyFunction penalty({{10.0, 50.0}, {50.0, 200.0}});
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(5.0), 0.0);
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(20.0), 50.0);
  EXPECT_DOUBLE_EQ(penalty.penalty_per_user(60.0), 200.0);
}

TEST(LatencyPenalty, RejectsBadSteps) {
  EXPECT_THROW(LatencyPenaltyFunction({{10.0, 50.0}, {10.0, 60.0}}),
               InvalidInputError);
  EXPECT_THROW(LatencyPenaltyFunction({{10.0, 50.0}, {20.0, 40.0}}),
               InvalidInputError);
  EXPECT_THROW(LatencyPenaltyFunction({{-1.0, 50.0}}), InvalidInputError);
}

TEST(WeightedAverageLatency, WeightsByUsers) {
  EXPECT_DOUBLE_EQ(weighted_average_latency({10.0, 30.0}, {3.0, 1.0}), 15.0);
  EXPECT_DOUBLE_EQ(weighted_average_latency({10.0, 30.0}, {0.0, 0.0}), 0.0);
  EXPECT_THROW((void)weighted_average_latency({10.0}, {1.0, 2.0}),
               InvalidInputError);
  EXPECT_THROW((void)weighted_average_latency({10.0}, {-1.0}),
               InvalidInputError);
}

// ---- instance fixtures -----------------------------------------------------

ConsolidationInstance tiny_instance() {
  ConsolidationInstance instance;
  instance.name = "tiny";
  instance.locations = {UserLocation{"l0", {0, 0}}, UserLocation{"l1", {10, 0}}};
  for (int i = 0; i < 3; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = i + 1;
    group.monthly_data_megabits = 1000.0;
    group.users_per_location = {10.0, 5.0};
    instance.groups.push_back(group);
  }
  for (int j = 0; j < 2; ++j) {
    DataCenterSite site;
    site.name = "dc" + std::to_string(j);
    site.capacity_servers = 20;
    site.space_cost_per_server = StepSchedule::flat(100.0);
    site.power_cost_per_kwh = StepSchedule::flat(0.1);
    site.labor_cost_per_admin = StepSchedule::flat(6000.0);
    site.wan_cost_per_megabit = StepSchedule::flat(1e-5);
    instance.sites.push_back(site);
    instance.latency_ms.push_back({5.0, 20.0});
  }
  AsIsDataCenter center;
  center.name = "old";
  center.servers = 6;
  center.space_cost_per_server = 200.0;
  center.power_cost_per_kwh = 0.15;
  center.labor_cost_per_admin = 8000.0;
  center.wan_cost_per_megabit = 2e-5;
  instance.as_is_centers.push_back(center);
  instance.as_is_placement = {0, 0, 0};
  instance.as_is_latency_ms.push_back({8.0, 8.0});
  return instance;
}

TEST(ValidateInstance, AcceptsConsistentInstance) {
  EXPECT_NO_THROW(validate_instance(tiny_instance()));
}

TEST(ValidateInstance, RejectsShapeErrors) {
  {
    auto instance = tiny_instance();
    instance.groups[0].users_per_location = {1.0};  // wrong arity
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
  {
    auto instance = tiny_instance();
    instance.latency_ms.pop_back();
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
  {
    auto instance = tiny_instance();
    instance.groups[1].servers = 0;
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
  {
    auto instance = tiny_instance();
    instance.as_is_placement = {0, 0, 7};
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
  {
    auto instance = tiny_instance();
    instance.groups[0].pinned_site = 9;
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
  {
    auto instance = tiny_instance();
    instance.separations.push_back({0, 0});
    EXPECT_THROW(validate_instance(instance), InvalidInputError);
  }
}

// NaN and both infinities, each of which must fail validation.
const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf};

/// Sets one number of a valid instance to each non-finite value in turn and
/// expects validation to reject it.
template <typename Mutate>
void expect_non_finite_rejected(ConsolidationInstance base, Mutate mutate) {
  ASSERT_NO_THROW(validate_instance(base));
  for (const double bad : kNonFinite) {
    auto instance = base;
    mutate(instance, bad);
    EXPECT_THROW(validate_instance(instance), InvalidInputError) << bad;
  }
}

TEST(ValidateInstance, RejectsNonFiniteLocationCoordinate) {
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.locations[1].position.x = v;
  });
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.locations[0].position.y = v;
  });
}

TEST(ValidateInstance, RejectsNonFiniteSiteCoordinate) {
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.sites[0].position.x = v;
  });
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.sites[1].position.y = v;
  });
}

TEST(ValidateInstance, RejectsNonFiniteDataVolume) {
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.groups[2].monthly_data_megabits = v;
  });
}

TEST(ValidateInstance, RejectsNonFiniteUserCount) {
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.groups[1].users_per_location[1] = v;
  });
}

TEST(ValidateInstance, RejectsNonFiniteLatency) {
  expect_non_finite_rejected(tiny_instance(), [](auto& in, double v) {
    in.latency_ms[1][0] = v;
  });
}

TEST(ValidateInstance, RejectsNonFiniteVpnLinkCost) {
  auto vpn = tiny_instance();
  vpn.use_vpn_links = true;
  vpn.vpn_link_monthly_cost = {{40.0, 60.0}, {50.0, 30.0}};
  expect_non_finite_rejected(vpn, [](auto& in, double v) {
    in.vpn_link_monthly_cost[0][1] = v;
  });
}

TEST(ValidateInstance, RejectsCapacityShortfall) {
  auto instance = tiny_instance();
  for (auto& site : instance.sites) site.capacity_servers = 2;
  EXPECT_THROW(validate_instance(instance), InfeasibleError);
}

TEST(ValidateInstance, RejectsGroupThatFitsNowhereAllowed) {
  auto instance = tiny_instance();
  instance.groups[2].allowed_sites = {1};
  instance.sites[1].capacity_servers = 2;  // group 2 needs 3 servers
  instance.sites[0].capacity_servers = 50;
  EXPECT_THROW(validate_instance(instance), InfeasibleError);
}

TEST(RequiredBackupServers, ImplementsSharingLaw) {
  auto instance = tiny_instance();
  instance.sites.push_back(instance.sites[0]);
  instance.sites[2].name = "dc2";
  instance.latency_ms.push_back({10.0, 10.0});
  // Groups 0 (1 server) and 1 (2 servers) primary at dc0; group 2 (3
  // servers) primary at dc1. All back up at dc2.
  const auto backups =
      required_backup_servers(instance, {0, 0, 1}, {2, 2, 2});
  // dc2 must cover max(loss of dc0, loss of dc1) = max(1+2, 3) = 3.
  EXPECT_EQ(backups[2], 3);
  EXPECT_EQ(backups[0], 0);
  EXPECT_EQ(backups[1], 0);
}

TEST(RequiredBackupServers, SplitBackupsShrinkEachSite) {
  auto instance = tiny_instance();
  instance.sites.push_back(instance.sites[0]);
  instance.sites[2].name = "dc2";
  instance.latency_ms.push_back({10.0, 10.0});
  // dc0 hosts groups 0,1 (3 servers); backups split across dc1 and dc2.
  const auto backups =
      required_backup_servers(instance, {0, 0, 1}, {1, 2, 0});
  EXPECT_EQ(backups[1], 1);  // group 0 only
  EXPECT_EQ(backups[2], 2);  // group 1 only
  EXPECT_EQ(backups[0], 3);  // group 2's 3 servers
}

TEST(CheckPlan, AcceptsFeasiblePlan) {
  const auto instance = tiny_instance();
  Plan plan;
  plan.primary = {0, 0, 1};
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(CheckPlan, FlagsCapacityPinAndSeparationViolations) {
  auto instance = tiny_instance();
  instance.groups[0].pinned_site = 1;
  instance.separations.push_back({1, 2});
  Plan plan;
  plan.primary = {0, 1, 1};  // violates pin and separation
  const auto problems = check_plan(instance, plan);
  EXPECT_EQ(problems.size(), 2u);

  auto small = tiny_instance();
  small.sites[0].capacity_servers = 2;
  Plan overflow;
  overflow.primary = {0, 0, 1};  // 3 servers at dc0 > 2
  EXPECT_FALSE(check_plan(small, overflow).empty());
}

TEST(CheckPlan, FlagsUnderProvisionedBackups) {
  auto instance = tiny_instance();
  instance.sites.push_back(instance.sites[0]);
  instance.sites[2].name = "dc2";
  instance.latency_ms.push_back({10.0, 10.0});
  Plan plan;
  plan.primary = {0, 0, 1};
  plan.secondary = {2, 2, 2};
  plan.backup_servers = {0, 0, 2};  // needs 3
  EXPECT_FALSE(check_plan(instance, plan).empty());
  plan.backup_servers = {0, 0, 3};
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(CheckPlan, FlagsIdenticalPrimaryAndSecondary) {
  const auto instance = tiny_instance();
  Plan plan;
  plan.primary = {0, 0, 1};
  plan.secondary = {0, 1, 0};  // group 0: primary == secondary
  plan.backup_servers = {3, 3};
  EXPECT_FALSE(check_plan(instance, plan).empty());
}

TEST(PlanAccessors, SitesUsedAndBackupTotals) {
  Plan plan;
  plan.primary = {0, 0, 1};
  EXPECT_EQ(plan.sites_used(), 2);
  EXPECT_FALSE(plan.has_dr());
  plan.secondary = {1, 1, 0};
  plan.backup_servers = {3, 3};
  EXPECT_TRUE(plan.has_dr());
  EXPECT_EQ(plan.total_backup_servers(), 6);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(CostBreakdown, TotalsAddUp) {
  CostBreakdown cost;
  cost.space = 10;
  cost.power = 20;
  cost.labor = 30;
  cost.wan = 40;
  cost.latency_penalty = 5;
  cost.backup_capex = 100;
  EXPECT_DOUBLE_EQ(cost.operational(), 200.0);
  EXPECT_DOUBLE_EQ(cost.total(), 205.0);
}

}  // namespace
}  // namespace etransform
