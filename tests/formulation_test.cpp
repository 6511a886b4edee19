// Tests for the MILP formulation builder: decoded plans are feasible, the
// objective the solver sees matches the exact evaluator (including tier
// linearization), and the DR sizing variants behave as specified.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "lp/lp_format.h"
#include "milp/branch_and_bound.h"
#include "planner/formulation.h"

namespace etransform {
namespace {

ConsolidationInstance small_instance(std::uint64_t seed = 5) {
  Rng rng(seed);
  return make_random_instance(rng, 8, 3, 2);
}

milp::MilpSolution solve(const lp::Model& model) {
  milp::SolverOptions options;
  options.search.time_limit_ms = 30000;
  const milp::BranchAndBoundSolver solver(options);
  SolveContext ctx;
  return solver.solve(model, ctx);
}

TEST(Formulation, NonDrDecodesToFeasiblePlan) {
  const auto instance = small_instance();
  const CostModel model(instance);
  FormulationOptions options;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(Formulation, ObjectiveMatchesEvaluatorOnFlatSchedules) {
  // With flat schedules the MILP objective must equal the evaluator's total
  // exactly (no tier-boundary slack).
  Rng rng(17);
  auto instance = make_random_instance(rng, 6, 3, 2);
  for (auto& site : instance.sites) {
    site.space_cost_per_server =
        StepSchedule::flat(site.space_cost_per_server.unit_price(0.0));
  }
  const CostModel model(instance);
  FormulationOptions options;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  EXPECT_NEAR(solution.objective, plan.cost.total(),
              1e-6 * std::max(1.0, plan.cost.total()));
}

TEST(Formulation, TierLinearizationMatchesScheduleSemantics) {
  // One site with a volume discount; force different volumes through it and
  // check the MILP prices them like StepSchedule::total_cost.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 4; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 3;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  DataCenterSite site;
  site.name = "dc";
  site.capacity_servers = 40;
  site.space_cost_per_server = StepSchedule::volume_discount(100.0, 5.0, 30.0,
                                                             3);
  DataCenterSite other = site;
  other.name = "dc2";
  other.space_cost_per_server = StepSchedule::flat(1000.0);  // decoy
  instance.sites = {site, other};
  instance.latency_ms = {{5.0}, {5.0}};
  const CostModel model(instance);
  FormulationOptions options;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  // All 12 servers at dc: third tier (> 10), $40 each.
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  for (const int j : plan.primary) EXPECT_EQ(j, 0);
  EXPECT_NEAR(plan.cost.space, 12 * 40.0, 1e-9);
  EXPECT_NEAR(solution.objective, plan.cost.total(), 1e-6);
}

TEST(Formulation, EconomiesOfScaleRewardConsolidation) {
  // Two equal-base-price sites, one with discounts. With economies on, all
  // groups consolidate at the discounting site; with economies off the
  // solver sees identical prices and spreading is cost-neutral.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 6; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 2;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  DataCenterSite discounted;
  discounted.name = "bulk";
  discounted.capacity_servers = 20;
  discounted.space_cost_per_server =
      StepSchedule::volume_discount(100.0, 4.0, 25.0, 3);
  DataCenterSite flat_site;
  flat_site.name = "flat";
  flat_site.capacity_servers = 20;
  flat_site.space_cost_per_server = StepSchedule::flat(100.0);
  instance.sites = {discounted, flat_site};
  instance.latency_ms = {{5.0}, {5.0}};
  const CostModel model(instance);
  FormulationOptions options;
  options.economies_of_scale = true;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  for (const int j : plan.primary) EXPECT_EQ(j, 0);
  EXPECT_NEAR(plan.cost.space, 12 * 50.0, 1e-9);  // deepest tier
}

TEST(Formulation, BusinessImpactOmegaSpreadsGroups) {
  // 4 identical groups, 2 identical sites, omega = 0.5: max 2 groups/site.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 4; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 1;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  for (int j = 0; j < 2; ++j) {
    DataCenterSite site;
    site.name = "dc" + std::to_string(j);
    site.capacity_servers = 10;
    site.space_cost_per_server = StepSchedule::flat(j == 0 ? 10.0 : 20.0);
    instance.sites.push_back(site);
    instance.latency_ms.push_back({5.0});
  }
  const CostModel model(instance);
  FormulationOptions options;
  options.business_impact_omega = 0.5;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  int at_zero = 0;
  for (const int j : plan.primary) at_zero += (j == 0) ? 1 : 0;
  EXPECT_EQ(at_zero, 2);
}

TEST(Formulation, PinsAndSeparationsAreRespected) {
  auto instance = small_instance(23);
  instance.groups[0].pinned_site = 2;
  instance.separations.push_back({1, 2});
  const CostModel model(instance);
  FormulationOptions options;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  EXPECT_EQ(plan.primary[0], 2);
  EXPECT_NE(plan.primary[1], plan.primary[2]);
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(Formulation, JointDrSharesBackups) {
  // Two primary sites, groups split across them, one cheap backup site: the
  // joint formulation must discover sharing (G = max, not sum).
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 4; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 2;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  for (int j = 0; j < 3; ++j) {
    DataCenterSite site;
    site.name = "dc" + std::to_string(j);
    site.capacity_servers = 8;
    site.space_cost_per_server = StepSchedule::flat(j == 2 ? 10.0 : 20.0);
    instance.sites.push_back(site);
    instance.latency_ms.push_back({5.0});
  }
  instance.params.dr_server_cost = 500.0;
  const CostModel model(instance);
  FormulationOptions options;
  options.enable_dr = true;
  options.backup_sizing = BackupSizing::kSharedJoint;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_EQ(solution.status, milp::MilpStatus::kOptimal);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  EXPECT_TRUE(check_plan(instance, plan).empty());
  // Sharing law bound: total backups needed is at most the largest site
  // loss, summed over backup sites — strictly less than total servers when
  // primaries are split and backups shared.
  const auto required =
      required_backup_servers(instance, plan.primary, plan.secondary);
  for (int j = 0; j < instance.num_sites(); ++j) {
    EXPECT_EQ(plan.backup_servers[static_cast<std::size_t>(j)],
              required[static_cast<std::size_t>(j)]);
  }
  EXPECT_LT(plan.total_backup_servers(), instance.total_servers());
}

TEST(Formulation, FixedPrimarySizingMatchesSharingLaw) {
  const auto instance = small_instance(31);
  const CostModel model(instance);
  // Stage 1: any feasible primary assignment.
  std::vector<int> primary(static_cast<std::size_t>(instance.num_groups()));
  for (int i = 0; i < instance.num_groups(); ++i) {
    primary[static_cast<std::size_t>(i)] = i % 2;
  }
  FormulationOptions options;
  options.enable_dr = true;
  options.backup_sizing = BackupSizing::kSharedFixedPrimary;
  options.fixed_primary = &primary;
  const Formulation f = build_formulation(model, options);
  const auto solution = solve(f.model);
  ASSERT_TRUE(solution.status == milp::MilpStatus::kOptimal ||
              solution.status == milp::MilpStatus::kFeasible);
  const Plan plan = decode_plan(model, f, options, solution.values, "test");
  EXPECT_EQ(plan.primary, primary);
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(Formulation, RejectsInconsistentOptions) {
  const auto instance = small_instance();
  const CostModel model(instance);
  FormulationOptions options;
  options.backup_sizing = BackupSizing::kSharedFixedPrimary;
  options.enable_dr = true;
  EXPECT_THROW((void)build_formulation(model, options), InvalidInputError);
  // Fixed-primary sizing exists at a static horizon only, not even at T=1.
  const std::vector<int> primary(
      static_cast<std::size_t>(instance.num_groups()), 0);
  options.fixed_primary = &primary;
  const PlanningHorizon one_period = PlanningHorizon::uniform(1);
  options.horizon = &one_period;
  EXPECT_THROW((void)build_formulation(model, options), InvalidInputError);
  options.horizon = nullptr;
  options.enable_dr = false;
  options.backup_sizing = BackupSizing::kSharedJoint;
  options.business_impact_omega = 0.0;
  EXPECT_THROW((void)build_formulation(model, options), InvalidInputError);
}

TEST(Formulation, HorizonOfOneIsTheStaticModelRenamed) {
  // A static plan is the one-period horizon: the T=1 model (per-period or
  // locked) differs from the static one only in its "_p0" name suffixes.
  auto instance = small_instance(41);
  instance.separations.push_back({1, 2});
  const CostModel model(instance);
  const PlanningHorizon one_period = PlanningHorizon::uniform(1);
  for (const bool dr : {false, true}) {
    FormulationOptions options;
    options.enable_dr = dr;
    options.business_impact_omega = 0.5;
    const std::string static_text =
        lp::write_lp(build_formulation(model, options).model);
    options.horizon = &one_period;
    for (const bool locked : {false, true}) {
      options.lock_placement = locked;
      std::string text = lp::write_lp(build_formulation(model, options).model);
      for (std::size_t at = text.find("_p0"); at != std::string::npos;
           at = text.find("_p0", at)) {
        text.erase(at, 3);
      }
      EXPECT_EQ(text, static_text) << "dr=" << dr << " locked=" << locked;
    }
  }
}

TEST(Formulation, DecodeRejectsWrongValueVector) {
  const auto instance = small_instance();
  const CostModel model(instance);
  FormulationOptions options;
  const Formulation f = build_formulation(model, options);
  EXPECT_THROW(
      (void)decode_plan(model, f, options, std::vector<double>(3, 0.0), "x"),
      InvalidInputError);
  // A two-period model is not a one-period plan.
  const PlanningHorizon two_periods = PlanningHorizon::uniform(2);
  options.horizon = &two_periods;
  const Formulation expanded = build_formulation(model, options);
  const std::vector<double> values(
      static_cast<std::size_t>(expanded.model.num_variables()), 0.0);
  EXPECT_THROW((void)decode_plan(model, expanded, options, values, "x"),
               InvalidInputError);
}

}  // namespace
}  // namespace etransform
