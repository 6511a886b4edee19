// Golden digests of the MILP the formulation builder emits and of the exact
// planner's result on it. The model is pinned by its CPLEX LP text
// (FNV-1a 64 and byte length) plus every row's RowStructure tag, which the
// LP text does not carry; the planner by its plan, node count, total
// simplex pivots and lower bound (costs and bounds spelled with "%a"). Any
// change to a name, a coefficient bit, the row or column order, a tag, or
// the search tree fails these tests. Re-record only when the model or the
// tree is meant to change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/baselines.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "lp/lp_format.h"
#include "planner/etransform_planner.h"
#include "planner/formulation.h"

namespace etransform {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// "<LP text hash> <LP text bytes> <row tag hash> <rows>": the tag string
/// has one character per row ('g' generic, 'k' knapsack, 'b' business
/// impact).
std::string model_digest(const CostModel& model,
                         const FormulationOptions& options) {
  const Formulation f = build_formulation(model, options);
  const std::string text = lp::write_lp(f.model);
  std::string tags;
  for (const lp::Constraint& row : f.model.constraints()) {
    switch (row.structure) {
      case lp::RowStructure::kGeneric: tags += 'g'; break;
      case lp::RowStructure::kKnapsack: tags += 'k'; break;
      case lp::RowStructure::kBusinessImpact: tags += 'b'; break;
    }
  }
  char digest[128];
  std::snprintf(digest, sizeof(digest), "%016llx %zu %016llx %d",
                static_cast<unsigned long long>(fnv1a(text)), text.size(),
                static_cast<unsigned long long>(fnv1a(tags)),
                f.model.num_constraints());
  return digest;
}

std::string enterprise1_digest(const FormulationOptions& options) {
  const ConsolidationInstance instance = make_enterprise1();
  const CostModel model(instance);
  return model_digest(model, options);
}

TEST(FormulationGolden, Enterprise1NoDr) {
  EXPECT_EQ(enterprise1_digest({}),
            "70fd656bd7030422 286061 01a9f0e7393c1815 360");
}

TEST(FormulationGolden, Enterprise1DedicatedDr) {
  FormulationOptions options;
  options.enable_dr = true;
  options.backup_sizing = BackupSizing::kDedicated;
  EXPECT_EQ(enterprise1_digest(options),
            "ed89619e28ffd681 534799 55f8ba274fd460c1 2460");
}

TEST(FormulationGolden, Enterprise1JointDr) {
  FormulationOptions options;
  options.enable_dr = true;
  options.backup_sizing = BackupSizing::kSharedJoint;
  EXPECT_EQ(enterprise1_digest(options),
            "85a942f3a5957a2e 1953019 da06ce5878f6f765 19640");
}

TEST(FormulationGolden, Enterprise1Omega) {
  FormulationOptions options;
  options.business_impact_omega = 0.5;
  EXPECT_EQ(enterprise1_digest(options),
            "504a2cc1647e92f1 305261 929870aecd0a592b 370");
}

TEST(FormulationGolden, Enterprise1NoEconomiesOfScale) {
  FormulationOptions options;
  options.economies_of_scale = false;
  EXPECT_EQ(enterprise1_digest(options),
            "0eda177ac08ad054 149029 a0066fe8f45f7ef5 200");
}

TEST(FormulationGolden, VpnTradeoff) {
  VpnTradeoffSpec spec;
  spec.num_sites = 4;
  spec.num_groups = 40;
  spec.site_capacity = 20;
  const ConsolidationInstance instance = make_vpn_tradeoff(spec);
  const CostModel model(instance);
  EXPECT_EQ(model_digest(model, {}),
            "4d7953be3cacf946 12062 cc0b6d68ac989fa1 44");
}

TEST(FormulationGolden, Enterprise1FixedPrimaryOnGreedy) {
  const ConsolidationInstance instance = make_enterprise1();
  const CostModel model(instance);
  const Plan greedy = plan_greedy(model, /*with_dr=*/true);
  FormulationOptions options;
  options.enable_dr = true;
  options.backup_sizing = BackupSizing::kSharedFixedPrimary;
  options.fixed_primary = &greedy.primary;
  EXPECT_EQ(model_digest(model, options),
            "bb849534dba4071a 177975 f5594a3c4ffa016a 405");
}

PlanningHorizon two_periods() {
  PlanningHorizon horizon = PlanningHorizon::uniform(2, 0.5);
  horizon.periods[1].multiplier = 0.5;
  return horizon;
}

TEST(FormulationGolden, Enterprise1TwoPeriods) {
  const PlanningHorizon horizon = two_periods();
  FormulationOptions options;
  options.horizon = &horizon;
  EXPECT_EQ(enterprise1_digest(options),
            "5ebc13aeda764eef 770025 1ffbfe29f629a0f1 2620");
}

TEST(FormulationGolden, Enterprise1TwoPeriodsLocked) {
  const PlanningHorizon horizon = two_periods();
  FormulationOptions options;
  options.horizon = &horizon;
  options.lock_placement = true;
  EXPECT_EQ(enterprise1_digest(options),
            "2a315f013df06d66 450878 789e6b532f5b513b 530");
}

/// "<placement hash> <cost> <nodes> <pivots> <lower bound>".
std::string exact_digest(const ConsolidationInstance& instance,
                         const PlannerOptions& base, int max_nodes) {
  PlannerOptions options = base;
  options.engine = PlannerOptions::Engine::kExact;
  options.milp.search.max_nodes = max_nodes;
  options.milp.search.time_limit_ms = 0;
  const CostModel model(instance);
  const EtransformPlanner planner(options);
  SolveContext ctx;
  const PlannerReport report = planner.plan(PlanInput(model), ctx);
  std::string placement;
  for (const int j : report.plan.primary) placement += std::to_string(j) + ",";
  placement += "|";
  for (const int j : report.plan.secondary) {
    placement += std::to_string(j) + ",";
  }
  char digest[160];
  std::snprintf(digest, sizeof(digest), "%016llx %a %d %.0f %a",
                static_cast<unsigned long long>(fnv1a(placement)),
                report.plan.cost.total(), report.milp_nodes,
                report.stats.deep_metric("pivots"), report.lower_bound);
  EXPECT_TRUE(report.multi.empty());
  return digest;
}

TEST(ExactPlannerGolden, Enterprise1) {
  EXPECT_EQ(exact_digest(make_enterprise1(), {}, 40),
            "e8b3c9d1c7193d13 0x1.9db0fbe8513f7p+17 40 3172 "
            "0x1.8ac565a58cd0bp+17");
}

TEST(ExactPlannerGolden, Enterprise1TwoStageDr) {
  // About 19,000 J variables exceed joint_dr_var_limit, so this runs the
  // dedicated-surrogate stage 1 and the fixed-primary stage 2. Neither
  // stage finds an incumbent in 40 nodes.
  PlannerOptions options;
  options.enable_dr = true;
  EXPECT_EQ(exact_digest(make_enterprise1(), options, 40),
            "a4e5d03ad70dff4b 0x1.49a8268d1de36p+19 40 73731 "
            "0x1.49a8268d1de36p+19");
}

TEST(ExactPlannerGolden, SmallTwoStageDrDecodesBothStages) {
  // A J limit of 0 forces the two-stage method onto an instance small
  // enough that both stages reach an incumbent and decode it.
  Rng rng(29);
  PlannerOptions options;
  options.enable_dr = true;
  options.joint_dr_var_limit = 0;
  EXPECT_EQ(exact_digest(make_random_instance(rng, 10, 4, 2), options, 2000),
            "672534fb40ba4769 0x1.68ac407158e18p+15 10 13315 nan");
}

TEST(ExactPlannerGolden, RightsizingFourPeriods) {
  const ConsolidationInstance instance = make_rightsizing_estate({});
  const CostModel model(instance);
  TrafficCurveSpec curve;
  curve.num_periods = 4;
  curve.trough_multiplier = 0.25;
  curve.migration_cost_per_server = 0.5;
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  const EtransformPlanner planner(options);
  SolveContext ctx;
  const PlannerReport report =
      planner.plan(PlanInput(model, make_traffic_curve(curve)), ctx);
  ASSERT_EQ(report.multi.periods.size(), 4u);
  std::string placement;
  for (const Plan& period : report.multi.periods) {
    for (const int j : period.primary) placement += std::to_string(j) + ",";
    placement += "|";
  }
  char digest[160];
  std::snprintf(digest, sizeof(digest), "%016llx %a %d %.0f %a",
                static_cast<unsigned long long>(fnv1a(placement)),
                report.objective(), report.milp_nodes,
                report.stats.deep_metric("pivots"), report.lower_bound);
  EXPECT_EQ(std::string(digest),
            "0c23c6486b343dcc 0x1.11p+9 586 11977 0x1.11p+9");
}

}  // namespace
}  // namespace etransform
