// End-to-end planner tests: optimality against brute force on tiny
// instances, dominance over the baselines, DR plan quality, engine
// selection, and randomized property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.h"
#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "milp/brute_force.h"
#include "planner/etransform_planner.h"
#include "planner/formulation.h"

namespace etransform {
namespace {

PlannerReport run_planner(const ConsolidationInstance& instance,
                          PlannerOptions options = {}) {
  // Keep the suite fast: tiny instances don't need the production budget.
  options.milp.search.time_limit_ms = std::min(options.milp.search.time_limit_ms, 5000);
  options.milp.search.max_nodes = std::min(options.milp.search.max_nodes, 5000);
  const CostModel model(instance);
  const EtransformPlanner planner(options);
  SolveContext ctx;
  return planner.plan(PlanInput(model), ctx);
}

/// Exhaustively finds the cheapest feasible non-DR plan.
Plan brute_force_plan(const CostModel& model) {
  const auto& instance = model.instance();
  const int n = instance.num_groups();
  const int sites = instance.num_sites();
  std::vector<int> assignment(static_cast<std::size_t>(n), 0);
  Plan best;
  double best_cost = std::numeric_limits<double>::infinity();
  while (true) {
    Plan candidate;
    candidate.primary = assignment;
    if (check_plan(instance, candidate).empty()) {
      model.price_plan(candidate);
      if (candidate.cost.total() < best_cost) {
        best_cost = candidate.cost.total();
        best = candidate;
      }
    }
    int k = 0;
    while (k < n) {
      if (++assignment[static_cast<std::size_t>(k)] < sites) break;
      assignment[static_cast<std::size_t>(k)] = 0;
      ++k;
    }
    if (k == n) break;
  }
  return best;
}

TEST(Planner, MatchesBruteForceOnTinyInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const auto instance = make_random_instance(rng, 6, 3, 2);
    const CostModel model(instance);
    const Plan reference = brute_force_plan(model);
    const PlannerReport report = run_planner(instance);
    EXPECT_TRUE(check_plan(instance, report.plan).empty());
    EXPECT_TRUE(report.used_exact_solver);
    EXPECT_NEAR(report.plan.cost.total(), reference.cost.total(),
                1e-6 * std::max(1.0, reference.cost.total()))
        << "seed " << seed;
  }
}

TEST(Planner, NeverWorseThanBaselines) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 100);
    const auto instance = make_random_instance(rng, 14, 4, 3);
    const CostModel model(instance);
    const PlannerReport report = run_planner(instance);
    const Plan greedy = plan_greedy(model, false);
    const Plan manual = plan_manual(model, false);
    EXPECT_LE(report.plan.cost.total(), greedy.cost.total() + 1e-6)
        << "seed " << seed;
    EXPECT_LE(report.plan.cost.total(), manual.cost.total() + 1e-6)
        << "seed " << seed;
  }
}

TEST(Planner, LowerBoundBracketsExactCost) {
  Rng rng(41);
  const auto instance = make_random_instance(rng, 10, 3, 2);
  const PlannerReport report = run_planner(instance);
  ASSERT_TRUE(report.used_exact_solver);
  if (report.proven_optimal) {
    EXPECT_LE(report.lower_bound,
              report.plan.cost.total() + 1e-4 * report.plan.cost.total());
  }
}

TEST(Planner, HeuristicFallbackKeepsTheTreesNodesAndBound) {
  // A search capped at 40 nodes finds no incumbent on enterprise1 (the
  // root dive aborts), so the planner falls back to the heuristic plan. The
  // tree still explored its budget and proved a bound.
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  options.milp.search.max_nodes = 40;
  const ConsolidationInstance instance = make_enterprise1();
  const CostModel model(instance);
  SolveContext ctx;
  const PlannerReport report =
      EtransformPlanner(options).plan(PlanInput(model), ctx);
  EXPECT_FALSE(report.used_exact_solver);
  EXPECT_GT(report.milp_nodes, 0);
  ASSERT_TRUE(std::isfinite(report.lower_bound));
  EXPECT_GT(report.lower_bound, 0.0);
  EXPECT_LE(report.lower_bound, report.plan.cost.total());
}

TEST(Planner, DrPlansAreFeasibleAndShareBackups) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 50);
    const auto instance = make_random_instance(rng, 8, 4, 2);
    PlannerOptions options;
    options.enable_dr = true;
    const PlannerReport report = run_planner(instance, options);
    EXPECT_TRUE(check_plan(instance, report.plan).empty()) << "seed " << seed;
    EXPECT_TRUE(report.plan.has_dr());
    // Backup counts match the sharing law exactly (decode recomputes them).
    const auto required = required_backup_servers(
        instance, report.plan.primary, report.plan.secondary);
    EXPECT_EQ(report.plan.backup_servers, required);
  }
}

TEST(Planner, DrNeverWorseThanGreedyDr) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 500);
    const auto instance = make_random_instance(rng, 10, 4, 2);
    const CostModel model(instance);
    PlannerOptions options;
    options.enable_dr = true;
    const PlannerReport report = run_planner(instance, options);
    const Plan greedy = plan_greedy(model, true);
    EXPECT_LE(report.plan.cost.total(), greedy.cost.total() + 1e-6)
        << "seed " << seed;
  }
}

TEST(Planner, BusinessImpactOmegaBindsOnHeuristicPath) {
  // The heuristic engine must honor omega too (seeds and local search carry
  // the per-site group cap).
  Rng rng(2500);
  const auto instance = make_random_instance(rng, 12, 4, 2);
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kHeuristic;
  options.business_impact_omega = 0.25;  // max 3 of 12 groups per site
  const PlannerReport report = run_planner(instance, options);
  std::vector<int> per_site(4, 0);
  for (const int j : report.plan.primary) {
    per_site[static_cast<std::size_t>(j)] += 1;
  }
  for (const int count : per_site) EXPECT_LE(count, 3);
  EXPECT_TRUE(check_plan(instance, report.plan).empty());

  // Impossible cap: even perfect spreading cannot satisfy it.
  options.business_impact_omega = 0.1;  // cap 1 per site, 12 groups, 4 sites
  EXPECT_THROW(run_planner(instance, options), InfeasibleError);
}

TEST(Planner, DedicatedDrProvisionsFullMirrors) {
  // Multi-failure mode: every group gets its own backups, so the total
  // backup count equals the total server count, and the plan costs at least
  // as much as the shared single-failure plan.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 1500);
    const auto instance = make_random_instance(rng, 8, 4, 2);
    PlannerOptions shared;
    shared.enable_dr = true;
    PlannerOptions dedicated = shared;
    dedicated.dr_sizing = PlannerOptions::DrSizing::kDedicated;
    const PlannerReport shared_report = run_planner(instance, shared);
    const PlannerReport dedicated_report = run_planner(instance, dedicated);
    EXPECT_TRUE(check_plan(instance, dedicated_report.plan).empty())
        << "seed " << seed;
    EXPECT_EQ(dedicated_report.plan.total_backup_servers(),
              instance.total_servers())
        << "seed " << seed;
    EXPECT_LE(shared_report.plan.total_backup_servers(),
              dedicated_report.plan.total_backup_servers());
    EXPECT_LE(shared_report.plan.cost.total(),
              dedicated_report.plan.cost.total() + 1e-6)
        << "seed " << seed;
    // The dedicated counts match the dedicated sizing law exactly.
    EXPECT_EQ(dedicated_report.plan.backup_servers,
              dedicated_backup_servers(instance,
                                       dedicated_report.plan.primary,
                                       dedicated_report.plan.secondary));
  }
}

TEST(Planner, TwoStageDrCloseToJointOnSmallInstances) {
  // The documented substitution: two-stage must land near the joint optimum.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 900);
    const auto instance = make_random_instance(rng, 6, 3, 2);
    PlannerOptions joint;
    joint.enable_dr = true;
    joint.joint_dr_var_limit = 1 << 20;
    const PlannerReport joint_report = run_planner(instance, joint);

    PlannerOptions two_stage;
    two_stage.enable_dr = true;
    two_stage.joint_dr_var_limit = 0;  // force the two-stage path
    const PlannerReport staged_report = run_planner(instance, two_stage);

    EXPECT_TRUE(check_plan(instance, staged_report.plan).empty());
    EXPECT_LE(staged_report.plan.cost.total(),
              1.10 * joint_report.plan.cost.total() + 1e-6)
        << "seed " << seed;
  }
}

TEST(Planner, HeuristicEngineMatchesExactOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 300);
    const auto instance = make_random_instance(rng, 10, 3, 2);
    PlannerOptions exact;
    exact.engine = PlannerOptions::Engine::kExact;
    PlannerOptions heuristic;
    heuristic.engine = PlannerOptions::Engine::kHeuristic;
    const PlannerReport exact_report = run_planner(instance, exact);
    const PlannerReport heuristic_report = run_planner(instance, heuristic);
    EXPECT_FALSE(heuristic_report.used_exact_solver);
    EXPECT_TRUE(check_plan(instance, heuristic_report.plan).empty());
    EXPECT_LE(heuristic_report.plan.cost.total(),
              1.05 * exact_report.plan.cost.total() + 1e-6)
        << "seed " << seed;
  }
}

TEST(Planner, AutoSwitchesToHeuristicAboveVarLimit) {
  Rng rng(77);
  const auto instance = make_random_instance(rng, 20, 4, 2);
  PlannerOptions options;
  options.exact_var_limit = 10;  // force the heuristic branch
  const PlannerReport report = run_planner(instance, options);
  EXPECT_FALSE(report.used_exact_solver);
  EXPECT_TRUE(check_plan(instance, report.plan).empty());
}

TEST(Planner, HonorsPinsForbidsAndSeparations) {
  Rng rng(88);
  auto instance = make_random_instance(rng, 8, 4, 2);
  instance.groups[0].pinned_site = 3;
  instance.groups[1].allowed_sites = {0, 1};
  instance.separations.push_back({2, 3});
  const PlannerReport report = run_planner(instance);
  EXPECT_EQ(report.plan.primary[0], 3);
  EXPECT_TRUE(report.plan.primary[1] == 0 || report.plan.primary[1] == 1);
  EXPECT_NE(report.plan.primary[2], report.plan.primary[3]);
}

TEST(Planner, ThrowsOnInfeasibleInstance) {
  Rng rng(99);
  auto instance = make_random_instance(rng, 6, 3, 2);
  for (auto& site : instance.sites) site.capacity_servers = 1;
  EXPECT_THROW(run_planner(instance), Error);
}

TEST(Planner, LatencyPenaltyDrivesPlacement) {
  // Cheap far site vs expensive near site: low penalty -> far, high -> near.
  LatencyLineSpec spec;
  spec.num_sites = 2;
  spec.num_groups = 5;
  spec.total_servers = 20;
  spec.fraction_users_near = 0.0;  // users at the far end
  spec.users_per_group = 10.0;
  spec.penalty_per_user = 0.0;
  const auto cheap_wins = run_planner(make_latency_line(spec));
  for (const int j : cheap_wins.plan.primary) EXPECT_EQ(j, 0);

  spec.penalty_per_user = 200.0;
  const auto users_win = run_planner(make_latency_line(spec));
  for (const int j : users_win.plan.primary) EXPECT_EQ(j, 1);
  EXPECT_EQ(users_win.plan.latency_violations, 0);
}

TEST(Planner, HighDrServerCostSpreadsPrimaries) {
  // Fig. 8's mechanism: when backup servers are expensive, spreading
  // primaries over more sites lets one backup pool cover them all.
  LatencyLineSpec spec;
  spec.num_groups = 24;
  spec.total_servers = 240;
  spec.num_sites = 8;
  spec.site_capacity = 400;
  spec.penalty_per_user = 0.0;
  // Space gradient strictly dominates a $1 backup server (consolidate) and
  // is dominated by a $100k one (spread) — no tied moves either way.
  spec.space_step = 5.0;

  PlannerOptions options;
  options.enable_dr = true;
  options.engine = PlannerOptions::Engine::kHeuristic;

  spec.dr_server_cost = 1.0;
  const auto cheap = run_planner(make_latency_line(spec), options);
  spec.dr_server_cost = 100000.0;
  const auto expensive = run_planner(make_latency_line(spec), options);
  EXPECT_GT(expensive.plan.sites_used(), cheap.plan.sites_used());
  EXPECT_LT(expensive.plan.total_backup_servers(),
            cheap.plan.total_backup_servers());
}

// ---- randomized sweep ------------------------------------------------------

class PlannerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerPropertyTest, PlansAreFeasibleAndDominateGreedy) {
  Rng rng(GetParam() + 4000);
  const auto instance = make_random_instance(
      rng, 6 + static_cast<int>(GetParam() % 10), 3 + GetParam() % 3, 2);
  const CostModel model(instance);
  const PlannerReport report = run_planner(instance);
  EXPECT_TRUE(check_plan(instance, report.plan).empty());
  const Plan greedy = plan_greedy(model, false);
  EXPECT_LE(report.plan.cost.total(), greedy.cost.total() + 1e-6);
  // Re-pricing is idempotent.
  Plan copy = report.plan;
  model.price_plan(copy);
  EXPECT_NEAR(copy.cost.total(), report.plan.cost.total(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

class PlannerDrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlannerDrPropertyTest, DrPlansFeasibleAndBackupsShared) {
  Rng rng(GetParam() + 6000);
  const auto instance = make_random_instance(rng, 8, 4, 2);
  PlannerOptions options;
  options.enable_dr = true;
  const PlannerReport report = run_planner(instance, options);
  EXPECT_TRUE(check_plan(instance, report.plan).empty());
  // Shared sizing can never exceed dedicated sizing.
  long long dedicated = 0;
  for (const auto& group : instance.groups) dedicated += group.servers;
  EXPECT_LE(report.plan.total_backup_servers(), dedicated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDrPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace etransform
