// Tests for the local-search improver and the Lagrangian lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/baselines.h"
#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "planner/lagrangian.h"
#include "planner/local_search.h"

namespace etransform {
namespace {

TEST(LocalSearch, NeverMakesAPlanWorseOrInfeasible) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const auto instance = make_random_instance(rng, 12, 4, 3);
    const CostModel model(instance);
    Plan plan = plan_manual(model, false);
    const Money before = plan.cost.total();
    improve_plan(model, plan);
    EXPECT_LE(plan.cost.total(), before + 1e-6) << "seed " << seed;
    EXPECT_TRUE(check_plan(instance, plan).empty()) << "seed " << seed;
  }
}

TEST(LocalSearch, FixesObviouslyBadPlacement) {
  // Everything starts at the expensive site; local search must relocate.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 5; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 2;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  for (int j = 0; j < 2; ++j) {
    DataCenterSite site;
    site.name = "dc" + std::to_string(j);
    site.capacity_servers = 20;
    site.space_cost_per_server = StepSchedule::flat(j == 0 ? 200.0 : 10.0);
    instance.sites.push_back(site);
    instance.latency_ms.push_back({5.0});
  }
  const CostModel model(instance);
  Plan plan;
  plan.primary.assign(5, 0);
  model.price_plan(plan);
  EXPECT_TRUE(improve_plan(model, plan));
  for (const int j : plan.primary) EXPECT_EQ(j, 1);
}

TEST(LocalSearch, SwapsEscapeCapacityDeadlock) {
  // Two sites of capacity 4; a 3-server group sits where a 4-server group
  // wants to be; single moves cannot fix it, a swap can.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"near", {0, 0}},
                        UserLocation{"far", {100, 0}}};
  ApplicationGroup big;
  big.name = "big";
  big.servers = 4;
  big.users_per_location = {50.0, 0.0};
  big.latency_penalty = LatencyPenaltyFunction::single_step(10.0, 100.0);
  ApplicationGroup small;
  small.name = "small";
  small.servers = 3;
  small.users_per_location = {0.0, 50.0};
  small.latency_penalty = LatencyPenaltyFunction::single_step(10.0, 100.0);
  instance.groups = {big, small};
  for (int j = 0; j < 2; ++j) {
    DataCenterSite site;
    site.name = j == 0 ? "near-dc" : "far-dc";
    site.capacity_servers = 4;
    site.space_cost_per_server = StepSchedule::flat(10.0);
    instance.sites.push_back(site);
  }
  instance.latency_ms = {{5.0, 30.0}, {30.0, 5.0}};
  const CostModel model(instance);
  Plan plan;
  plan.primary = {1, 0};  // both groups far from their users
  model.price_plan(plan);
  EXPECT_GT(plan.latency_violations, 0);
  EXPECT_TRUE(improve_plan(model, plan));
  EXPECT_EQ(plan.primary[0], 0);
  EXPECT_EQ(plan.primary[1], 1);
  EXPECT_EQ(plan.latency_violations, 0);
}

TEST(LocalSearch, ImprovesDrPlansIncludingSharing) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 20);
    const auto instance = make_random_instance(rng, 10, 4, 2);
    const CostModel model(instance);
    Plan plan = plan_greedy(model, true);
    // Normalize the greedy dedicated counts to the sharing law first.
    plan.backup_servers = required_backup_servers(instance, plan.primary,
                                                  plan.secondary);
    model.price_plan(plan);
    const Money before = plan.cost.total();
    improve_plan(model, plan);
    EXPECT_LE(plan.cost.total(), before + 1e-6);
    EXPECT_TRUE(check_plan(instance, plan).empty()) << "seed " << seed;
    // The improved plan still carries exactly the sharing-law counts.
    EXPECT_EQ(plan.backup_servers,
              required_backup_servers(instance, plan.primary, plan.secondary));
  }
}

TEST(LocalSearch, IncrementalCostMatchesReprice) {
  // After improvement, price_plan from scratch must agree with the plan's
  // stored cost (the incremental bookkeeping has no drift).
  Rng rng(33);
  const auto instance = make_random_instance(rng, 12, 4, 2);
  const CostModel model(instance);
  Plan plan = plan_greedy(model, true);
  plan.backup_servers =
      required_backup_servers(instance, plan.primary, plan.secondary);
  model.price_plan(plan);
  improve_plan(model, plan);
  Plan repriced = plan;
  model.price_plan(repriced);
  EXPECT_NEAR(repriced.cost.total(), plan.cost.total(),
              1e-7 * std::max(1.0, plan.cost.total()));
}

TEST(LocalSearch, RespectsPinsAndSeparations) {
  Rng rng(44);
  auto instance = make_random_instance(rng, 8, 4, 2);
  instance.groups[0].pinned_site = 2;
  instance.separations.push_back({1, 2});
  const CostModel model(instance);
  Plan plan;
  plan.primary.assign(static_cast<std::size_t>(instance.num_groups()), 2);
  plan.primary[1] = 0;  // keep the separated pair apart initially
  model.price_plan(plan);
  ASSERT_TRUE(check_plan(instance, plan).empty());
  improve_plan(model, plan);
  EXPECT_EQ(plan.primary[0], 2);
  EXPECT_NE(plan.primary[1], plan.primary[2]);
  EXPECT_TRUE(check_plan(instance, plan).empty());
}

TEST(LocalSearch, RejectsMismatchedPlan) {
  Rng rng(55);
  const auto instance = make_random_instance(rng, 5, 3, 2);
  const CostModel model(instance);
  Plan plan;
  plan.primary = {0, 1};
  EXPECT_THROW(improve_plan(model, plan), InvalidInputError);
}

// ---- local-optimality oracle -------------------------------------------
//
// After improve_plan converges, no single primary or secondary relocation
// may lower the cost. The oracle shares no code with the local search: it
// moves one site index, recomputes backups with the sizing law, asks
// check_plan for feasibility and price_plan for the cost.

struct OracleCase {
  const char* name;
  bool dr = false;
  bool dedicated = false;
  bool vpn = false;
  int group_cap = 0;         // omega cap on primaries per site (0 = none)
  bool constraints = false;  // pins, allow-lists and separations
};

ConsolidationInstance oracle_instance(const OracleCase& c, std::uint64_t seed) {
  Rng rng(seed);
  auto instance = make_random_instance(rng, 12, 4, 3);
  if (c.vpn) {
    instance.use_vpn_links = true;
    for (const auto& site : instance.sites) {
      std::vector<Money> row;
      for (const auto& location : instance.locations) {
        row.push_back(20.0 + distance(site.position, location.position));
      }
      instance.vpn_link_monthly_cost.push_back(row);
    }
  }
  if (c.constraints) {
    instance.groups[0].pinned_site = 3;
    instance.groups[4].allowed_sites = {0, 2};
    instance.groups[5].allowed_sites = {1, 2, 3};
    instance.separations.push_back({1, 2});
    instance.separations.push_back({6, 7});
  }
  return instance;
}

std::vector<int> sized_backups(const ConsolidationInstance& instance,
                               const Plan& plan, bool dedicated) {
  return dedicated ? dedicated_backup_servers(instance, plan.primary,
                                              plan.secondary)
                   : required_backup_servers(instance, plan.primary,
                                             plan.secondary);
}

/// A feasible, deliberately unpolished start: groups dealt round-robin over
/// the sites they may use, secondaries on the next allowed site.
Plan round_robin_plan(const CostModel& model, const OracleCase& c) {
  const auto& instance = model.instance();
  const int sites = instance.num_sites();
  const auto usable = [&](const ApplicationGroup& group, int j) {
    return group.allowed_sites.empty() ||
           std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                     j) != group.allowed_sites.end();
  };
  Plan plan;
  for (int i = 0; i < instance.num_groups(); ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    int a = group.pinned_site;
    for (int k = 0; a < 0 && k < sites; ++k) {
      if (usable(group, (i + k) % sites)) a = (i + k) % sites;
    }
    plan.primary.push_back(a);
    if (c.dr) {
      int b = -1;
      for (int k = 1; b < 0 && k < sites; ++k) {
        if (usable(group, (a + k) % sites)) b = (a + k) % sites;
      }
      plan.secondary.push_back(b);
    }
  }
  if (c.dr) plan.backup_servers = sized_backups(instance, plan, c.dedicated);
  model.price_plan(plan);
  return plan;
}

/// Largest relative saving of any single relocation the planner's rules
/// allow (check_plan, the omega cap, and allow-lists on secondaries).
double best_relocation_gain(const CostModel& model, const Plan& plan,
                            const OracleCase& c) {
  const auto& instance = model.instance();
  Plan base = plan;
  model.price_plan(base);
  const Money base_cost = base.cost.total();
  double best = 0.0;
  const auto consider = [&](Plan candidate) {
    if (c.dr) {
      // Primary == secondary is infeasible, and the sizing laws reject it.
      for (std::size_t i = 0; i < candidate.primary.size(); ++i) {
        if (candidate.primary[i] == candidate.secondary[i]) return;
      }
      candidate.backup_servers = sized_backups(instance, candidate,
                                               c.dedicated);
    }
    if (!check_plan(instance, candidate).empty()) return;
    if (c.group_cap > 0) {
      for (int j = 0; j < instance.num_sites(); ++j) {
        if (std::count(candidate.primary.begin(), candidate.primary.end(),
                       j) > c.group_cap) {
          return;
        }
      }
    }
    model.price_plan(candidate);
    best = std::max(best, (base_cost - candidate.cost.total()) / base_cost);
  };
  for (int i = 0; i < instance.num_groups(); ++i) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    for (int j = 0; j < instance.num_sites(); ++j) {
      Plan moved = base;
      moved.primary[static_cast<std::size_t>(i)] = j;
      if (j != base.primary[static_cast<std::size_t>(i)]) consider(moved);
      if (!c.dr || j == base.secondary[static_cast<std::size_t>(i)]) continue;
      if (!group.allowed_sites.empty() &&
          std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                    j) == group.allowed_sites.end()) {
        continue;
      }
      moved = base;
      moved.secondary[static_cast<std::size_t>(i)] = j;
      consider(moved);
    }
  }
  return best;
}

TEST(LocalSearch, ConvergedPlansAreSingleMoveLocalOptima) {
  const OracleCase cases[] = {
      {"flat"},
      {"shared-dr", true},
      {"dedicated-dr", true, true},
      {"vpn", false, false, true},
      {"vpn-shared-dr", true, false, true},
      {"omega-cap", false, false, false, 4},
      {"omega-cap-shared-dr", true, false, false, 4},
      {"pins-allow-separations", false, false, false, 0, true},
      {"pins-allow-separations-dr", true, false, false, 0, true},
  };
  for (const OracleCase& c : cases) {
    int improvable_starts = 0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const auto instance = oracle_instance(c, 700 + seed);
      const CostModel model(instance);
      Plan plan = round_robin_plan(model, c);
      ASSERT_TRUE(check_plan(instance, plan).empty()) << c.name;
      if (best_relocation_gain(model, plan, c) > 1e-6) ++improvable_starts;
      LocalSearchOptions options;
      options.max_passes = 1000;
      options.dedicated_backups = c.dedicated;
      options.max_groups_per_site = c.group_cap;
      SolveStats stats;
      improve_plan(model, plan, options, &stats);
      EXPECT_LT(stats.metric("passes"), options.max_passes) << c.name;
      EXPECT_TRUE(check_plan(instance, plan).empty()) << c.name;
      EXPECT_LE(best_relocation_gain(model, plan, c), 1e-6)
          << c.name << " seed " << seed;
    }
    // The oracle is not vacuous: most starts are not local optima.
    EXPECT_GT(improvable_starts, 0) << c.name;
  }
}

TEST(LocalSearch, CountsPassesAndCommittedMoves) {
  Rng rng(91);
  const auto instance = make_random_instance(rng, 12, 4, 2);
  const CostModel model(instance);
  Plan plan = plan_manual(model, false);
  SolveStats stats;
  const bool improved = improve_plan(model, plan, {}, &stats);
  EXPECT_GE(stats.metric("passes"), 1.0);
  EXPECT_EQ(stats.metric("moves_committed") > 0.0, improved);
  // Counters accumulate across calls; a converged plan adds one idle pass.
  const double moves = stats.metric("moves_committed");
  const double passes = stats.metric("passes");
  EXPECT_FALSE(improve_plan(model, plan, {}, &stats));
  EXPECT_EQ(stats.metric("moves_committed"), moves);
  EXPECT_EQ(stats.metric("passes"), passes + 1.0);
}

TEST(Lagrangian, BoundsEveryFeasiblePlanFromBelow) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed + 60);
    const auto instance = make_random_instance(rng, 10, 3, 2);
    const CostModel model(instance);
    const auto bound = lagrangian_lower_bound(model);
    const Plan greedy = plan_greedy(model, false);
    EXPECT_LE(bound.lower_bound, greedy.cost.total() + 1e-6)
        << "seed " << seed;
  }
}

TEST(Lagrangian, TightensWithBindingCapacity) {
  // When capacity binds, the multipliers must lift the bound above the
  // naive cheapest-site relaxation.
  ConsolidationInstance instance;
  instance.locations = {UserLocation{"l", {0, 0}}};
  for (int i = 0; i < 4; ++i) {
    ApplicationGroup group;
    group.name = "g" + std::to_string(i);
    group.servers = 2;
    group.users_per_location = {1.0};
    instance.groups.push_back(group);
  }
  DataCenterSite cheap;
  cheap.name = "cheap";
  cheap.capacity_servers = 4;  // only half the estate fits
  cheap.space_cost_per_server = StepSchedule::flat(10.0);
  DataCenterSite pricey = cheap;
  pricey.name = "pricey";
  pricey.capacity_servers = 100;
  pricey.space_cost_per_server = StepSchedule::flat(100.0);
  instance.sites = {cheap, pricey};
  instance.latency_ms = {{5.0}, {5.0}};
  const CostModel model(instance);
  const auto bound = lagrangian_lower_bound(model);
  // Naive relaxation: all four groups at the cheap site = 8 * 10 = 80.
  // True optimum: 4 servers cheap + 4 pricey = 40 + 400 = 440.
  EXPECT_GT(bound.lower_bound, 80.0 + 1.0);
  EXPECT_LE(bound.lower_bound, 440.0 + 1e-6);
}

}  // namespace
}  // namespace etransform
