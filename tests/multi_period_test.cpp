// Multi-period planning tests: the horizon-of-one differential against the
// static planner, optimality against a time-expanded brute force on tiny
// horizons, the locked-placement ("best static") dominance ordering, the
// online right-sizing baselines, the traffic-curve generators, and the
// .etfh horizon round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "baselines/online_rightsizing.h"
#include "common/error.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "model/horizon.h"
#include "model/instance_io.h"
#include "planner/etransform_planner.h"

namespace etransform {
namespace {

PlannerReport run_planner(const CostModel& model, PlanningHorizon horizon,
                          PlannerOptions options = {},
                          bool lock_placement = false) {
  options.milp.search.time_limit_ms =
      std::min(options.milp.search.time_limit_ms, 10000);
  const EtransformPlanner planner(options);
  PlanInput input(model, std::move(horizon));
  input.lock_placement = lock_placement;
  SolveContext ctx;
  return planner.plan(input, ctx);
}

/// Every period plan must satisfy that period's demand-scaled instance.
void expect_periods_feasible(const ConsolidationInstance& base,
                             const PlanningHorizon& horizon,
                             const MultiPeriodPlan& multi) {
  ASSERT_EQ(static_cast<int>(multi.periods.size()), horizon.num_periods());
  for (int t = 0; t < horizon.num_periods(); ++t) {
    const auto scaled = apply_period(base, horizon, t);
    EXPECT_TRUE(
        check_plan(scaled, multi.periods[static_cast<std::size_t>(t)]).empty())
        << "period " << t;
  }
}

// ---- the horizon-of-one differential ---------------------------------------

TEST(MultiPeriod, HorizonOfOneMatchesStaticExactly) {
  // The v2 contract: a single unit period at multiplier 1 is the classic
  // static problem, and the weighted horizon total equals the static monthly
  // total to the last bit of rounding.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 7000);
    const auto instance = make_random_instance(rng, 6, 3, 2);
    const CostModel model(instance);
    const PlannerReport static_report = run_planner(model, {});
    const PlannerReport horizon_report =
        run_planner(model, PlanningHorizon::uniform(1));
    ASSERT_TRUE(horizon_report.is_multi_period());
    EXPECT_FALSE(static_report.is_multi_period());
    EXPECT_NEAR(horizon_report.objective(), static_report.objective(),
                1e-9 * std::max(1.0, static_report.objective()))
        << "seed " << seed;
    EXPECT_EQ(horizon_report.multi.total_moves, 0);
    EXPECT_EQ(horizon_report.multi.cost.migration, 0.0);
    expect_periods_feasible(instance, PlanningHorizon::uniform(1),
                            horizon_report.multi);
  }
}

TEST(MultiPeriod, HorizonOfOneMatchesStaticOnHeuristicPath) {
  Rng rng(7100);
  const auto instance = make_random_instance(rng, 12, 4, 2);
  const CostModel model(instance);
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kHeuristic;
  const PlannerReport static_report = run_planner(model, {}, options);
  const PlannerReport horizon_report =
      run_planner(model, PlanningHorizon::uniform(1), options);
  ASSERT_TRUE(horizon_report.is_multi_period());
  EXPECT_FALSE(horizon_report.used_exact_solver);
  EXPECT_NEAR(horizon_report.objective(), static_report.objective(),
              1e-9 * std::max(1.0, static_report.objective()));
}

// ---- optimality against brute force on tiny horizons -----------------------

/// Exhaustively finds the cheapest feasible two-period trajectory: every
/// (period-0 assignment, period-1 assignment) pair, priced per period and
/// totalled by assemble_multi_period — the same rule the planner uses.
MultiPeriodPlan brute_force_two_periods(const ConsolidationInstance& base,
                                        const PlanningHorizon& horizon) {
  const int n = base.num_groups();
  const int sites = base.num_sites();
  std::vector<ConsolidationInstance> scaled;
  std::vector<CostModel> models;
  scaled.reserve(2);
  for (int t = 0; t < 2; ++t) scaled.push_back(apply_period(base, horizon, t));
  // CostModel holds a reference; the vector is fully built first.
  models.reserve(2);
  for (int t = 0; t < 2; ++t) models.emplace_back(scaled[t]);

  const auto enumerate_plans = [&](int t) {
    std::vector<Plan> feasible;
    std::vector<int> assignment(static_cast<std::size_t>(n), 0);
    while (true) {
      Plan candidate;
      candidate.primary = assignment;
      if (check_plan(scaled[static_cast<std::size_t>(t)], candidate).empty()) {
        models[static_cast<std::size_t>(t)].price_plan(candidate);
        feasible.push_back(candidate);
      }
      int k = 0;
      while (k < n) {
        if (++assignment[static_cast<std::size_t>(k)] < sites) break;
        assignment[static_cast<std::size_t>(k)] = 0;
        ++k;
      }
      if (k == n) break;
    }
    return feasible;
  };

  const std::vector<Plan> first = enumerate_plans(0);
  const std::vector<Plan> second = enumerate_plans(1);
  MultiPeriodPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Plan& p0 : first) {
    for (const Plan& p1 : second) {
      MultiPeriodPlan candidate =
          assemble_multi_period(base, horizon, {p0, p1}, "brute");
      if (candidate.cost.total() < best_cost) {
        best_cost = candidate.cost.total();
        best = std::move(candidate);
      }
    }
  }
  return best;
}

TEST(MultiPeriod, MatchesBruteForceOnTinyHorizons) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed + 7200);
    const auto instance = make_random_instance(rng, 4, 3, 2);
    PlanningHorizon horizon;
    horizon.periods.resize(2);
    horizon.periods[0].multiplier = 1.0;
    horizon.periods[1].multiplier = 0.5;
    horizon.migration_cost_per_server = 3.0;
    const MultiPeriodPlan reference =
        brute_force_two_periods(instance, horizon);

    const CostModel model(instance);
    PlannerOptions options;
    options.engine = PlannerOptions::Engine::kExact;
    const PlannerReport report = run_planner(model, horizon, options);
    ASSERT_TRUE(report.is_multi_period());
    EXPECT_TRUE(report.used_exact_solver);
    expect_periods_feasible(instance, horizon, report.multi);
    EXPECT_NEAR(report.multi.cost.total(), reference.cost.total(),
                1e-6 * std::max(1.0, reference.cost.total()))
        << "seed " << seed;
  }
}

// ---- dominance orderings ---------------------------------------------------

PlanningHorizon rightsizing_curve() {
  TrafficCurveSpec spec;
  spec.num_periods = 4;
  spec.trough_multiplier = 0.25;
  spec.migration_cost_per_server = 0.5;
  return make_traffic_curve(spec);
}

TEST(MultiPeriod, TimeExpandedBeatsLockedStaticOnRightsizingEstate) {
  // The estate is shaped so troughs pack into cheap sites: following demand
  // must strictly beat holding the peak placement all horizon long.
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  const PlanningHorizon horizon = rightsizing_curve();
  const PlannerReport expanded = run_planner(model, horizon);
  const PlannerReport locked =
      run_planner(model, horizon, {}, /*lock_placement=*/true);
  ASSERT_TRUE(expanded.proven_optimal);
  ASSERT_TRUE(locked.proven_optimal);
  EXPECT_GT(expanded.multi.total_moves, 0);
  EXPECT_EQ(locked.multi.total_moves, 0);
  EXPECT_LT(expanded.objective(), locked.objective() - 1e-6);
  expect_periods_feasible(instance, horizon, expanded.multi);
  expect_periods_feasible(instance, horizon, locked.multi);
}

TEST(MultiPeriod, HeuristicFallbackKeepsTheTreesNodesAndBound) {
  // Without the root dive, a search capped at 4 nodes finds no incumbent on
  // the right-sizing estate, so the planner falls back to the per-period
  // heuristic. The tree still explored its budget and proved a bound, which
  // the heuristic path alone does not have.
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  options.milp.search.root_dive = false;
  options.milp.search.max_nodes = 4;
  const PlannerReport report =
      run_planner(model, rightsizing_curve(), options);
  EXPECT_FALSE(report.used_exact_solver);
  EXPECT_EQ(report.root_basis, nullptr);  // the heuristic's report
  EXPECT_GT(report.milp_nodes, 0);
  ASSERT_TRUE(std::isfinite(report.lower_bound));
  EXPECT_GT(report.lower_bound, 0.0);
  EXPECT_LE(report.lower_bound, report.multi.cost.total());
  expect_periods_feasible(instance, rightsizing_curve(), report.multi);
}

TEST(MultiPeriod, DrSurrogateClaimsNeitherProofNorBound) {
  // A J limit of 0 puts shared DR sizing on the dedicated-sizing
  // surrogate. The surrogate over-sizes backups, so the tree that proves it
  // optimal proves nothing about the shared plan, and its bound can exceed
  // the shared optimum.
  Rng rng(7300);
  const auto instance = make_random_instance(rng, 4, 3, 2);
  const CostModel model(instance);
  PlanningHorizon horizon;
  horizon.periods.resize(2);
  horizon.periods[0].multiplier = 1.0;
  horizon.periods[1].multiplier = 0.5;
  horizon.migration_cost_per_server = 3.0;
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  options.enable_dr = true;
  options.joint_dr_var_limit = 0;
  const PlannerReport shared = run_planner(model, horizon, options);
  // The same tree under dedicated sizing, where the surrogate is the model.
  options.dr_sizing = PlannerOptions::DrSizing::kDedicated;
  const PlannerReport dedicated = run_planner(model, horizon, options);
  ASSERT_TRUE(dedicated.proven_optimal);
  ASSERT_TRUE(std::isfinite(dedicated.lower_bound));
  EXPECT_EQ(shared.milp_nodes, dedicated.milp_nodes);
  EXPECT_TRUE(shared.used_exact_solver);
  EXPECT_FALSE(shared.proven_optimal);
  EXPECT_TRUE(std::isnan(shared.lower_bound));
  expect_periods_feasible(instance, horizon, shared.multi);
}

TEST(MultiPeriod, SearchStaysWithinItsNodeBudget) {
  // The search stops at its node budget, with some of the tree explored.
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  for (const int budget : {5, 10}) {
    PlannerOptions options;
    options.engine = PlannerOptions::Engine::kExact;
    options.milp.search.max_nodes = budget;
    const PlannerReport report =
        run_planner(model, rightsizing_curve(), options);
    EXPECT_GT(report.milp_nodes, 0) << "budget " << budget;
    EXPECT_LE(report.milp_nodes, budget) << "budget " << budget;
  }
}

TEST(MultiPeriod, OnlineNeverBeatsProvenOptimalOffline) {
  // The offline time-expanded optimum sees the whole horizon; no online play
  // can beat it (they are totalled by the same assemble_multi_period rule).
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  const PlanningHorizon horizon = rightsizing_curve();
  const PlannerReport offline = run_planner(model, horizon);
  ASSERT_TRUE(offline.proven_optimal);
  for (const auto variant : {OnlineRightSizingOptions::Variant::kLazy,
                             OnlineRightSizingOptions::Variant::kProbabilistic}) {
    OnlineRightSizingOptions options;
    options.variant = variant;
    const MultiPeriodPlan online =
        plan_online_rightsizing(model, horizon, options);
    expect_periods_feasible(instance, horizon, online);
    EXPECT_GE(online.cost.total(), offline.objective() - 1e-6)
        << to_string(variant);
  }
}

TEST(MultiPeriod, ProhibitiveMigrationCostFreezesTheOnlinePlayer) {
  // A horizon that starts at the peak and only shrinks: demand never forces
  // a move, and with an astronomic move price the lazy player's regret never
  // reaches the threshold — the initial placement must persist.
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  PlanningHorizon horizon = PlanningHorizon::uniform(4, 1e9);
  horizon.periods[1].multiplier = 0.5;
  horizon.periods[2].multiplier = 0.25;
  horizon.periods[3].multiplier = 0.5;
  const MultiPeriodPlan online = plan_online_rightsizing(model, horizon);
  EXPECT_EQ(online.total_moves, 0);
  EXPECT_EQ(online.cost.migration, 0.0);
}

TEST(MultiPeriod, OnlineDegeneratesToGreedyOnStaticHorizon) {
  Rng rng(7300);
  const auto instance = make_random_instance(rng, 8, 4, 2);
  const CostModel model(instance);
  const MultiPeriodPlan online = plan_online_rightsizing(model, {});
  ASSERT_EQ(online.periods.size(), 1u);
  EXPECT_TRUE(check_plan(instance, online.periods.front()).empty());
  EXPECT_EQ(online.total_moves, 0);
}

// ---- traffic-curve generators ----------------------------------------------

TEST(MultiPeriod, DiurnalCurveCyclesBetweenTroughAndPeak) {
  TrafficCurveSpec spec;
  spec.num_periods = 8;
  spec.peak_multiplier = 1.2;
  spec.trough_multiplier = 0.4;
  const PlanningHorizon horizon = make_traffic_curve(spec);
  ASSERT_EQ(horizon.num_periods(), 8);
  double low = std::numeric_limits<double>::infinity();
  double high = -low;
  for (int t = 0; t < 8; ++t) {
    const double m = horizon.multiplier(t, 0);
    EXPECT_GE(m, spec.trough_multiplier - 1e-9);
    EXPECT_LE(m, spec.peak_multiplier + 1e-9);
    low = std::min(low, m);
    high = std::max(high, m);
  }
  EXPECT_NEAR(low, spec.trough_multiplier, 1e-9);
  EXPECT_NEAR(high, spec.peak_multiplier, 1e-9);
  // The cycle starts in the trough and peaks half way through.
  EXPECT_NEAR(horizon.multiplier(0, 0), spec.trough_multiplier, 1e-9);
  EXPECT_NEAR(horizon.multiplier(4, 0), spec.peak_multiplier, 1e-9);
}

TEST(MultiPeriod, AntiphaseGroupsRunHalfACycleOut) {
  TrafficCurveSpec spec;
  spec.num_periods = 4;
  spec.antiphase_fraction = 0.5;
  spec.num_groups = 8;
  const PlanningHorizon horizon = make_traffic_curve(spec);
  // Some group must peak when the base curve troughs.
  bool any_antiphase = false;
  for (int i = 0; i < spec.num_groups; ++i) {
    if (std::abs(horizon.multiplier(0, i) - horizon.multiplier(2, i)) < 1e-9) {
      continue;
    }
    if (horizon.multiplier(0, i) > horizon.multiplier(2, i)) {
      any_antiphase = true;
    }
  }
  EXPECT_TRUE(any_antiphase);
  // And the result is a valid horizon for any instance with 8 groups.
  Rng rng(7400);
  const auto instance = make_random_instance(rng, 8, 3, 2);
  EXPECT_NO_THROW(validate_horizon(instance, horizon));
}

TEST(MultiPeriod, AddFailurePeriodKeepsTheWeightConvention) {
  TrafficCurveSpec spec;
  spec.num_periods = 3;
  spec.period_weight = 0.0;  // the auto-1/T convention
  PlanningHorizon horizon = make_traffic_curve(spec);
  add_failure_period(horizon, {0});
  ASSERT_EQ(horizon.num_periods(), 4);
  EXPECT_EQ(horizon.periods.back().failed_sites, std::vector<int>{0});
  // Mixed zero/nonzero weights are invalid; the helper must keep all-zero.
  EXPECT_EQ(horizon.periods.back().weight, 0.0);
  const auto instance = make_rightsizing_estate({});
  EXPECT_NO_THROW(validate_horizon(instance, horizon));
}

TEST(MultiPeriod, FailedSiteIsEvacuated) {
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  PlanningHorizon horizon = PlanningHorizon::uniform(1);
  horizon.periods[0].multiplier = 0.5;  // leave room to evacuate site 3
  add_failure_period(horizon, {3}, 0.5);
  const PlannerReport report = run_planner(model, horizon);
  ASSERT_TRUE(report.is_multi_period());
  for (const int j : report.multi.periods.back().primary) EXPECT_NE(j, 3);
  expect_periods_feasible(instance, horizon, report.multi);
}

TEST(MultiPeriod, CurveSpecValidation) {
  TrafficCurveSpec bad;
  bad.num_periods = 0;
  EXPECT_THROW((void)make_traffic_curve(bad), InvalidInputError);
  bad = {};
  bad.trough_multiplier = 1.5;  // above the peak
  EXPECT_THROW((void)make_traffic_curve(bad), InvalidInputError);
  bad = {};
  bad.antiphase_fraction = 0.5;  // requires num_groups
  EXPECT_THROW((void)make_traffic_curve(bad), InvalidInputError);
}

// ---- horizon file round-trip -----------------------------------------------

TEST(MultiPeriod, HorizonFileRoundTrips) {
  const auto instance = make_rightsizing_estate({});
  TrafficCurveSpec spec;
  spec.num_periods = 3;
  spec.migration_cost_per_server = 2.5;
  spec.antiphase_fraction = 0.25;
  spec.num_groups = instance.num_groups();
  PlanningHorizon horizon = make_traffic_curve(spec);
  add_failure_period(horizon, {1, 2});

  const std::string text = write_horizon(horizon, instance);
  const PlanningHorizon parsed = parse_horizon(text, instance);
  ASSERT_EQ(parsed.num_periods(), horizon.num_periods());
  EXPECT_EQ(parsed.migration_cost_per_server,
            horizon.migration_cost_per_server);
  for (int t = 0; t < horizon.num_periods(); ++t) {
    EXPECT_EQ(parsed.period_name(t), horizon.period_name(t));
    EXPECT_NEAR(parsed.period_weight(t), horizon.period_weight(t), 1e-12);
    for (int i = 0; i < instance.num_groups(); ++i) {
      EXPECT_NEAR(parsed.multiplier(t, i), horizon.multiplier(t, i), 1e-12)
          << "t=" << t << " i=" << i;
    }
    EXPECT_EQ(parsed.periods[static_cast<std::size_t>(t)].failed_sites,
              horizon.periods[static_cast<std::size_t>(t)].failed_sites);
  }
  // The canonical encodings agree too (the daemon's cache-key property).
  EXPECT_EQ(horizon_fingerprint(parsed), horizon_fingerprint(horizon));
}

TEST(MultiPeriod, RejectsNonFiniteMigrationCost) {
  const auto instance = make_rightsizing_estate({});
  TrafficCurveSpec spec;
  spec.num_periods = 2;
  spec.migration_cost_per_server = 2.5;
  spec.num_groups = instance.num_groups();
  const PlanningHorizon curve = make_traffic_curve(spec);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    PlanningHorizon horizon = curve;
    horizon.migration_cost_per_server = bad;
    EXPECT_THROW(validate_horizon(instance, horizon), InvalidInputError)
        << bad;
    PlanningHorizon single;  // static horizons check it too
    single.migration_cost_per_server = bad;
    EXPECT_THROW(validate_horizon(instance, single), InvalidInputError)
        << bad;
  }
  // Through the horizon file: the finite text round-trips, and a NaN or
  // infinite migration cost parses as a number but fails validation.
  const std::string text = write_horizon(curve, instance);
  EXPECT_EQ(write_horizon(parse_horizon(text, instance), instance), text);
  const std::string field = "migration_cost 2.5\n";
  const auto at = text.find(field);
  ASSERT_NE(at, std::string::npos) << text;
  for (const char* spelling : {"nan", "inf", "-inf"}) {
    std::string bad = text;
    bad.replace(at, field.size(),
                "migration_cost " + std::string(spelling) + "\n");
    EXPECT_THROW((void)parse_horizon(bad, instance), InvalidInputError)
        << spelling;
  }
}

TEST(MultiPeriod, HorizonFingerprintSpellsEveryNumberExactly) {
  EXPECT_EQ(horizon_fingerprint(PlanningHorizon{}), "");
  PlanningHorizon base = PlanningHorizon::uniform(2, 1.0);
  for (auto& period : base.periods) period.weight = 1.0;
  base.periods[1].group_multipliers = {0.5, 2.0};
  const std::string fp = horizon_fingerprint(base);
  // Round numbers keep their short spelling.
  EXPECT_EQ(fp, "T=2;mig=1;p0:w=1,m=1;p1:w=1,gm=0.5|2");
  // Each variant equals `base` to 12 significant digits, so a %.12g
  // encoding would have given it base's cache key.
  const double near_one = 1.0 + 1e-12;
  std::vector<PlanningHorizon> variants(4, base);
  variants[0].migration_cost_per_server = near_one;
  variants[1].periods[1].weight = near_one;
  variants[2].periods[0].multiplier = near_one;
  variants[3].periods[1].group_multipliers[1] = 2.0 * near_one;
  for (const PlanningHorizon& variant : variants) {
    EXPECT_NE(horizon_fingerprint(variant), fp);
  }
}

}  // namespace
}  // namespace etransform
