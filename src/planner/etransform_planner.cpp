#include "planner/etransform_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "baselines/baselines.h"
#include "common/error.h"
#include "common/logging.h"
#include "lp/presolve.h"
#include "planner/formulation.h"
#include "planner/lagrangian.h"

namespace etransform {

namespace {

/// Number of feasible (group, site) assignment pairs.
long long count_assignment_vars(const ConsolidationInstance& instance) {
  long long count = 0;
  for (const auto& group : instance.groups) {
    for (int j = 0; j < instance.num_sites(); ++j) {
      if (group_allowed_at(group, j) &&
          instance.sites[static_cast<std::size_t>(j)].capacity_servers >=
              group.servers) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

EtransformPlanner::EtransformPlanner(PlannerOptions options)
    : options_(options) {}

PlannerReport EtransformPlanner::plan(const PlanInput& input,
                                      SolveContext& ctx) const {
  if (input.model == nullptr) {
    throw InvalidInputError("planner: PlanInput.model is required");
  }
  if (input.horizon.is_static() && input.lock_placement) {
    throw InvalidInputError(
        "planner: lock_placement needs a non-static horizon");
  }
  SolveScope scope(ctx, "planner");
  PlannerReport report =
      input.horizon.is_static() ? plan_dispatch(input, ctx)
                                : plan_multi_period(input, ctx);
  scope.close();
  report.stats = scope.stats();
  report.interrupted = ctx.should_stop();
  return report;
}

PlannerReport EtransformPlanner::plan_dispatch(const PlanInput& input,
                                               SolveContext& ctx) const {
  const CostModel& model = *input.model;
  const auto& instance = model.instance();
  const long long x_vars = count_assignment_vars(instance);
  const long long joint_j_vars =
      x_vars * static_cast<long long>(instance.num_sites());

  using Engine = PlannerOptions::Engine;
  Engine engine = options_.engine;
  if (engine == Engine::kAuto) {
    engine = x_vars <= options_.exact_var_limit ? Engine::kExact
                                                : Engine::kHeuristic;
  }

  if (engine == Engine::kHeuristic) {
    return plan_heuristic(model, ctx);
  }

  // Exact path.
  if (!options_.enable_dr) {
    return plan_exact(input, /*joint_dr=*/false, ctx);
  }
  if (options_.dr_sizing == PlannerOptions::DrSizing::kDedicated) {
    // Dedicated sizing is a plain linear term: the "surrogate" formulation
    // is exact here, no sharing variables needed.
    return plan_exact(input, /*joint_dr=*/false, ctx);
  }
  if (joint_j_vars <= options_.joint_dr_var_limit) {
    return plan_exact(input, /*joint_dr=*/true, ctx);
  }
  return plan_two_stage_dr(model, /*exact_stage1=*/true, ctx);
}

namespace {

/// Solves a formulation MILP through the presolve -> branch-and-bound
/// pipeline: presolve shrinks the model (the formulations carry plenty of
/// singleton tier rows), B&B solves the reduction, and the incumbent is
/// postsolved back to formulation variable indices. Returns kInfeasible
/// directly when presolve proves it. options.presolve.enable skips the
/// reduction entirely (useful for A/B runs and for keeping the
/// formulation's row-structure tags visible to the cover separator).
milp::MilpSolution solve_formulation_milp(
    const lp::Model& model, const milp::SolverOptions& options,
    SolveContext& ctx, const lp::NamedBasis* root_warm,
    std::shared_ptr<const lp::NamedBasis>* named_root_out) {
  const milp::BranchAndBoundSolver solver(options);
  // `root_warm` comes from a solve of a *variant* of this model (the
  // iterative replan loop): remap it by name onto the standard form this
  // solve is actually going to run — the delta may have added or removed
  // columns/rows, and presolve may reduce the two models differently.
  const auto warm_for = [&](const lp::Model& solved) {
    std::optional<lp::BasisSnapshot> mapped;
    if (root_warm != nullptr) mapped = lp::remap_basis(*root_warm, solved);
    return mapped;
  };
  // Names the solved model's root basis for the report, so a future replan
  // can remap it in turn.
  const auto name_root = [&](const milp::MilpSolution& solution,
                             const lp::Model& solved) {
    if (named_root_out == nullptr || solution.root_basis == nullptr) return;
    *named_root_out = std::make_shared<const lp::NamedBasis>(
        lp::name_basis(solved, *solution.root_basis));
  };
  if (!options.presolve.enable) {
    const std::optional<lp::BasisSnapshot> warm = warm_for(model);
    milp::MilpSolution solution =
        solver.solve(model, ctx, warm ? &*warm : nullptr);
    name_root(solution, model);
    return solution;
  }
  const lp::PresolveResult presolved = lp::presolve(model, ctx);
  if (presolved.status == lp::PresolveStatus::kInfeasible) {
    milp::MilpSolution solution;
    solution.status = milp::MilpStatus::kInfeasible;
    return solution;
  }
  ET_LOG(kInfo) << "planner: presolve removed " << presolved.vars_removed
                << " vars, " << presolved.rows_removed << " rows";
  const std::optional<lp::BasisSnapshot> warm = warm_for(presolved.reduced);
  milp::MilpSolution solution =
      solver.solve(presolved.reduced, ctx, warm ? &*warm : nullptr);
  name_root(solution, presolved.reduced);
  if (solution.has_incumbent()) {
    solution.values = lp::postsolve(presolved, solution.values);
  }
  return solution;
}

/// True when a MILP solve delivered an incumbent that can be decoded into a
/// plan (optimal, budget-limited, or interrupted with a solution in hand).
bool usable_incumbent(const milp::MilpSolution& solution) {
  switch (solution.status) {
    case milp::MilpStatus::kOptimal:
    case milp::MilpStatus::kFeasible:
      return true;
    case milp::MilpStatus::kTimeLimit:
    case milp::MilpStatus::kCancelled:
      return solution.has_incumbent();
    case milp::MilpStatus::kInfeasible:
    case milp::MilpStatus::kUnbounded:
    case milp::MilpStatus::kNoSolutionFound:
      return false;
  }
  return false;
}

/// A heuristic fallback after a solve without an incumbent still reports
/// the tree's work: its node count, and its dual bound when that beats the
/// heuristic's own (both are valid lower bounds; a NaN one loses to the
/// other), never above the fallback plan's `plan_cost`.
void keep_tree_work(const milp::MilpSolution& solution, double plan_cost,
                    PlannerReport& fallback) {
  fallback.milp_nodes = solution.nodes;
  if (std::isfinite(solution.best_bound)) {
    fallback.lower_bound = std::min(
        std::fmax(fallback.lower_bound, solution.best_bound), plan_cost);
  }
}

}  // namespace

PlannerReport EtransformPlanner::plan_exact(const PlanInput& input,
                                            bool joint_dr,
                                            SolveContext& ctx) const {
  const CostModel& model = *input.model;
  const bool multi_period = !input.horizon.is_static();
  const bool dedicated =
      options_.dr_sizing == PlannerOptions::DrSizing::kDedicated;
  FormulationOptions formulation_options;
  formulation_options.enable_dr = options_.enable_dr;
  formulation_options.business_impact_omega = options_.business_impact_omega;
  formulation_options.economies_of_scale = options_.economies_of_scale;
  formulation_options.backup_sizing = joint_dr ? BackupSizing::kSharedJoint
                                               : BackupSizing::kDedicated;
  formulation_options.decode_dedicated_counts = dedicated;
  formulation_options.horizon = &input.horizon;
  formulation_options.lock_placement = input.lock_placement;
  Formulation formulation;
  {
    SolveScope formulation_scope(ctx, "formulation");
    formulation = build_formulation(model, formulation_options);
    formulation_scope.stats().add("variables",
                                  formulation.model.num_variables());
    formulation_scope.stats().add("rows",
                                  formulation.model.num_constraints());
    formulation_scope.stats().add("periods", input.horizon.num_periods());
  }
  ET_LOG(kInfo) << "planner: exact MILP over "
                << input.horizon.num_periods() << " period(s) with "
                << formulation.model.num_variables() << " vars, "
                << formulation.model.num_constraints() << " rows";
  // The heuristic a starved or budget-limited solve falls back to or races:
  // per-period solves with migration smoothing over a horizon.
  const auto heuristic = [&] {
    return multi_period ? plan_multi_heuristic(input, ctx)
                        : plan_heuristic(model, ctx);
  };

  std::shared_ptr<const lp::NamedBasis> named_root;
  milp::MilpSolution solution = solve_formulation_milp(
      formulation.model, options_.milp, ctx, input.root_warm, &named_root);
  // Shared DR sizing solved over the dedicated surrogate (two-stage stage 1,
  // or a horizon over joint_dr_var_limit): the surrogate over-sizes
  // backups, so its bound can exceed the shared-sizing optimum and its
  // proof covers the surrogate only. The report claims neither.
  const bool surrogate = options_.enable_dr && !joint_dr && !dedicated;
  const bool tree_optimal = solution.status == milp::MilpStatus::kOptimal;
  if (surrogate) solution.best_bound = std::numeric_limits<double>::quiet_NaN();
  switch (solution.status) {
    case milp::MilpStatus::kInfeasible:
      throw InfeasibleError("planner: instance admits no feasible plan");
    case milp::MilpStatus::kUnbounded:
      throw UnboundedError("planner: formulation unbounded (modelling bug)");
    default:
      break;
  }
  if (!usable_incumbent(solution)) {
    if (input.lock_placement) {
      throw InfeasibleError(
          "planner: locked multi-period solve ended (" +
          std::string(milp::to_string(solution.status)) +
          ") with no incumbent");
    }
    ET_LOG(kWarning) << "planner: exact solve ended ("
                     << milp::to_string(solution.status)
                     << ") with no incumbent; falling back to heuristic";
    PlannerReport fallback = heuristic();
    keep_tree_work(solution, fallback.objective(), fallback);
    return fallback;
  }

  PlannerReport report;
  if (multi_period) {
    report.multi = decode_multi_period_plan(model, formulation,
                                            formulation_options,
                                            solution.values, "etransform");
    report.plan = report.multi.periods.front();
  } else {
    report.plan = decode_plan(model, formulation, formulation_options,
                              solution.values, "etransform");
  }
  report.used_exact_solver = true;
  report.proven_optimal = tree_optimal && !surrogate;
  report.lower_bound = solution.best_bound;
  report.milp_nodes = solution.nodes;
  report.root_basis = named_root;
  // Polish (static plans): a proven optimum cannot improve, but
  // budget-limited incumbents and shared-mode plans decoded from the
  // dedicated surrogate often do. Budget-limited trees also race the
  // heuristic plan (solution-pool style) so a starved branch-and-bound
  // never returns something greedy would beat; locked solves have no
  // heuristic counterpart. A context-level interruption (deadline/cancel
  // still in force out here, unlike the MILP's own time_limit_ms) skips
  // both: the caller asked us to stop.
  const bool stopped = ctx.should_stop();
  if (!multi_period && !stopped && !report.proven_optimal) {
    SolveScope polish_scope(ctx, "local_search");
    LocalSearchOptions polish = options_.local_search;
    polish.dedicated_backups = dedicated;
    if (options_.business_impact_omega < 1.0) {
      polish.max_groups_per_site = static_cast<int>(
          options_.business_impact_omega * model.instance().num_groups());
    }
    improve_plan(model, report.plan, polish, &polish_scope.stats());
  }
  if (!stopped && !tree_optimal && !input.lock_placement) {
    PlannerReport raced = heuristic();
    if (raced.objective() < report.objective()) {
      report.plan = std::move(raced.plan);
      report.multi = std::move(raced.multi);
      report.used_exact_solver = false;
    }
  }
  return report;
}

PlannerReport EtransformPlanner::plan_two_stage_dr(const CostModel& model,
                                                   bool exact_stage1,
                                                   SolveContext& ctx) const {
  // Stage 1: joint placement with the dedicated-sizing surrogate.
  PlannerReport stage1;
  {
    SolveScope stage1_scope(ctx, "stage1");
    if (exact_stage1) {
      stage1 = plan_exact(PlanInput(model), /*joint_dr=*/false, ctx);
    } else {
      stage1 = plan_heuristic(model, ctx);
    }
  }
  if (ctx.should_stop()) {
    return stage1;  // deadline/cancel hit inside stage 1: best effort out
  }

  // Stage 2: primaries fixed, exact shared sizing of the secondaries.
  SolveScope stage2_scope(ctx, "stage2");
  FormulationOptions formulation_options;
  formulation_options.enable_dr = true;
  formulation_options.business_impact_omega = options_.business_impact_omega;
  formulation_options.economies_of_scale = options_.economies_of_scale;
  formulation_options.backup_sizing = BackupSizing::kSharedFixedPrimary;
  formulation_options.fixed_primary = &stage1.plan.primary;
  const Formulation formulation = build_formulation(model,
                                                    formulation_options);
  ET_LOG(kInfo) << "planner: stage-2 DR MILP with "
                << formulation.model.num_variables() << " vars";
  const milp::MilpSolution solution = solve_formulation_milp(
      formulation.model, options_.milp, ctx, nullptr, nullptr);

  PlannerReport report;
  if (usable_incumbent(solution)) {
    report.plan = decode_plan(model, formulation, formulation_options,
                              solution.values, "etransform");
    report.used_exact_solver = true;
    report.milp_nodes = solution.nodes;
  } else {
    // Keep the stage-1 secondaries.
    report = stage1;
  }
  // Final polish may relocate primaries now that sharing is in effect.
  if (!ctx.should_stop()) {
    SolveScope polish_scope(ctx, "local_search");
    improve_plan(model, report.plan, options_.local_search,
                 &polish_scope.stats());
  }
  if (report.plan.cost.total() > stage1.plan.cost.total()) {
    report.plan = stage1.plan;  // never return worse than stage 1
  }
  report.plan.algorithm = "etransform";
  return report;
}

namespace {

/// Builds a seed that concentrates primaries on the `piles` cheapest sites
/// (balanced, largest group first, latency-aware) and — in DR mode — places
/// secondaries share-aware. Returns std::nullopt when no feasible seed with
/// that pile count exists.
std::optional<Plan> spread_seed_plan(const CostModel& model, int piles,
                                     bool with_dr, bool dedicated,
                                     int max_groups_per_site) {
  const auto& instance = model.instance();
  const int num_sites = instance.num_sites();
  const int num_groups = instance.num_groups();
  if (piles < 1 || piles > num_sites) return std::nullopt;

  // Rank sites by base per-server cost.
  const auto& params = instance.params;
  std::vector<int> ranked(static_cast<std::size_t>(num_sites));
  std::iota(ranked.begin(), ranked.end(), 0);
  std::vector<double> per_server(static_cast<std::size_t>(num_sites));
  for (int j = 0; j < num_sites; ++j) {
    const auto& site = instance.sites[static_cast<std::size_t>(j)];
    per_server[static_cast<std::size_t>(j)] =
        site.space_cost_per_server.unit_price(0.0) +
        site.power_cost_per_kwh.unit_price(0.0) * params.server_power_kw *
            params.hours_per_month +
        site.labor_cost_per_admin.unit_price(0.0) / params.servers_per_admin;
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return per_server[static_cast<std::size_t>(a)] <
           per_server[static_cast<std::size_t>(b)];
  });
  const std::vector<int> pile_sites(ranked.begin(), ranked.begin() + piles);

  // Balanced primary assignment (largest groups first, least-loaded pile).
  std::vector<int> order(static_cast<std::size_t>(num_groups));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return instance.groups[static_cast<std::size_t>(a)].servers >
           instance.groups[static_cast<std::size_t>(b)].servers;
  });
  std::vector<long long> used(static_cast<std::size_t>(num_sites), 0);
  std::vector<int> pile_count(static_cast<std::size_t>(num_sites), 0);
  Plan plan;
  plan.algorithm = "etransform";
  plan.primary.assign(static_cast<std::size_t>(num_groups), -1);
  for (const int i : order) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    int best = -1;
    Money best_penalty = 0.0;
    long long best_load = 0;
    const auto consider = [&](int j) {
      if (!group_allowed_at(group, j)) return;
      // In DR mode leave backup headroom: fill to at most ~60% of capacity.
      const auto cap = static_cast<long long>(
          instance.sites[static_cast<std::size_t>(j)].capacity_servers);
      const long long fill_limit =
          with_dr ? std::max<long long>(group.servers, (cap * 3) / 5) : cap;
      if (used[static_cast<std::size_t>(j)] + group.servers > fill_limit) {
        return;
      }
      if (max_groups_per_site > 0 &&
          pile_count[static_cast<std::size_t>(j)] >= max_groups_per_site) {
        return;
      }
      // Latency-sensitive groups pick the pile near their users;
      // insensitive ones balance the piles.
      const Money penalty = model.placement_cost(i, j);
      const long long load = used[static_cast<std::size_t>(j)];
      if (best < 0 || penalty < best_penalty - 1e-9 ||
          (penalty < best_penalty + 1e-9 && load < best_load)) {
        best = j;
        best_penalty = penalty;
        best_load = load;
      }
    };
    for (const int j : pile_sites) consider(j);
    if (best < 0) {
      for (int j = 0; j < num_sites; ++j) consider(j);  // spill anywhere
    }
    if (best < 0) return std::nullopt;
    plan.primary[static_cast<std::size_t>(i)] = best;
    used[static_cast<std::size_t>(best)] += group.servers;
    pile_count[static_cast<std::size_t>(best)] += 1;
  }

  if (!with_dr) {
    if (!check_plan(instance, plan).empty()) return std::nullopt;
    model.price_plan(plan);
    return plan;
  }

  // Share-aware secondary assignment: pick the site whose backup pool grows
  // the least (weighted by backup capex + base space).
  std::vector<std::vector<long long>> load(
      static_cast<std::size_t>(num_sites),
      std::vector<long long>(static_cast<std::size_t>(num_sites), 0));
  std::vector<long long> pool(static_cast<std::size_t>(num_sites), 0);
  plan.secondary.assign(static_cast<std::size_t>(num_groups), -1);
  for (const int i : order) {
    const auto& group = instance.groups[static_cast<std::size_t>(i)];
    const int a = plan.primary[static_cast<std::size_t>(i)];
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int b = 0; b < num_sites; ++b) {
      if (b == a) continue;
      if (!group.allowed_sites.empty() &&
          std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                    b) == group.allowed_sites.end()) {
        continue;
      }
      const long long grown =
          dedicated ? pool[static_cast<std::size_t>(b)] + group.servers
                    : std::max(pool[static_cast<std::size_t>(b)],
                               load[static_cast<std::size_t>(a)][
                                   static_cast<std::size_t>(b)] +
                                   group.servers);
      const long long increase = grown - pool[static_cast<std::size_t>(b)];
      const auto cap = static_cast<long long>(
          instance.sites[static_cast<std::size_t>(b)].capacity_servers);
      if (used[static_cast<std::size_t>(b)] + grown > cap) continue;
      const double cost =
          static_cast<double>(increase) *
              (params.dr_server_cost +
               per_server[static_cast<std::size_t>(b)]) +
          model.placement_cost(i, b);
      if (cost < best_cost) {
        best_cost = cost;
        best = b;
      }
    }
    if (best < 0) return std::nullopt;
    plan.secondary[static_cast<std::size_t>(i)] = best;
    load[static_cast<std::size_t>(a)][static_cast<std::size_t>(best)] +=
        group.servers;
    pool[static_cast<std::size_t>(best)] =
        dedicated ? pool[static_cast<std::size_t>(best)] + group.servers
                  : std::max(pool[static_cast<std::size_t>(best)],
                             load[static_cast<std::size_t>(a)][
                                 static_cast<std::size_t>(best)]);
  }
  plan.backup_servers =
      dedicated
          ? dedicated_backup_servers(instance, plan.primary, plan.secondary)
          : required_backup_servers(instance, plan.primary, plan.secondary);
  if (!check_plan(instance, plan).empty()) return std::nullopt;
  model.price_plan(plan);
  return plan;
}

}  // namespace

PlannerReport EtransformPlanner::plan_heuristic(const CostModel& model,
                                                SolveContext& ctx) const {
  SolveScope scope(ctx, "heuristic");
  PlannerReport report;
  bool have_plan = false;
  const bool dedicated =
      options_.dr_sizing == PlannerOptions::DrSizing::kDedicated;
  // Business-impact cap (omega) carried into every seed and polish.
  const int num_groups = model.instance().num_groups();
  const int group_limit =
      options_.business_impact_omega < 1.0
          ? static_cast<int>(options_.business_impact_omega * num_groups)
          : 0;
  if (group_limit > 0 &&
      static_cast<long long>(group_limit) * model.instance().num_sites() <
          num_groups) {
    throw InfeasibleError(
        "planner: omega too tight — even spreading over every site exceeds "
        "the per-site group cap");
  }
  // Race several seeds through a light polish (first-improvement search is
  // basin-sensitive; the winner gets the full polish at the end).
  SolveScope race_scope(ctx, "seed_race");
  LocalSearchOptions light = options_.local_search;
  light.enable_swaps = false;
  light.max_passes = std::min(light.max_passes, 8);
  light.dedicated_backups = dedicated;
  light.max_groups_per_site = group_limit;
  const auto race = [&](Plan candidate) {
    candidate.algorithm = "etransform";
    improve_plan(model, candidate, light, &race_scope.stats());
    race_scope.stats().add("seeds_raced", 1.0);
    if (!have_plan || candidate.cost.total() < report.plan.cost.total()) {
      report.plan = std::move(candidate);
      have_plan = true;
    }
  };

  for (const bool volume_aware : {true, false}) {
    if (have_plan && ctx.should_stop()) break;
    GreedyOptions seed_options;
    seed_options.volume_aware = volume_aware;
    seed_options.max_groups_per_site = group_limit;
    Plan candidate = plan_greedy(model, options_.enable_dr, seed_options);
    if (options_.enable_dr && !dedicated) {
      // Greedy DR over-provisions (dedicated counts); normalize to the
      // single-failure sharing law before polishing.
      candidate.backup_servers = required_backup_servers(
          model.instance(), candidate.primary, candidate.secondary);
      model.price_plan(candidate);
    }
    race(std::move(candidate));
  }
  // The manual plan covers the "few big sites" basin local moves cannot
  // always reach (tier thresholds are lumpy). It ignores omega, so it only
  // qualifies as a seed when no cap is active.
  if (!options_.enable_dr && group_limit == 0) {
    try {
      race(plan_manual(model, false));
    } catch (const InfeasibleError&) {
      // Manual's a-priori site picking can dead-end; other seeds stand.
    }
  }
  // K-pile seeds: consolidation shapes for non-DR (deep volume tiers), and
  // in DR mode the spread shapes single moves cannot reach (lowering
  // max_a load(a,b) needs coordinated moves) — what Fig. 8 selects among.
  {
    const int num_sites = model.instance().num_sites();
    for (int piles = 1; piles <= num_sites; piles = piles < 8 ? piles + 1
                                                              : piles * 2) {
      if (have_plan && ctx.should_stop()) break;
      auto seed = spread_seed_plan(model, piles, options_.enable_dr,
                                   dedicated, group_limit);
      if (!seed.has_value()) continue;
      race(std::move(*seed));
    }
  }
  race_scope.close();
  // Full polish (swaps included) on the winning basin.
  if (!ctx.should_stop()) {
    SolveScope polish_scope(ctx, "local_search");
    LocalSearchOptions full = options_.local_search;
    full.dedicated_backups = dedicated;
    full.max_groups_per_site = group_limit;
    improve_plan(model, report.plan, full, &polish_scope.stats());
  }
  if (options_.compute_lower_bound && !options_.enable_dr &&
      !ctx.should_stop()) {
    SolveScope bound_scope(ctx, "lagrangian");
    report.lower_bound = lagrangian_lower_bound(model).lower_bound;
  }
  return report;
}

PlannerReport EtransformPlanner::plan_multi_period(const PlanInput& input,
                                                   SolveContext& ctx) const {
  const CostModel& model = *input.model;
  const auto& base = model.instance();
  const PlanningHorizon& horizon = input.horizon;
  validate_horizon(base, horizon);

  // Size gate on the total placement binaries across all periods.
  long long x_vars = 0;
  for (int t = 0; t < horizon.num_periods(); ++t) {
    x_vars += count_assignment_vars(apply_period(base, horizon, t));
  }
  using Engine = PlannerOptions::Engine;
  Engine engine = options_.engine;
  if (engine == Engine::kAuto) {
    engine = x_vars <= options_.exact_var_limit ? Engine::kExact
                                                : Engine::kHeuristic;
  }
  // The locked "best static plan over the horizon" competitor has a single
  // shared placement block only the MILP can express.
  if (input.lock_placement) engine = Engine::kExact;
  if (engine == Engine::kHeuristic) {
    return plan_multi_heuristic(input, ctx);
  }
  if (!options_.enable_dr ||
      options_.dr_sizing == PlannerOptions::DrSizing::kDedicated) {
    return plan_exact(input, /*joint_dr=*/false, ctx);
  }
  // Joint shared sizing replicates the J block per period; gate on the
  // total. Over the limit, the dedicated surrogate stands in and decode
  // recomputes the sharing law per period (there is no two-stage method in
  // multi-period mode — fixing primaries would also fix the migrations).
  const long long joint_j_vars =
      x_vars * static_cast<long long>(base.num_sites());
  return plan_exact(input, joint_j_vars <= options_.joint_dr_var_limit, ctx);
}

PlannerReport EtransformPlanner::plan_multi_heuristic(const PlanInput& input,
                                                      SolveContext& ctx)
    const {
  SolveScope scope(ctx, "multi_heuristic");
  const CostModel& model = *input.model;
  const auto& base = model.instance();
  const PlanningHorizon& horizon = input.horizon;
  const int num_periods = horizon.num_periods();
  const bool dedicated =
      options_.dr_sizing == PlannerOptions::DrSizing::kDedicated;

  // Per-period static heuristic solves against the period-scaled cost
  // models (instances must outlive the models and the smoothing pass).
  struct Period {
    ConsolidationInstance instance;
    std::optional<CostModel> cost;
  };
  std::vector<std::unique_ptr<Period>> periods;
  periods.reserve(static_cast<std::size_t>(num_periods));
  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(num_periods));
  for (int t = 0; t < num_periods; ++t) {
    auto period = std::make_unique<Period>();
    period->instance = apply_period(base, horizon, t);
    period->cost.emplace(period->instance);
    PlannerReport solved = plan_heuristic(*period->cost, ctx);
    plans.push_back(std::move(solved.plan));
    periods.push_back(std::move(period));
  }

  PlannerReport report;
  report.multi =
      assemble_multi_period(base, horizon, std::move(plans), "etransform");
  // Migration-aware smoothing: independently-optimal period plans churn
  // placements whose savings are below the switching cost; greedily revert
  // a move to the previous period's site whenever that lowers the horizon
  // total. Repeat until a pass finds nothing (reverting period t can make
  // period t+1's move a no-op or a new revert candidate).
  if (horizon.migration_cost_per_server > 0.0 && num_periods > 1) {
    SolveScope smooth_scope(ctx, "migration_smoothing");
    bool improved = true;
    int passes = 0;
    while (improved && passes++ < 8 && !ctx.should_stop()) {
      improved = false;
      for (int t = 1; t < num_periods; ++t) {
        for (int i = 0; i < base.num_groups(); ++i) {
          const int prev = report.multi.periods[static_cast<std::size_t>(
              t - 1)].primary[static_cast<std::size_t>(i)];
          Plan candidate = report.multi.periods[static_cast<std::size_t>(t)];
          if (candidate.primary[static_cast<std::size_t>(i)] == prev) {
            continue;
          }
          if (candidate.has_dr() &&
              candidate.secondary[static_cast<std::size_t>(i)] == prev) {
            continue;  // primary and secondary must stay distinct
          }
          candidate.primary[static_cast<std::size_t>(i)] = prev;
          const auto& instance_t =
              periods[static_cast<std::size_t>(t)]->instance;
          if (candidate.has_dr()) {
            candidate.backup_servers =
                dedicated ? dedicated_backup_servers(instance_t,
                                                     candidate.primary,
                                                     candidate.secondary)
                          : required_backup_servers(instance_t,
                                                    candidate.primary,
                                                    candidate.secondary);
          }
          if (!check_plan(instance_t, candidate).empty()) continue;
          periods[static_cast<std::size_t>(t)]->cost->price_plan(candidate);
          std::vector<Plan> candidate_plans = report.multi.periods;
          candidate_plans[static_cast<std::size_t>(t)] = std::move(candidate);
          MultiPeriodPlan smoothed = assemble_multi_period(
              base, horizon, std::move(candidate_plans), "etransform");
          if (smoothed.cost.total() <
              report.multi.cost.total() - 1e-9) {
            report.multi = std::move(smoothed);
            improved = true;
          }
        }
      }
      smooth_scope.stats().add("passes", 1.0);
    }
  }
  report.plan = report.multi.periods.front();
  return report;
}

}  // namespace etransform
