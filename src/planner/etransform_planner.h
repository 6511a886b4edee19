// The eTransform planner: turns an instance into a "to-be" plan.
//
// Engine selection mirrors the reproduction strategy documented in
// DESIGN.md:
//  * exact     — build the MILP (formulation.h) and solve it with
//                branch-and-bound. Used whenever the variable counts are
//                within a from-scratch solver's reach (the enterprise1 /
//                Florida scale, and all the Fig. 7-10 parameter studies).
//  * two-stage — DR only: stage 1 solves the joint placement with the
//                dedicated-sizing surrogate (or heuristically at very large
//                scale), stage 2 fixes the primaries and re-optimizes the
//                secondaries with the exact shared-sizing rows; a final
//                local-search polish may move primaries again.
//  * heuristic — greedy seed + exact-evaluation local search, with an
//                optional Lagrangian lower bound to certify the gap. Used at
//                the Federal scale (190k binaries), where the paper relied
//                on CPLEX.
// kAuto picks per instance size.
#pragma once

#include <limits>
#include <string>
#include <utility>

#include "common/solve_context.h"
#include "cost/cost_model.h"
#include "milp/branch_and_bound.h"
#include "model/horizon.h"
#include "model/plan.h"
#include "planner/local_search.h"

namespace etransform {

/// Planner configuration.
struct PlannerOptions {
  enum class Engine { kAuto, kExact, kHeuristic };
  Engine engine = Engine::kAuto;

  /// Also produce a disaster-recovery plan (paper §IV).
  bool enable_dr = false;
  /// DR backup sizing. kShared (default) plans for a single concurrent
  /// failure and shares backup pools across primaries (§IV-B). kDedicated
  /// gives every group its own backups — the paper's prescription for
  /// surviving multiple concurrent failures (§IV-A).
  enum class DrSizing { kShared, kDedicated };
  DrSizing dr_sizing = DrSizing::kShared;
  /// Business impact parameter omega: max fraction of groups per site.
  /// Enforced by the MILP engines; the heuristic path ignores it.
  double business_impact_omega = 1.0;
  /// Model volume discounts (tier binaries). Off = base-price ablation.
  bool economies_of_scale = true;

  /// Full MILP stack configuration for exact solves: search budget, root
  /// cutting planes, branching rule, simplex engine, and the presolve gate
  /// (milp.presolve.enable controls whether lp::presolve runs before
  /// branch-and-bound).
  milp::SolverOptions milp = default_solver_options();

  /// kAuto switches to the heuristic above this many assignment binaries.
  int exact_var_limit = 8000;
  /// kAuto uses the joint J_abc DR formulation up to this many J variables,
  /// then falls back to the two-stage method. (The joint LP has ~M*N^2 rows
  /// as well as variables, so this gate bounds solver memory and time.)
  int joint_dr_var_limit = 4096;

  LocalSearchOptions local_search;
  /// Compute the Lagrangian bound on heuristic solves (non-DR only).
  bool compute_lower_bound = false;

  static milp::SolverOptions default_solver_options() {
    milp::SolverOptions options;
    options.search.max_nodes = 20000;
    options.search.time_limit_ms = 60000;
    options.search.relative_gap = 1e-6;
    return options;
  }
};

/// Versioned planner input (wire api_version 2): the cost model of the base
/// demand snapshot plus the demand horizon it must be planned over. An
/// empty (static) horizon reproduces the classic single-snapshot problem
/// exactly. Non-owning pointers: the cost model (and the basis, when set)
/// must outlive the plan() call.
struct PlanInput {
  PlanInput() = default;
  /// Single-snapshot input: PlanInput(model). Set horizon / root_warm /
  /// lock_placement on the named object afterwards.
  explicit PlanInput(const CostModel& m) : model(&m) {}
  PlanInput(const CostModel& m, PlanningHorizon h)
      : model(&m), horizon(std::move(h)) {}

  /// Required. Prices the base snapshot; per-period models are derived from
  /// its instance via apply_period.
  const CostModel* model = nullptr;
  /// Demand timeline. is_static() == true plans the single snapshot.
  PlanningHorizon horizon;
  /// Optional warm-start basis from a previous solve's
  /// PlannerReport::root_basis (the iterative replan loop); remapped by
  /// variable/row name, always advisory.
  const lp::NamedBasis* root_warm = nullptr;
  /// Multi-period only: share one placement across all periods — the "best
  /// static plan over the horizon" competitor (solved exactly; the
  /// heuristic engine does not support it).
  bool lock_placement = false;
};

/// The plan plus solver provenance and the solve's observability record.
struct PlannerReport {
  Plan plan;
  /// Multi-period solve result: per-period plans plus weighted totals and
  /// the migration charge. Empty on static solves; `plan` mirrors
  /// multi.periods.front() so single-snapshot consumers keep working.
  MultiPeriodPlan multi;
  /// True if the plan came out of the MILP solver (possibly polished).
  bool used_exact_solver = false;
  /// True if optimality was proven (exact solve closed the gap).
  bool proven_optimal = false;
  /// True when the solve was cut short by the SolveContext deadline or a
  /// cancellation request (the plan is the best found by then).
  bool interrupted = false;
  /// Lower bound on the optimal total cost (MILP bound or Lagrangian bound);
  /// NaN when not computed.
  double lower_bound = std::numeric_limits<double>::quiet_NaN();
  /// Branch-and-bound nodes expanded (0 on pure-heuristic solves).
  int milp_nodes = 0;
  /// The "planner" stats subtree: per-stage wall times (formulation /
  /// presolve / branch-and-bound with root LP / local-search polish /
  /// heuristic seeds), aggregated simplex counters, and the MILP
  /// incumbent/bound trace. render_solve_stats() in report/ prints it.
  SolveStats stats;
  /// Root-relaxation basis of the exact MILP solve, annotated with the
  /// variable/row names of the standard form branch-and-bound actually
  /// solved (the presolved reduction when presolve ran). Hand it back
  /// through plan()'s `root_warm` on the next solve of a modified variant
  /// of the same instance — the admin replan loop — and the planner remaps
  /// it by name onto the new formulation (lp::remap_basis) to restart the
  /// root LP with the dual simplex, even when the delta added or removed
  /// columns/rows. Null on heuristic solves or when the root never reached
  /// optimality.
  std::shared_ptr<const lp::NamedBasis> root_basis;

  [[nodiscard]] bool is_multi_period() const { return !multi.periods.empty(); }
  /// The number competitors are compared on: the weighted horizon total
  /// (including migration) for multi-period solves, the plan total
  /// statically.
  [[nodiscard]] Money objective() const {
    return is_multi_period() ? multi.cost.total() : plan.cost.total();
  }
};

/// The planner. Stateless between calls; safe to reuse across instances.
class EtransformPlanner {
 public:
  explicit EtransformPlanner(PlannerOptions options = {});

  /// Plans `input` under `ctx`: the context's deadline and cancellation
  /// token are honored throughout the MILP stack (an interrupted solve
  /// returns the best plan found, flagged via PlannerReport::interrupted),
  /// events stream solver progress, and the stats tree lands in
  /// PlannerReport::stats. Throws InfeasibleError when no feasible plan
  /// exists, InvalidInputError on malformed input (including a null
  /// input.model or an inconsistent horizon).
  ///
  /// A static horizon runs the classic single-snapshot engines. A
  /// non-static horizon builds the time-expanded formulation (exact path)
  /// or per-period heuristic solves with a migration-aware smoothing pass
  /// (heuristic path); the result lands in PlannerReport::multi.
  /// input.root_warm, when non-null, restarts the exact root relaxation
  /// from a previous solve's PlannerReport::root_basis (iterative
  /// replans): the basis is remapped by variable/row name onto whatever
  /// standard form this solve produces, so it survives small formulation
  /// deltas. Always advisory — an unmappable or stale basis degrades to a
  /// cold start.
  [[nodiscard]] PlannerReport plan(const PlanInput& input,
                                   SolveContext& ctx) const;

  [[nodiscard]] const PlannerOptions& options() const { return options_; }

 private:
  [[nodiscard]] PlannerReport plan_dispatch(const PlanInput& input,
                                            SolveContext& ctx) const;
  /// The one exact path for every horizon: build, solve, fall back to the
  /// heuristic without an incumbent, decode, polish and race.
  [[nodiscard]] PlannerReport plan_exact(const PlanInput& input, bool joint_dr,
                                         SolveContext& ctx) const;
  [[nodiscard]] PlannerReport plan_two_stage_dr(const CostModel& model,
                                                bool exact_stage1,
                                                SolveContext& ctx) const;
  [[nodiscard]] PlannerReport plan_heuristic(const CostModel& model,
                                             SolveContext& ctx) const;
  [[nodiscard]] PlannerReport plan_multi_period(const PlanInput& input,
                                                SolveContext& ctx) const;
  [[nodiscard]] PlannerReport plan_multi_heuristic(const PlanInput& input,
                                                   SolveContext& ctx) const;

  PlannerOptions options_;
};

}  // namespace etransform
