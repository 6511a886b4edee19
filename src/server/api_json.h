// The etransformd wire schema: request parsing and result serialization.
//
// Kept separate from the daemon so the CLI's --result-json writes the exact
// same result document the daemon serves (the e2e validation diffs the two)
// and the bench/tests can build requests without linking the HTTP stack.
#pragma once

#include <string>

#include "common/json.h"
#include "model/entities.h"
#include "model/horizon.h"
#include "planner/etransform_planner.h"

namespace etransform::server {

/// Highest wire schema version this daemon speaks. Version 1 is the static
/// single-snapshot protocol; version 2 adds multi-period planning
/// ("periods" / "traffic_curve" request members and the "horizon" result
/// subtree). Bodies without "api_version" parse as version 1.
inline constexpr int kApiVersion = 2;

/// Parses the "options" member of a plan/replan request into PlannerOptions.
/// Unknown keys are rejected (the daemon's trust boundary should not guess).
/// Accepted keys, all optional:
///   engine: "auto" | "exact" | "heuristic"
///   dr: bool                  dr_sizing: "shared" | "dedicated"
///   omega: number             economies: bool
///   cuts: "on"|"off"|"gomory"|"cover"        cut_rounds: number
///   branching: "pseudocost"|"most-fractional"
///   lp_algorithm: "auto"|"primal"|"dual"     presolve: bool
///   max_nodes: number         relative_gap: number
///   threads: number (in-solve strong-branching probe threads; <= 0 =
///            hardware; never changes the explored tree)
/// Throws InvalidInputError on bad values.
[[nodiscard]] PlannerOptions parse_options_json(const json::Value* options);

/// Parses the api_version 2 multi-period members of a plan/replan body into
/// a PlanningHorizon (static when absent — every v1 body). Accepted, all
/// optional and mutually exclusive where noted:
///   api_version: 1 | 2 (absent = 1; v1 bodies must not carry v2 members)
///   periods: [ { name?: string, weight?: number, multiplier?: number,
///                group_multipliers?: [number per group],
///                failed_sites?: [site name or index] } ]
///   traffic_curve: { shape?: "diurnal"|"seasonal", num_periods?: number,
///                    peak?: number, trough?: number, period_weight?: number,
///                    antiphase_fraction?: number, seed?: number }
///     (expanded via make_traffic_curve; exclusive with "periods")
///   migration_cost_per_server: number
/// The result is validated against `instance`. Throws InvalidInputError on
/// bad values or v2 members in a v1 body.
[[nodiscard]] PlanningHorizon parse_horizon_json(
    const json::Value& body, const ConsolidationInstance& instance);

/// Canonical one-line encoding of every PlannerOptions field that can alter
/// a solve's outcome, plus the demand horizon and placement-lock flag. Two
/// requests with equal fingerprints and equal canonical instances are
/// interchangeable — this string is half of the result-cache key. The
/// horizon is part of the fingerprint so the cache never serves a static
/// result for a multi-period request (or vice versa).
[[nodiscard]] std::string options_fingerprint(
    const PlannerOptions& options, double time_limit_ms,
    const PlanningHorizon& horizon = {}, bool lock_placement = false);

/// The result document for a completed solve: cost breakdown, per-group
/// assignments (by name), solver provenance (engine, optimality, bound,
/// nodes, LP pivot count), and the solve wall time. Always stamped with
/// "api_version": kApiVersion. Multi-period reports additionally carry a
/// "horizon" subtree (per-period cost/assignments, weighted totals, the
/// migration charge, and move counts); the top-level cost/assignments then
/// describe the first period, so v1 consumers keep working.
[[nodiscard]] json::Value plan_result_json(
    const ConsolidationInstance& instance, const PlannerReport& report,
    double solve_ms);

}  // namespace etransform::server
