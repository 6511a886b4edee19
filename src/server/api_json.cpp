#include "server/api_json.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.h"
#include "datagen/generators.h"

namespace etransform::server {

namespace {

double require_number(const json::Value& v, const char* key) {
  if (!v.is_number()) {
    throw InvalidInputError(std::string(key) + " must be a number");
  }
  return v.num;
}

bool require_bool(const json::Value& v, const char* key) {
  if (!v.is_bool()) {
    throw InvalidInputError(std::string(key) + " must be a bool");
  }
  return v.b;
}

const std::string& require_string(const json::Value& v, const char* key) {
  if (!v.is_string()) {
    throw InvalidInputError(std::string(key) + " must be a string");
  }
  return v.str;
}

/// Resolves a failed-site reference (name string or index number).
int resolve_failed_site(const ConsolidationInstance& instance,
                        const json::Value& ref) {
  if (ref.is_number()) {
    const double v = ref.num;
    if (!(v >= 0.0) || v != std::floor(v) ||
        v >= static_cast<double>(instance.num_sites())) {
      throw InvalidInputError("periods.failed_sites: bad site index");
    }
    return static_cast<int>(v);
  }
  if (ref.is_string()) {
    for (int j = 0; j < instance.num_sites(); ++j) {
      if (instance.sites[static_cast<std::size_t>(j)].name == ref.str) {
        return j;
      }
    }
    throw InvalidInputError("periods.failed_sites: unknown site '" + ref.str +
                            "'");
  }
  throw InvalidInputError(
      "periods.failed_sites entries must be site names or indices");
}

DemandPeriod parse_period_json(const ConsolidationInstance& instance,
                               const json::Value& entry) {
  if (!entry.is_object()) {
    throw InvalidInputError("periods entries must be objects");
  }
  DemandPeriod period;
  for (const auto& [key, value] : entry.obj) {
    if (key == "name") {
      period.name = require_string(value, "periods.name");
    } else if (key == "weight") {
      period.weight = require_number(value, "periods.weight");
    } else if (key == "multiplier") {
      period.multiplier = require_number(value, "periods.multiplier");
    } else if (key == "group_multipliers") {
      if (!value.is_array()) {
        throw InvalidInputError("periods.group_multipliers must be an array");
      }
      for (const json::Value& m : value.arr) {
        period.group_multipliers.push_back(
            require_number(m, "periods.group_multipliers"));
      }
    } else if (key == "failed_sites") {
      if (!value.is_array()) {
        throw InvalidInputError("periods.failed_sites must be an array");
      }
      for (const json::Value& site : value.arr) {
        period.failed_sites.push_back(resolve_failed_site(instance, site));
      }
    } else {
      throw InvalidInputError("periods: unknown key '" + key + "'");
    }
  }
  return period;
}

PlanningHorizon parse_traffic_curve_json(
    const ConsolidationInstance& instance, const json::Value& curve) {
  if (!curve.is_object()) {
    throw InvalidInputError("traffic_curve must be an object");
  }
  TrafficCurveSpec spec;
  spec.num_groups = instance.num_groups();
  for (const auto& [key, value] : curve.obj) {
    if (key == "shape") {
      const std::string& shape = require_string(value, "traffic_curve.shape");
      if (shape == "diurnal") {
        spec.shape = TrafficCurveSpec::Shape::kDiurnal;
      } else if (shape == "seasonal") {
        spec.shape = TrafficCurveSpec::Shape::kSeasonal;
      } else {
        throw InvalidInputError("traffic_curve.shape: unknown shape '" +
                                shape + "'");
      }
    } else if (key == "num_periods") {
      spec.num_periods =
          static_cast<int>(require_number(value, "traffic_curve.num_periods"));
    } else if (key == "peak") {
      spec.peak_multiplier = require_number(value, "traffic_curve.peak");
    } else if (key == "trough") {
      spec.trough_multiplier = require_number(value, "traffic_curve.trough");
    } else if (key == "period_weight") {
      spec.period_weight =
          require_number(value, "traffic_curve.period_weight");
    } else if (key == "antiphase_fraction") {
      spec.antiphase_fraction =
          require_number(value, "traffic_curve.antiphase_fraction");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(
          require_number(value, "traffic_curve.seed"));
    } else {
      throw InvalidInputError("traffic_curve: unknown key '" + key + "'");
    }
  }
  return make_traffic_curve(spec);
}

}  // namespace

PlanningHorizon parse_horizon_json(const json::Value& body,
                                   const ConsolidationInstance& instance) {
  int api_version = 1;
  if (const json::Value* v = body.get("api_version");
      v != nullptr && !v->is_null()) {
    if (!v->is_number() || (v->num != 1.0 && v->num != 2.0)) {
      throw InvalidInputError("api_version must be 1 or 2");
    }
    api_version = static_cast<int>(v->num);
  }
  const json::Value* periods = body.get("periods");
  const json::Value* curve = body.get("traffic_curve");
  const json::Value* migration = body.get("migration_cost_per_server");
  if (api_version < 2) {
    if (periods != nullptr || curve != nullptr || migration != nullptr) {
      throw InvalidInputError(
          "multi-period members (periods, traffic_curve, "
          "migration_cost_per_server) require \"api_version\": 2");
    }
    return {};
  }
  if (periods != nullptr && curve != nullptr) {
    throw InvalidInputError("periods and traffic_curve are mutually exclusive");
  }
  PlanningHorizon horizon;
  if (curve != nullptr && !curve->is_null()) {
    horizon = parse_traffic_curve_json(instance, *curve);
  } else if (periods != nullptr && !periods->is_null()) {
    if (!periods->is_array()) {
      throw InvalidInputError("periods must be an array");
    }
    for (const json::Value& entry : periods->arr) {
      horizon.periods.push_back(parse_period_json(instance, entry));
    }
  }
  if (migration != nullptr && !migration->is_null()) {
    horizon.migration_cost_per_server =
        require_number(*migration, "migration_cost_per_server");
  }
  validate_horizon(instance, horizon);
  return horizon;
}

PlannerOptions parse_options_json(const json::Value* options) {
  PlannerOptions out;
  if (options == nullptr || options->is_null()) return out;
  if (!options->is_object()) {
    throw InvalidInputError("options must be an object");
  }
  for (const auto& [key, value] : options->obj) {
    if (key == "engine") {
      const std::string& engine = require_string(value, "options.engine");
      if (engine == "auto") {
        out.engine = PlannerOptions::Engine::kAuto;
      } else if (engine == "exact") {
        out.engine = PlannerOptions::Engine::kExact;
      } else if (engine == "heuristic") {
        out.engine = PlannerOptions::Engine::kHeuristic;
      } else {
        throw InvalidInputError("options.engine: unknown engine '" + engine +
                                "'");
      }
    } else if (key == "dr") {
      out.enable_dr = require_bool(value, "options.dr");
    } else if (key == "dr_sizing") {
      const std::string& sizing = require_string(value, "options.dr_sizing");
      if (sizing == "shared") {
        out.dr_sizing = PlannerOptions::DrSizing::kShared;
      } else if (sizing == "dedicated") {
        out.dr_sizing = PlannerOptions::DrSizing::kDedicated;
      } else {
        throw InvalidInputError("options.dr_sizing: unknown sizing '" +
                                sizing + "'");
      }
    } else if (key == "omega") {
      out.business_impact_omega = require_number(value, "options.omega");
    } else if (key == "economies") {
      out.economies_of_scale = require_bool(value, "options.economies");
    } else if (key == "cuts") {
      const std::string& cuts = require_string(value, "options.cuts");
      if (cuts == "on") {
        out.milp.cuts.enable = true;
        out.milp.cuts.gomory = true;
        out.milp.cuts.cover = true;
      } else if (cuts == "off") {
        out.milp.cuts.enable = false;
      } else if (cuts == "gomory") {
        out.milp.cuts.enable = true;
        out.milp.cuts.gomory = true;
        out.milp.cuts.cover = false;
      } else if (cuts == "cover") {
        out.milp.cuts.enable = true;
        out.milp.cuts.gomory = false;
        out.milp.cuts.cover = true;
      } else {
        throw InvalidInputError("options.cuts: unknown mode '" + cuts + "'");
      }
    } else if (key == "cut_rounds") {
      out.milp.cuts.max_rounds =
          static_cast<int>(require_number(value, "options.cut_rounds"));
    } else if (key == "branching") {
      const std::string& rule = require_string(value, "options.branching");
      if (rule == "pseudocost") {
        out.milp.branching.rule = milp::BranchingOptions::Rule::kPseudocost;
      } else if (rule == "most-fractional") {
        out.milp.branching.rule = milp::BranchingOptions::Rule::kMostFractional;
      } else {
        throw InvalidInputError("options.branching: unknown rule '" + rule +
                                "'");
      }
    } else if (key == "lp_algorithm") {
      const std::string& algorithm = require_string(value, "options.lp_algorithm");
      if (algorithm == "auto") {
        out.milp.lp.mode = lp::SolveMode::kAuto;
      } else if (algorithm == "primal") {
        out.milp.lp.mode = lp::SolveMode::kPrimal;
      } else if (algorithm == "dual") {
        out.milp.lp.mode = lp::SolveMode::kDual;
      } else {
        throw InvalidInputError("options.lp_algorithm: unknown mode '" +
                                algorithm + "'");
      }
    } else if (key == "presolve") {
      out.milp.presolve.enable = require_bool(value, "options.presolve");
    } else if (key == "max_nodes") {
      out.milp.search.max_nodes =
          static_cast<int>(require_number(value, "options.max_nodes"));
    } else if (key == "relative_gap") {
      out.milp.search.relative_gap = require_number(value, "options.relative_gap");
    } else if (key == "threads") {
      out.milp.search.threads =
          static_cast<int>(require_number(value, "options.threads"));
    } else {
      throw InvalidInputError("options: unknown key '" + key + "'");
    }
  }
  return out;
}

std::string options_fingerprint(const PlannerOptions& options,
                                double time_limit_ms,
                                const PlanningHorizon& horizon,
                                bool lock_placement) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "v4 engine=%d dr=%d sizing=%d omega=%.17g eco=%d "
      "cuts=%d/%d/%d/%d branch=%d lp=%d presolve=%d "
      "nodes=%d gap=%.17g tl=%.17g varlim=%d jointlim=%d lb=%d "
      "threads=%d",
      static_cast<int>(options.engine), options.enable_dr ? 1 : 0,
      static_cast<int>(options.dr_sizing), options.business_impact_omega,
      options.economies_of_scale ? 1 : 0, options.milp.cuts.enable ? 1 : 0,
      options.milp.cuts.gomory ? 1 : 0, options.milp.cuts.cover ? 1 : 0,
      options.milp.cuts.max_rounds,
      static_cast<int>(options.milp.branching.rule),
      static_cast<int>(options.milp.lp.mode),
      options.milp.presolve.enable ? 1 : 0, options.milp.search.max_nodes,
      options.milp.search.relative_gap, time_limit_ms, options.exact_var_limit,
      options.joint_dr_var_limit, options.compute_lower_bound ? 1 : 0,
      options.milp.search.threads);
  std::string out(buf);
  out += " hz=";
  out += horizon.is_static() ? "static" : horizon_fingerprint(horizon);
  out += lock_placement ? " lock=1" : " lock=0";
  return out;
}

namespace {

json::Value cost_breakdown_json(const CostBreakdown& cost) {
  json::Value out = json::Value::object();
  out.set("space", json::Value::number(cost.space));
  out.set("power", json::Value::number(cost.power));
  out.set("labor", json::Value::number(cost.labor));
  out.set("wan", json::Value::number(cost.wan));
  out.set("latency_penalty", json::Value::number(cost.latency_penalty));
  out.set("backup_capex", json::Value::number(cost.backup_capex));
  out.set("migration", json::Value::number(cost.migration));
  out.set("operational", json::Value::number(cost.operational()));
  out.set("total", json::Value::number(cost.total()));
  return out;
}

json::Value assignments_json(const ConsolidationInstance& instance,
                             const Plan& plan) {
  json::Value assignments = json::Value::array();
  for (std::size_t i = 0; i < plan.primary.size(); ++i) {
    json::Value row = json::Value::object();
    row.set("group", json::Value::string(instance.groups[i].name));
    row.set("site",
            json::Value::string(instance.sites[plan.primary[i]].name));
    if (plan.has_dr() && plan.secondary[i] >= 0) {
      row.set("secondary",
              json::Value::string(instance.sites[plan.secondary[i]].name));
    }
    assignments.push(std::move(row));
  }
  return assignments;
}

}  // namespace

json::Value plan_result_json(const ConsolidationInstance& instance,
                             const PlannerReport& report, double solve_ms) {
  const Plan& plan = report.plan;

  json::Value out = json::Value::object();
  out.set("api_version", json::Value::number(kApiVersion));
  out.set("cost", cost_breakdown_json(plan.cost));
  out.set("assignments", assignments_json(instance, plan));
  out.set("sites_used", json::Value::number(plan.sites_used()));
  out.set("latency_violations",
          json::Value::number(plan.latency_violations));
  if (report.is_multi_period()) {
    // The per-period tree. Top-level cost/assignments mirror the first
    // period (PlannerReport::plan), so v1 consumers read a valid snapshot;
    // horizon.cost carries the weighted totals competitors compare on.
    const MultiPeriodPlan& multi = report.multi;
    json::Value periods = json::Value::array();
    for (std::size_t t = 0; t < multi.periods.size(); ++t) {
      const Plan& period_plan = multi.periods[t];
      json::Value entry = json::Value::object();
      entry.set("period", json::Value::number(static_cast<double>(t)));
      entry.set("cost", cost_breakdown_json(period_plan.cost));
      entry.set("assignments", assignments_json(instance, period_plan));
      entry.set("sites_used", json::Value::number(period_plan.sites_used()));
      entry.set("latency_violations",
                json::Value::number(period_plan.latency_violations));
      periods.push(std::move(entry));
    }
    json::Value horizon = json::Value::object();
    horizon.set("periods", std::move(periods));
    horizon.set("cost", cost_breakdown_json(multi.cost));
    horizon.set("algorithm", json::Value::string(multi.algorithm));
    horizon.set("total_moves", json::Value::number(multi.total_moves));
    horizon.set("moved_servers", json::Value::number(
                                     static_cast<double>(multi.moved_servers)));
    out.set("horizon", std::move(horizon));
  }
  out.set("algorithm", json::Value::string(plan.algorithm));
  out.set("used_exact_solver", json::Value::boolean(report.used_exact_solver));
  out.set("proven_optimal", json::Value::boolean(report.proven_optimal));
  out.set("interrupted", json::Value::boolean(report.interrupted));
  // NaN (bound not computed) serializes as null via append_number.
  out.set("lower_bound", json::Value::number(report.lower_bound));
  out.set("milp_nodes", json::Value::number(report.milp_nodes));
  out.set("lp_iters",
          json::Value::number(report.stats.deep_metric("pivots")));
  out.set("solve_ms", json::Value::number(solve_ms));
  return out;
}

}  // namespace etransform::server
