#include "planner/formulation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/error.h"

namespace etransform {

namespace {

using lp::Model;
using lp::Relation;
using lp::RowStructure;
using lp::Sense;
using lp::Term;

/// Appends the (possibly tier-linearized) cost of applying `schedule` to the
/// quantity expressed by `quantity` (a linear form with non-negative range,
/// bounded above by `max_quantity`) to the objective, scaled by `weight`
/// (the period duration in the time-expanded formulation; 1 statically).
/// `use_tiers` false prices everything at the base tier.
///
/// Tier semantics note: at an exact tier boundary the LP may price at the
/// next (cheaper) tier while the evaluator stays on the earlier one; plans
/// are re-priced exactly after decoding, so this only perturbs the solver's
/// view by a boundary epsilon.
void add_schedule_cost(Model& model, std::vector<Term>& objective,
                       const StepSchedule& schedule,
                       const std::vector<Term>& quantity, double max_quantity,
                       bool use_tiers, double weight,
                       const std::string& prefix) {
  if (quantity.empty() || max_quantity <= 0.0 || weight == 0.0) return;
  if (!use_tiers || schedule.is_flat()) {
    const Money price = schedule.unit_price(0.0) * weight;
    if (price == 0.0) return;
    for (const Term& t : quantity) {
      objective.push_back(Term{t.var, t.coef * price});
    }
    return;
  }
  // Normalize the tier variables to [0, 1] (quantities span megabits to
  // servers — nine orders of magnitude — and an unscaled mix wrecks the
  // simplex's pivot tolerances). q'_k = q_k / max_quantity.
  const double scale = max_quantity;
  const auto& tiers = schedule.tiers();
  double lower_edge = 0.0;
  std::vector<Term> q_sum;
  std::vector<Term> z_sum;
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    if (lower_edge > max_quantity) break;  // tier unreachable
    const double upper_edge = std::min(tiers[k].upto, max_quantity) / scale;
    const double floor_edge = lower_edge / scale;
    const std::string suffix = prefix + "_t" + std::to_string(k);
    const int q = model.add_continuous("q_" + suffix, 0.0, upper_edge);
    const int z = model.add_binary("z_" + suffix);
    // q'_k <= upper_edge * z_k ; q'_k >= floor_edge * z_k.
    model.add_constraint("cap_" + suffix, {{q, 1.0}, {z, -upper_edge}},
                         Relation::kLessEqual, 0.0);
    if (floor_edge > 0.0) {
      model.add_constraint("floor_" + suffix, {{q, 1.0}, {z, -floor_edge}},
                           Relation::kGreaterEqual, 0.0);
    }
    if (tiers[k].unit_price != 0.0) {
      objective.push_back(Term{q, tiers[k].unit_price * scale * weight});
    }
    q_sum.push_back(Term{q, 1.0});
    z_sum.push_back(Term{z, 1.0});
    lower_edge = tiers[k].upto;
  }
  // Exactly one active tier; the active tier's q carries the quantity.
  model.add_constraint("one_tier_" + prefix, z_sum, Relation::kEqual, 1.0);
  std::vector<Term> balance = q_sum;
  for (const Term& t : quantity) {
    balance.push_back(Term{t.var, -t.coef / scale});
  }
  model.add_constraint("qty_" + prefix, std::move(balance), Relation::kEqual,
                       0.0);
}

}  // namespace

bool group_allowed_at(const ApplicationGroup& group, int site) {
  if (group.pinned_site >= 0) return site == group.pinned_site;
  if (group.allowed_sites.empty()) return true;
  return std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                   site) != group.allowed_sites.end();
}

namespace {

/// The classic single-snapshot formulation (paper §III-B / §IV).
Formulation build_static(const CostModel& cost,
                         const FormulationOptions& options) {
  const auto& instance = cost.instance();
  const int num_groups = instance.num_groups();
  const int num_sites = instance.num_sites();
  const bool fixed_primary =
      options.backup_sizing == BackupSizing::kSharedFixedPrimary;
  if (fixed_primary) {
    if (!options.enable_dr) {
      throw InvalidInputError(
          "formulation: fixed-primary sizing requires DR mode");
    }
    if (options.fixed_primary == nullptr ||
        static_cast<int>(options.fixed_primary->size()) != num_groups) {
      throw InvalidInputError(
          "formulation: fixed-primary sizing needs a primary per group");
    }
  }
  if (options.business_impact_omega <= 0.0 ||
      options.business_impact_omega > 1.0) {
    throw InvalidInputError("formulation: omega must be in (0, 1]");
  }

  Formulation f;
  Model& model = f.model;
  std::vector<Term> objective;
  double objective_constant = 0.0;

  // ---- X variables (primary placement) -----------------------------------
  f.x.assign(static_cast<std::size_t>(num_groups),
             std::vector<int>(static_cast<std::size_t>(num_sites), -1));
  if (!fixed_primary) {
    for (int i = 0; i < num_groups; ++i) {
      const auto& group = instance.groups[static_cast<std::size_t>(i)];
      std::vector<Term> assign;
      for (int j = 0; j < num_sites; ++j) {
        if (!group_allowed_at(group, j)) continue;
        if (instance.sites[static_cast<std::size_t>(j)].capacity_servers <
            group.servers) {
          continue;
        }
        const int var = model.add_binary("x_" + std::to_string(i) + "_" +
                                         std::to_string(j));
        f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = var;
        assign.push_back(Term{var, 1.0});
        // Per-placement objective: latency penalty + VPN WAN.
        const Money c = cost.placement_cost(i, j);
        if (c != 0.0) objective.push_back(Term{var, c});
      }
      if (assign.empty()) {
        throw InfeasibleError("formulation: group '" + group.name +
                              "' has no feasible site");
      }
      model.add_constraint("assign_" + std::to_string(i), std::move(assign),
                           Relation::kEqual, 1.0);
    }
  } else {
    // X fixed: contribute constants to the objective.
    for (int i = 0; i < num_groups; ++i) {
      const int j = (*options.fixed_primary)[static_cast<std::size_t>(i)];
      if (j < 0 || j >= num_sites) {
        throw InvalidInputError("formulation: fixed primary out of range");
      }
      // Not placement_cost(): adding the terms one at a time is this
      // constant's own summation order, and regrouping would change bits.
      objective_constant += cost.latency_penalty(i, j);
      if (instance.use_vpn_links) objective_constant += cost.wan_cost(i, j);
    }
  }

  // ---- Y and G variables (DR) ---------------------------------------------
  if (options.enable_dr) {
    f.y.assign(static_cast<std::size_t>(num_groups),
               std::vector<int>(static_cast<std::size_t>(num_sites), -1));
    f.g.assign(static_cast<std::size_t>(num_sites), -1);
    for (int j = 0; j < num_sites; ++j) {
      f.g[static_cast<std::size_t>(j)] =
          model.add_continuous("g_" + std::to_string(j), 0.0,
                               instance.sites[static_cast<std::size_t>(j)]
                                   .capacity_servers);
      objective.push_back(Term{f.g[static_cast<std::size_t>(j)],
                               instance.params.dr_server_cost});
    }
    for (int i = 0; i < num_groups; ++i) {
      const auto& group = instance.groups[static_cast<std::size_t>(i)];
      // Legal/allowed-site constraints bind the secondary too; pins bind
      // only the primary.
      const auto secondary_allowed = [&](int j) {
        if (instance.sites[static_cast<std::size_t>(j)].capacity_servers <
            group.servers) {
          return false;
        }
        if (group.allowed_sites.empty()) return true;
        return std::find(group.allowed_sites.begin(),
                         group.allowed_sites.end(),
                         j) != group.allowed_sites.end();
      };
      std::vector<Term> assign;
      for (int j = 0; j < num_sites; ++j) {
        if (!secondary_allowed(j)) continue;
        if (fixed_primary &&
            (*options.fixed_primary)[static_cast<std::size_t>(i)] == j) {
          continue;  // primary and secondary must differ
        }
        const int var = model.add_binary("y_" + std::to_string(i) + "_" +
                                         std::to_string(j));
        f.y[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = var;
        assign.push_back(Term{var, 1.0});
        const Money c = cost.placement_cost(i, j);
        if (c != 0.0) objective.push_back(Term{var, c});
        // Primary and secondary must differ: X_ij + Y_ij <= 1.
        const int x_var =
            f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (x_var >= 0) {
          model.add_constraint("distinct_" + std::to_string(i) + "_" +
                                   std::to_string(j),
                               {{x_var, 1.0}, {var, 1.0}},
                               Relation::kLessEqual, 1.0);
        }
      }
      if (assign.empty()) {
        throw InfeasibleError("formulation: group '" + group.name +
                              "' has no feasible DR site");
      }
      model.add_constraint("dr_assign_" + std::to_string(i),
                           std::move(assign), Relation::kEqual, 1.0);
    }

    // Backup sizing rows.
    switch (options.backup_sizing) {
      case BackupSizing::kDedicated: {
        for (int b = 0; b < num_sites; ++b) {
          std::vector<Term> row{{f.g[static_cast<std::size_t>(b)], 1.0}};
          bool any = false;
          for (int i = 0; i < num_groups; ++i) {
            const int y_var =
                f.y[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)];
            if (y_var < 0) continue;
            row.push_back(Term{
                y_var,
                -static_cast<double>(
                    instance.groups[static_cast<std::size_t>(i)].servers)});
            any = true;
          }
          if (any) {
            model.add_constraint("size_" + std::to_string(b), std::move(row),
                                 Relation::kGreaterEqual, 0.0);
          }
        }
        break;
      }
      case BackupSizing::kSharedFixedPrimary: {
        // G_b >= sum_{i: primary_i = a} S_i Y_ib for every (a, b).
        for (int a = 0; a < num_sites; ++a) {
          for (int b = 0; b < num_sites; ++b) {
            if (a == b) continue;
            std::vector<Term> row{{f.g[static_cast<std::size_t>(b)], 1.0}};
            bool any = false;
            for (int i = 0; i < num_groups; ++i) {
              if ((*options.fixed_primary)[static_cast<std::size_t>(i)] != a) {
                continue;
              }
              const int y_var = f.y[static_cast<std::size_t>(i)][
                  static_cast<std::size_t>(b)];
              if (y_var < 0) continue;
              row.push_back(Term{
                  y_var,
                  -static_cast<double>(
                      instance.groups[static_cast<std::size_t>(i)].servers)});
              any = true;
            }
            if (any) {
              model.add_constraint(
                  "size_" + std::to_string(a) + "_" + std::to_string(b),
                  std::move(row), Relation::kGreaterEqual, 0.0);
            }
          }
        }
        break;
      }
      case BackupSizing::kSharedJoint: {
        // J_abc >= X_ca + Y_cb - 1 (continuous); G_b >= sum_c J_abc S_c.
        std::vector<std::vector<std::vector<Term>>> sizing_rows(
            static_cast<std::size_t>(num_sites));
        for (auto& per_b : sizing_rows) {
          per_b.resize(static_cast<std::size_t>(num_sites));
        }
        for (int i = 0; i < num_groups; ++i) {
          const auto servers = static_cast<double>(
              instance.groups[static_cast<std::size_t>(i)].servers);
          for (int a = 0; a < num_sites; ++a) {
            const int x_var =
                f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(a)];
            if (x_var < 0) continue;
            for (int b = 0; b < num_sites; ++b) {
              if (a == b) continue;
              const int y_var = f.y[static_cast<std::size_t>(i)][
                  static_cast<std::size_t>(b)];
              if (y_var < 0) continue;
              const int j_var = model.add_continuous(
                  "j_" + std::to_string(a) + "_" + std::to_string(b) + "_" +
                      std::to_string(i),
                  0.0, 1.0);
              model.add_constraint(
                  "and_" + std::to_string(a) + "_" + std::to_string(b) + "_" +
                      std::to_string(i),
                  {{j_var, 1.0}, {x_var, -1.0}, {y_var, -1.0}},
                  Relation::kGreaterEqual, -1.0);
              sizing_rows[static_cast<std::size_t>(a)][
                  static_cast<std::size_t>(b)]
                  .push_back(Term{j_var, -servers});
            }
          }
        }
        for (int a = 0; a < num_sites; ++a) {
          for (int b = 0; b < num_sites; ++b) {
            auto& row = sizing_rows[static_cast<std::size_t>(a)][
                static_cast<std::size_t>(b)];
            if (row.empty()) continue;
            row.push_back(Term{f.g[static_cast<std::size_t>(b)], 1.0});
            model.add_constraint(
                "size_" + std::to_string(a) + "_" + std::to_string(b),
                std::move(row), Relation::kGreaterEqual, 0.0);
          }
        }
        break;
      }
    }
  }

  // ---- capacity and business-impact rows ----------------------------------
  for (int j = 0; j < num_sites; ++j) {
    const auto& site = instance.sites[static_cast<std::size_t>(j)];
    std::vector<Term> capacity;
    double fixed_servers = 0.0;
    for (int i = 0; i < num_groups; ++i) {
      const auto servers = static_cast<double>(
          instance.groups[static_cast<std::size_t>(i)].servers);
      const int x_var =
          f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (x_var >= 0) {
        capacity.push_back(Term{x_var, servers});
      } else if (fixed_primary &&
                 (*options.fixed_primary)[static_cast<std::size_t>(i)] == j) {
        fixed_servers += servers;
      }
    }
    if (options.enable_dr) {
      capacity.push_back(Term{f.g[static_cast<std::size_t>(j)], 1.0});
    }
    if (!capacity.empty()) {
      model.add_constraint("capacity_" + std::to_string(j), capacity,
                           Relation::kLessEqual,
                           site.capacity_servers - fixed_servers);
      // Structure tag for the cover-cut separator: a pure-binary capacity
      // row is a knapsack (with DR enabled the continuous G_j term makes the
      // separator skip it, which is correct — the tag stays advisory).
      model.set_row_structure(model.num_constraints() - 1,
                              RowStructure::kKnapsack);
    }

    if (!fixed_primary && options.business_impact_omega < 1.0) {
      std::vector<Term> impact;
      for (int i = 0; i < num_groups; ++i) {
        const int x_var =
            f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (x_var >= 0) impact.push_back(Term{x_var, 1.0});
      }
      if (!impact.empty()) {
        model.add_constraint("impact_" + std::to_string(j), std::move(impact),
                             Relation::kLessEqual,
                             options.business_impact_omega * num_groups);
        // Omega rows are unit-coefficient knapsacks over the site's x
        // binaries; the business-impact tag lets separators prioritize them.
        model.set_row_structure(model.num_constraints() - 1,
                                RowStructure::kBusinessImpact);
      }
    }

    // ---- per-site aggregate costs (economies of scale) --------------------
    // Server aggregate: primaries (+ fixed primaries as constants) + backups.
    std::vector<Term> server_terms;
    for (int i = 0; i < num_groups; ++i) {
      const int x_var =
          f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (x_var >= 0) {
        server_terms.push_back(Term{
            x_var, static_cast<double>(
                       instance.groups[static_cast<std::size_t>(i)].servers)});
      }
    }
    if (options.enable_dr) {
      server_terms.push_back(Term{f.g[static_cast<std::size_t>(j)], 1.0});
    }
    // Fixed-primary server constants are priced into the objective constant
    // at base rates (stage 2 never changes the primaries' tier anyway).
    if (fixed_primary && fixed_servers > 0.0) {
      const auto& p = instance.params;
      objective_constant +=
          site.space_cost_per_server.unit_price(fixed_servers) * fixed_servers;
      objective_constant += site.power_cost_per_kwh.unit_price(0.0) *
                            fixed_servers * p.server_power_kw *
                            p.hours_per_month;
      objective_constant += site.labor_cost_per_admin.unit_price(0.0) *
                            fixed_servers / p.servers_per_admin;
    }
    const double max_servers = site.capacity_servers;
    add_schedule_cost(model, objective, site.space_cost_per_server,
                      server_terms, max_servers, options.economies_of_scale,
                      1.0, "space_" + std::to_string(j));
    // Power: kWh = servers * alpha * hours.
    const auto& p = instance.params;
    const double kwh_per_server = p.server_power_kw * p.hours_per_month;
    std::vector<Term> kwh_terms;
    kwh_terms.reserve(server_terms.size());
    for (const Term& t : server_terms) {
      kwh_terms.push_back(Term{t.var, t.coef * kwh_per_server});
    }
    add_schedule_cost(model, objective, site.power_cost_per_kwh, kwh_terms,
                      max_servers * kwh_per_server,
                      options.economies_of_scale, 1.0,
                      "power_" + std::to_string(j));
    // Labor: admins = servers / beta.
    std::vector<Term> admin_terms;
    admin_terms.reserve(server_terms.size());
    for (const Term& t : server_terms) {
      admin_terms.push_back(Term{t.var, t.coef / p.servers_per_admin});
    }
    add_schedule_cost(model, objective, site.labor_cost_per_admin, admin_terms,
                      max_servers / p.servers_per_admin,
                      options.economies_of_scale, 1.0,
                      "labor_" + std::to_string(j));
    // Flat-mode WAN: data aggregate (primary + DR replication).
    if (!instance.use_vpn_links) {
      std::vector<Term> data_terms;
      double max_data = 0.0;
      double fixed_data = 0.0;
      for (int i = 0; i < num_groups; ++i) {
        const double data =
            instance.groups[static_cast<std::size_t>(i)].monthly_data_megabits;
        max_data += data * (options.enable_dr ? 2.0 : 1.0);
        const int x_var =
            f.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (x_var >= 0 && data > 0.0) {
          data_terms.push_back(Term{x_var, data});
        } else if (fixed_primary &&
                   (*options.fixed_primary)[static_cast<std::size_t>(i)] ==
                       j) {
          fixed_data += data;
        }
        if (options.enable_dr && data > 0.0) {
          const int y_var =
              f.y[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (y_var >= 0) data_terms.push_back(Term{y_var, data});
        }
      }
      if (fixed_data > 0.0) {
        objective_constant +=
            site.wan_cost_per_megabit.unit_price(fixed_data) * fixed_data;
      }
      add_schedule_cost(model, objective, site.wan_cost_per_megabit,
                        data_terms, max_data, options.economies_of_scale,
                        1.0, "wan_" + std::to_string(j));
    }
  }

  // ---- separation (shared-risk) rows --------------------------------------
  if (!fixed_primary) {
    for (std::size_t s = 0; s < instance.separations.size(); ++s) {
      const auto& sep = instance.separations[s];
      for (int j = 0; j < num_sites; ++j) {
        const int xa = f.x[static_cast<std::size_t>(sep.group_a)][
            static_cast<std::size_t>(j)];
        const int xb = f.x[static_cast<std::size_t>(sep.group_b)][
            static_cast<std::size_t>(j)];
        if (xa >= 0 && xb >= 0) {
          model.add_constraint(
              "separate_" + std::to_string(s) + "_" + std::to_string(j),
              {{xa, 1.0}, {xb, 1.0}}, Relation::kLessEqual, 1.0);
        }
      }
    }
  }

  model.set_objective(Sense::kMinimize, std::move(objective),
                      objective_constant);
  model.normalize();
  return f;
}

/// One period of the time-expanded model: the demand-scaled instance and
/// its exact cost model (the instance member outlives the model; unique_ptr
/// keeps both addresses stable while the vector grows).
struct PeriodModel {
  ConsolidationInstance instance;
  std::optional<CostModel> cost;
};

/// The time-expanded multi-period formulation: the static blocks replicated
/// per demand period ("@p<t>" name suffixes) with period-weighted
/// coefficients, plus the MV migration coupling — or, with lock_placement,
/// one shared placement block evaluated against every period (the best
/// static plan over the horizon).
Formulation build_time_expanded(const CostModel& base_cost,
                                const FormulationOptions& options) {
  const auto& base = base_cost.instance();
  const PlanningHorizon& horizon = *options.horizon;
  validate_horizon(base, horizon);
  if (options.backup_sizing == BackupSizing::kSharedFixedPrimary) {
    throw InvalidInputError(
        "formulation: fixed-primary sizing is single-snapshot only");
  }
  if (options.business_impact_omega <= 0.0 ||
      options.business_impact_omega > 1.0) {
    throw InvalidInputError("formulation: omega must be in (0, 1]");
  }
  const int num_periods = horizon.num_periods();
  const int num_groups = base.num_groups();
  const int num_sites = base.num_sites();
  const bool locked = options.lock_placement;
  const Money migration_rate = horizon.migration_cost_per_server;

  // Period-scaled instances and exact per-period cost models. CostModel
  // construction re-validates each scaled snapshot, so a pin onto a failed
  // site or a peak that outgrows every allowed site surfaces here.
  std::vector<std::unique_ptr<PeriodModel>> periods;
  periods.reserve(static_cast<std::size_t>(num_periods));
  for (int t = 0; t < num_periods; ++t) {
    auto period = std::make_unique<PeriodModel>();
    period->instance = apply_period(base, horizon, t);
    period->cost.emplace(period->instance);
    periods.push_back(std::move(period));
  }
  const auto suffix = [](int t) {
    std::string s = "@p";
    s += std::to_string(t);
    return s;
  };
  const auto servers_at = [&](int t, int i) {
    return periods[static_cast<std::size_t>(t)]
        ->instance.groups[static_cast<std::size_t>(i)]
        .servers;
  };
  // Per-placement objective coefficient of (i, j) in period t at the
  // period's demand: latency penalty plus VPN WAN.
  const auto placement_cost = [&](int t, int i, int j) {
    return periods[static_cast<std::size_t>(t)]->cost->placement_cost(i, j);
  };

  Formulation f;
  Model& model = f.model;
  std::vector<Term> objective;
  f.xt.assign(static_cast<std::size_t>(num_periods),
              std::vector<std::vector<int>>(
                  static_cast<std::size_t>(num_groups),
                  std::vector<int>(static_cast<std::size_t>(num_sites), -1)));

  // ---- X variables --------------------------------------------------------
  if (locked) {
    // One shared placement block: (i, j) is usable only if it fits in every
    // period, and its objective coefficient is the weighted sum over the
    // horizon.
    for (int i = 0; i < num_groups; ++i) {
      const auto& group = base.groups[static_cast<std::size_t>(i)];
      std::vector<Term> assign;
      for (int j = 0; j < num_sites; ++j) {
        if (!group_allowed_at(group, j)) continue;
        bool fits = true;
        for (int t = 0; t < num_periods && fits; ++t) {
          fits = periods[static_cast<std::size_t>(t)]
                     ->instance.sites[static_cast<std::size_t>(j)]
                     .capacity_servers >= servers_at(t, i);
        }
        if (!fits) continue;
        const int var = model.add_binary("x_" + std::to_string(i) + "_" +
                                         std::to_string(j));
        for (int t = 0; t < num_periods; ++t) {
          f.xt[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              [static_cast<std::size_t>(j)] = var;
        }
        assign.push_back(Term{var, 1.0});
        Money c = 0.0;
        for (int t = 0; t < num_periods; ++t) {
          c += horizon.period_weight(t) * placement_cost(t, i, j);
        }
        if (c != 0.0) objective.push_back(Term{var, c});
      }
      if (assign.empty()) {
        throw InfeasibleError("formulation: group '" + group.name +
                              "' has no site feasible across all periods");
      }
      model.add_constraint("assign_" + std::to_string(i), std::move(assign),
                           Relation::kEqual, 1.0);
    }
  } else {
    for (int t = 0; t < num_periods; ++t) {
      const auto& instance_t = periods[static_cast<std::size_t>(t)]->instance;
      const double w = horizon.period_weight(t);
      for (int i = 0; i < num_groups; ++i) {
        const auto& group = instance_t.groups[static_cast<std::size_t>(i)];
        std::vector<Term> assign;
        for (int j = 0; j < num_sites; ++j) {
          if (!group_allowed_at(group, j)) continue;
          if (instance_t.sites[static_cast<std::size_t>(j)].capacity_servers <
              group.servers) {
            continue;
          }
          const int var = model.add_binary("x_" + std::to_string(i) + "_" +
                                           std::to_string(j) + suffix(t));
          f.xt[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              [static_cast<std::size_t>(j)] = var;
          assign.push_back(Term{var, 1.0});
          const Money c = w * placement_cost(t, i, j);
          if (c != 0.0) objective.push_back(Term{var, c});
        }
        if (assign.empty()) {
          throw InfeasibleError("formulation: group '" + group.name +
                                "' has no feasible site in period " +
                                horizon.period_name(t));
        }
        model.add_constraint("assign_" + std::to_string(i) + suffix(t),
                             std::move(assign), Relation::kEqual, 1.0);
      }
    }
  }

  // ---- migration coupling: MV_it >= X_ijt - X_ij(t-1) ---------------------
  // Continuous suffices: minimization drives MV to the move indicator. The
  // charge is rate * period-t servers, unweighted (a one-time switching
  // cost, not a monthly rate).
  if (!locked && migration_rate != 0.0 && num_periods > 1) {
    f.move.assign(static_cast<std::size_t>(num_periods - 1),
                  std::vector<int>(static_cast<std::size_t>(num_groups), -1));
    for (int t = 1; t < num_periods; ++t) {
      for (int i = 0; i < num_groups; ++i) {
        const int mv = model.add_continuous(
            "mv_" + std::to_string(i) + suffix(t), 0.0, 1.0);
        f.move[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(i)] =
            mv;
        objective.push_back(Term{
            mv, migration_rate * static_cast<double>(servers_at(t, i))});
        for (int j = 0; j < num_sites; ++j) {
          const int x_now = f.xt[static_cast<std::size_t>(t)]
              [static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (x_now < 0) continue;
          std::vector<Term> row{{mv, 1.0}, {x_now, -1.0}};
          const int x_prev = f.xt[static_cast<std::size_t>(t - 1)]
              [static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          // Absent X_ij(t-1) is an implicit 0: staying is impossible, any
          // arrival at j is a move.
          if (x_prev >= 0) row.push_back(Term{x_prev, 1.0});
          model.add_constraint("mvrow_" + std::to_string(i) + "_" +
                                   std::to_string(j) + suffix(t),
                               std::move(row), Relation::kGreaterEqual, 0.0);
        }
      }
    }
  }

  // ---- Y and G variables (DR), replicated per period ----------------------
  if (options.enable_dr) {
    f.yt.assign(static_cast<std::size_t>(num_periods),
                std::vector<std::vector<int>>(
                    static_cast<std::size_t>(num_groups),
                    std::vector<int>(static_cast<std::size_t>(num_sites),
                                     -1)));
    f.gt.assign(static_cast<std::size_t>(num_periods),
                std::vector<int>(static_cast<std::size_t>(num_sites), -1));
    for (int t = 0; t < num_periods; ++t) {
      const auto& instance_t = periods[static_cast<std::size_t>(t)]->instance;
      const double w = horizon.period_weight(t);
      for (int j = 0; j < num_sites; ++j) {
        const int g = model.add_continuous(
            "g_" + std::to_string(j) + suffix(t), 0.0,
            instance_t.sites[static_cast<std::size_t>(j)].capacity_servers);
        f.gt[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)] = g;
        objective.push_back(Term{g, w * base.params.dr_server_cost});
      }
    }
    const auto secondary_allowed = [&](const ConsolidationInstance& inst,
                                       int i, int j) {
      const auto& group = inst.groups[static_cast<std::size_t>(i)];
      if (inst.sites[static_cast<std::size_t>(j)].capacity_servers <
          group.servers) {
        return false;
      }
      if (group.allowed_sites.empty()) return true;
      return std::find(group.allowed_sites.begin(),
                       group.allowed_sites.end(),
                       j) != group.allowed_sites.end();
    };
    if (locked) {
      for (int i = 0; i < num_groups; ++i) {
        std::vector<Term> assign;
        for (int j = 0; j < num_sites; ++j) {
          bool fits = true;
          for (int t = 0; t < num_periods && fits; ++t) {
            fits = secondary_allowed(
                periods[static_cast<std::size_t>(t)]->instance, i, j);
          }
          if (!fits) continue;
          const int var = model.add_binary("y_" + std::to_string(i) + "_" +
                                           std::to_string(j));
          for (int t = 0; t < num_periods; ++t) {
            f.yt[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                [static_cast<std::size_t>(j)] = var;
          }
          assign.push_back(Term{var, 1.0});
          Money c = 0.0;
          for (int t = 0; t < num_periods; ++t) {
            c += horizon.period_weight(t) * placement_cost(t, i, j);
          }
          if (c != 0.0) objective.push_back(Term{var, c});
          const int x_var = f.xt[0][static_cast<std::size_t>(i)]
              [static_cast<std::size_t>(j)];
          if (x_var >= 0) {
            model.add_constraint("distinct_" + std::to_string(i) + "_" +
                                     std::to_string(j),
                                 {{x_var, 1.0}, {var, 1.0}},
                                 Relation::kLessEqual, 1.0);
          }
        }
        if (assign.empty()) {
          throw InfeasibleError(
              "formulation: group '" +
              base.groups[static_cast<std::size_t>(i)].name +
              "' has no DR site feasible across all periods");
        }
        model.add_constraint("dr_assign_" + std::to_string(i),
                             std::move(assign), Relation::kEqual, 1.0);
      }
    } else {
      for (int t = 0; t < num_periods; ++t) {
        const auto& instance_t =
            periods[static_cast<std::size_t>(t)]->instance;
        const double w = horizon.period_weight(t);
        for (int i = 0; i < num_groups; ++i) {
          std::vector<Term> assign;
          for (int j = 0; j < num_sites; ++j) {
            if (!secondary_allowed(instance_t, i, j)) continue;
            const int var = model.add_binary("y_" + std::to_string(i) + "_" +
                                             std::to_string(j) + suffix(t));
            f.yt[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                [static_cast<std::size_t>(j)] = var;
            assign.push_back(Term{var, 1.0});
            const Money c = w * placement_cost(t, i, j);
            if (c != 0.0) objective.push_back(Term{var, c});
            const int x_var = f.xt[static_cast<std::size_t>(t)]
                [static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            if (x_var >= 0) {
              model.add_constraint("distinct_" + std::to_string(i) + "_" +
                                       std::to_string(j) + suffix(t),
                                   {{x_var, 1.0}, {var, 1.0}},
                                   Relation::kLessEqual, 1.0);
            }
          }
          if (assign.empty()) {
            throw InfeasibleError(
                "formulation: group '" +
                base.groups[static_cast<std::size_t>(i)].name +
                "' has no feasible DR site in period " +
                horizon.period_name(t));
          }
          model.add_constraint("dr_assign_" + std::to_string(i) + suffix(t),
                               std::move(assign), Relation::kEqual, 1.0);
        }
      }
    }

    // Backup sizing rows, per period.
    for (int t = 0; t < num_periods; ++t) {
      const auto& yt = f.yt[static_cast<std::size_t>(t)];
      const auto& gt = f.gt[static_cast<std::size_t>(t)];
      if (options.backup_sizing == BackupSizing::kDedicated) {
        for (int b = 0; b < num_sites; ++b) {
          std::vector<Term> row{{gt[static_cast<std::size_t>(b)], 1.0}};
          bool any = false;
          for (int i = 0; i < num_groups; ++i) {
            const int y_var =
                yt[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)];
            if (y_var < 0) continue;
            row.push_back(
                Term{y_var, -static_cast<double>(servers_at(t, i))});
            any = true;
          }
          if (any) {
            model.add_constraint("size_" + std::to_string(b) + suffix(t),
                                 std::move(row), Relation::kGreaterEqual,
                                 0.0);
          }
        }
      } else {
        // kSharedJoint: J_abc per period (the planner gates total J count).
        std::vector<std::vector<std::vector<Term>>> sizing_rows(
            static_cast<std::size_t>(num_sites));
        for (auto& per_b : sizing_rows) {
          per_b.resize(static_cast<std::size_t>(num_sites));
        }
        for (int i = 0; i < num_groups; ++i) {
          const auto servers = static_cast<double>(servers_at(t, i));
          for (int a = 0; a < num_sites; ++a) {
            const int x_var = f.xt[static_cast<std::size_t>(t)]
                [static_cast<std::size_t>(i)][static_cast<std::size_t>(a)];
            if (x_var < 0) continue;
            for (int b = 0; b < num_sites; ++b) {
              if (a == b) continue;
              const int y_var =
                  yt[static_cast<std::size_t>(i)][static_cast<std::size_t>(
                      b)];
              if (y_var < 0) continue;
              const int j_var = model.add_continuous(
                  "j_" + std::to_string(a) + "_" + std::to_string(b) + "_" +
                      std::to_string(i) + suffix(t),
                  0.0, 1.0);
              model.add_constraint(
                  "and_" + std::to_string(a) + "_" + std::to_string(b) +
                      "_" + std::to_string(i) + suffix(t),
                  {{j_var, 1.0}, {x_var, -1.0}, {y_var, -1.0}},
                  Relation::kGreaterEqual, -1.0);
              sizing_rows[static_cast<std::size_t>(a)]
                  [static_cast<std::size_t>(b)]
                      .push_back(Term{j_var, -servers});
            }
          }
        }
        for (int a = 0; a < num_sites; ++a) {
          for (int b = 0; b < num_sites; ++b) {
            auto& row = sizing_rows[static_cast<std::size_t>(a)]
                [static_cast<std::size_t>(b)];
            if (row.empty()) continue;
            row.push_back(Term{gt[static_cast<std::size_t>(b)], 1.0});
            model.add_constraint(
                "size_" + std::to_string(a) + "_" + std::to_string(b) +
                    suffix(t),
                std::move(row), Relation::kGreaterEqual, 0.0);
          }
        }
      }
    }
  }

  // ---- per-period capacity, business-impact, and aggregate-cost rows ------
  for (int t = 0; t < num_periods; ++t) {
    const auto& instance_t = periods[static_cast<std::size_t>(t)]->instance;
    const double w = horizon.period_weight(t);
    const auto& xt = f.xt[static_cast<std::size_t>(t)];
    for (int j = 0; j < num_sites; ++j) {
      const auto& site = instance_t.sites[static_cast<std::size_t>(j)];
      std::vector<Term> capacity;
      for (int i = 0; i < num_groups; ++i) {
        const int x_var =
            xt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (x_var >= 0) {
          capacity.push_back(
              Term{x_var, static_cast<double>(servers_at(t, i))});
        }
      }
      if (options.enable_dr) {
        capacity.push_back(Term{
            f.gt[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)],
            1.0});
      }
      if (!capacity.empty()) {
        model.add_constraint("capacity_" + std::to_string(j) + suffix(t),
                             capacity, Relation::kLessEqual,
                             site.capacity_servers);
        model.set_row_structure(model.num_constraints() - 1,
                                RowStructure::kKnapsack);
      }

      // Group-count caps don't scale with demand: one row per period block,
      // or a single row for the shared locked block.
      if (options.business_impact_omega < 1.0 && (!locked || t == 0)) {
        std::vector<Term> impact;
        for (int i = 0; i < num_groups; ++i) {
          const int x_var =
              xt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (x_var >= 0) impact.push_back(Term{x_var, 1.0});
        }
        if (!impact.empty()) {
          model.add_constraint(
              "impact_" + std::to_string(j) + (locked ? "" : suffix(t)),
              std::move(impact), Relation::kLessEqual,
              options.business_impact_omega * num_groups);
          model.set_row_structure(model.num_constraints() - 1,
                                  RowStructure::kBusinessImpact);
        }
      }

      std::vector<Term> server_terms;
      for (int i = 0; i < num_groups; ++i) {
        const int x_var =
            xt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (x_var >= 0) {
          server_terms.push_back(
              Term{x_var, static_cast<double>(servers_at(t, i))});
        }
      }
      if (options.enable_dr) {
        server_terms.push_back(Term{
            f.gt[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)],
            1.0});
      }
      const double max_servers = site.capacity_servers;
      add_schedule_cost(model, objective, site.space_cost_per_server,
                        server_terms, max_servers,
                        options.economies_of_scale, w,
                        "space_" + std::to_string(j) + suffix(t));
      const auto& p = instance_t.params;
      const double kwh_per_server = p.server_power_kw * p.hours_per_month;
      std::vector<Term> kwh_terms;
      kwh_terms.reserve(server_terms.size());
      for (const Term& term : server_terms) {
        kwh_terms.push_back(Term{term.var, term.coef * kwh_per_server});
      }
      add_schedule_cost(model, objective, site.power_cost_per_kwh, kwh_terms,
                        max_servers * kwh_per_server,
                        options.economies_of_scale, w,
                        "power_" + std::to_string(j) + suffix(t));
      std::vector<Term> admin_terms;
      admin_terms.reserve(server_terms.size());
      for (const Term& term : server_terms) {
        admin_terms.push_back(Term{term.var, term.coef / p.servers_per_admin});
      }
      add_schedule_cost(model, objective, site.labor_cost_per_admin,
                        admin_terms, max_servers / p.servers_per_admin,
                        options.economies_of_scale, w,
                        "labor_" + std::to_string(j) + suffix(t));
      if (!instance_t.use_vpn_links) {
        std::vector<Term> data_terms;
        double max_data = 0.0;
        for (int i = 0; i < num_groups; ++i) {
          const double data = instance_t.groups[static_cast<std::size_t>(i)]
                                  .monthly_data_megabits;
          max_data += data * (options.enable_dr ? 2.0 : 1.0);
          const int x_var =
              xt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (x_var >= 0 && data > 0.0) {
            data_terms.push_back(Term{x_var, data});
          }
          if (options.enable_dr && data > 0.0) {
            const int y_var = f.yt[static_cast<std::size_t>(t)]
                [static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            if (y_var >= 0) data_terms.push_back(Term{y_var, data});
          }
        }
        add_schedule_cost(model, objective, site.wan_cost_per_megabit,
                          data_terms, max_data, options.economies_of_scale,
                          w, "wan_" + std::to_string(j) + suffix(t));
      }
    }
  }

  // ---- separation (shared-risk) rows, per period block --------------------
  for (std::size_t s = 0; s < base.separations.size(); ++s) {
    const auto& sep = base.separations[s];
    for (int t = 0; t < num_periods; ++t) {
      if (locked && t > 0) break;  // shared block: one row suffices
      for (int j = 0; j < num_sites; ++j) {
        const int xa = f.xt[static_cast<std::size_t>(t)]
            [static_cast<std::size_t>(sep.group_a)]
            [static_cast<std::size_t>(j)];
        const int xb = f.xt[static_cast<std::size_t>(t)]
            [static_cast<std::size_t>(sep.group_b)]
            [static_cast<std::size_t>(j)];
        if (xa >= 0 && xb >= 0) {
          model.add_constraint(
              "separate_" + std::to_string(s) + "_" + std::to_string(j) +
                  (locked ? std::string() : suffix(t)),
              {{xa, 1.0}, {xb, 1.0}}, Relation::kLessEqual, 1.0);
        }
      }
    }
  }

  model.set_objective(Sense::kMinimize, std::move(objective), 0.0);
  model.normalize();
  return f;
}

}  // namespace

Formulation build_formulation(const CostModel& cost,
                              const FormulationOptions& options) {
  if (options.horizon != nullptr && !options.horizon->is_static()) {
    return build_time_expanded(cost, options);
  }
  return build_static(cost, options);
}

Plan decode_plan(const CostModel& cost, const Formulation& formulation,
                 const FormulationOptions& options,
                 const std::vector<double>& values,
                 const std::string& algorithm) {
  const auto& instance = cost.instance();
  const int num_groups = instance.num_groups();
  const int num_sites = instance.num_sites();
  if (values.size() !=
      static_cast<std::size_t>(formulation.model.num_variables())) {
    throw InvalidInputError("decode_plan: value vector size mismatch");
  }
  Plan plan;
  plan.algorithm = algorithm;
  plan.primary.assign(static_cast<std::size_t>(num_groups), -1);

  const bool fixed_primary =
      options.backup_sizing == BackupSizing::kSharedFixedPrimary;
  for (int i = 0; i < num_groups; ++i) {
    if (fixed_primary) {
      plan.primary[static_cast<std::size_t>(i)] =
          (*options.fixed_primary)[static_cast<std::size_t>(i)];
      continue;
    }
    for (int j = 0; j < num_sites; ++j) {
      const int var = formulation.x[static_cast<std::size_t>(i)][
          static_cast<std::size_t>(j)];
      if (var >= 0 && values[static_cast<std::size_t>(var)] > 0.5) {
        plan.primary[static_cast<std::size_t>(i)] = j;
        break;
      }
    }
    if (plan.primary[static_cast<std::size_t>(i)] < 0) {
      throw InvalidInputError("decode_plan: group " + std::to_string(i) +
                              " has no selected site");
    }
  }
  if (options.enable_dr) {
    plan.secondary.assign(static_cast<std::size_t>(num_groups), -1);
    for (int i = 0; i < num_groups; ++i) {
      for (int j = 0; j < num_sites; ++j) {
        const int var = formulation.y[static_cast<std::size_t>(i)][
            static_cast<std::size_t>(j)];
        if (var >= 0 && values[static_cast<std::size_t>(var)] > 0.5) {
          plan.secondary[static_cast<std::size_t>(i)] = j;
          break;
        }
      }
      if (plan.secondary[static_cast<std::size_t>(i)] < 0) {
        throw InvalidInputError("decode_plan: group " + std::to_string(i) +
                                " has no selected DR site");
      }
    }
    // Recompute exact sizing from the assignment: the sharing law (tighter
    // than the LP's G under a dedicated surrogate, identical under shared
    // sizing) or dedicated sums for multi-failure plans.
    plan.backup_servers =
        options.decode_dedicated_counts
            ? dedicated_backup_servers(instance, plan.primary, plan.secondary)
            : required_backup_servers(instance, plan.primary, plan.secondary);
  }
  cost.price_plan(plan);
  return plan;
}

MultiPeriodPlan decode_multi_period_plan(const CostModel& cost,
                                         const Formulation& formulation,
                                         const FormulationOptions& options,
                                         const std::vector<double>& values,
                                         const std::string& algorithm) {
  if (options.horizon == nullptr || options.horizon->is_static() ||
      !formulation.is_time_expanded()) {
    throw InvalidInputError(
        "decode_multi_period_plan: not a time-expanded formulation");
  }
  if (values.size() !=
      static_cast<std::size_t>(formulation.model.num_variables())) {
    throw InvalidInputError(
        "decode_multi_period_plan: value vector size mismatch");
  }
  const auto& base = cost.instance();
  const PlanningHorizon& horizon = *options.horizon;
  const int num_groups = base.num_groups();
  const int num_sites = base.num_sites();
  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(horizon.num_periods()));
  for (int t = 0; t < horizon.num_periods(); ++t) {
    const ConsolidationInstance instance_t = apply_period(base, horizon, t);
    const CostModel cost_t(instance_t);
    Plan plan;
    plan.algorithm = algorithm;
    plan.primary.assign(static_cast<std::size_t>(num_groups), -1);
    const auto& xt = formulation.xt[static_cast<std::size_t>(t)];
    for (int i = 0; i < num_groups; ++i) {
      for (int j = 0; j < num_sites; ++j) {
        const int var =
            xt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (var >= 0 && values[static_cast<std::size_t>(var)] > 0.5) {
          plan.primary[static_cast<std::size_t>(i)] = j;
          break;
        }
      }
      if (plan.primary[static_cast<std::size_t>(i)] < 0) {
        throw InvalidInputError("decode_multi_period_plan: group " +
                                std::to_string(i) +
                                " has no selected site in period " +
                                horizon.period_name(t));
      }
    }
    if (options.enable_dr) {
      plan.secondary.assign(static_cast<std::size_t>(num_groups), -1);
      const auto& yt = formulation.yt[static_cast<std::size_t>(t)];
      for (int i = 0; i < num_groups; ++i) {
        for (int j = 0; j < num_sites; ++j) {
          const int var =
              yt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (var >= 0 && values[static_cast<std::size_t>(var)] > 0.5) {
            plan.secondary[static_cast<std::size_t>(i)] = j;
            break;
          }
        }
        if (plan.secondary[static_cast<std::size_t>(i)] < 0) {
          throw InvalidInputError("decode_multi_period_plan: group " +
                                  std::to_string(i) +
                                  " has no selected DR site in period " +
                                  horizon.period_name(t));
        }
      }
      plan.backup_servers =
          options.decode_dedicated_counts
              ? dedicated_backup_servers(instance_t, plan.primary,
                                         plan.secondary)
              : required_backup_servers(instance_t, plan.primary,
                                        plan.secondary);
    }
    cost_t.price_plan(plan);
    plans.push_back(std::move(plan));
  }
  return assemble_multi_period(base, horizon, std::move(plans), algorithm);
}

}  // namespace etransform
