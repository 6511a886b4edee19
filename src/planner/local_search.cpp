#include "planner/local_search.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "planner/formulation.h"

namespace etransform {

namespace {

/// Incremental exact evaluation of a plan under move mutations.
class PlanState {
 public:
  PlanState(const CostModel& model, const Plan& plan, bool dedicated_backups,
            int max_groups_per_site)
      : model_(&model),
        instance_(&model.instance()),
        primary_(plan.primary),
        secondary_(plan.secondary),
        dr_(plan.has_dr()),
        dedicated_(dedicated_backups),
        group_limit_(max_groups_per_site) {
    const int num_sites = instance_->num_sites();
    const int num_groups = instance_->num_groups();
    servers_.assign(static_cast<std::size_t>(num_sites), 0);
    data_.assign(static_cast<std::size_t>(num_sites), 0.0);
    if (dr_) {
      load_.assign(static_cast<std::size_t>(num_sites),
                   std::vector<long long>(static_cast<std::size_t>(num_sites),
                                          0));
      backups_.assign(static_cast<std::size_t>(num_sites), 0);
    }
    group_count_.assign(static_cast<std::size_t>(num_sites), 0);
    for (int i = 0; i < num_groups; ++i) {
      const auto& group = instance_->groups[static_cast<std::size_t>(i)];
      const int a = primary_[static_cast<std::size_t>(i)];
      servers_[static_cast<std::size_t>(a)] += group.servers;
      group_count_[static_cast<std::size_t>(a)] += 1;
      if (!instance_->use_vpn_links) {
        data_[static_cast<std::size_t>(a)] += group.monthly_data_megabits;
      }
      if (dr_) {
        const int b = secondary_[static_cast<std::size_t>(i)];
        load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] +=
            group.servers;
        if (!instance_->use_vpn_links) {
          data_[static_cast<std::size_t>(b)] += group.monthly_data_megabits;
        }
      }
    }
    if (dr_) {
      for (int b = 0; b < num_sites; ++b) {
        servers_[static_cast<std::size_t>(b)] += refresh_pool(b);
      }
    }
    // Per-group separation partner lists.
    partners_.assign(static_cast<std::size_t>(num_groups), {});
    for (const auto& sep : instance_->separations) {
      partners_[static_cast<std::size_t>(sep.group_a)].push_back(sep.group_b);
      partners_[static_cast<std::size_t>(sep.group_b)].push_back(sep.group_a);
    }
    site_cost_.assign(static_cast<std::size_t>(num_sites), 0.0);
    total_site_cost_ = 0.0;
    for (int j = 0; j < num_sites; ++j) {
      site_cost_[static_cast<std::size_t>(j)] = exact_site_cost(j);
      total_site_cost_ += site_cost_[static_cast<std::size_t>(j)];
    }
  }

  /// Exact cost of site j at current aggregates (incl. backup capex share).
  [[nodiscard]] Money exact_site_cost(int j) const {
    Money c = model_
                  ->site_cost(j, servers_[static_cast<std::size_t>(j)],
                              data_[static_cast<std::size_t>(j)])
                  .total();
    if (dr_) {
      c += instance_->params.dr_server_cost *
           backups_[static_cast<std::size_t>(j)];
    }
    return c;
  }

  [[nodiscard]] Money site_cost_if(int j, long long servers,
                                   double data, long long backups) const {
    Money c = model_->site_cost(j, servers, data).total();
    if (dr_) c += instance_->params.dr_server_cost * backups;
    return c;
  }

  /// The two largest entries of a backup-load column, and where the largest
  /// sits, so the column max without one row is O(1).
  struct ColumnTop {
    long long first = 0;
    int first_site = -1;
    long long second = 0;

    [[nodiscard]] long long max_without(int site) const {
      return site == first_site ? second : first;
    }
  };

  /// Top two of column b, with row `override_a` (if >= 0) read as
  /// `override_value`.
  [[nodiscard]] ColumnTop column_top(int b, int override_a = -1,
                                     long long override_value = 0) const {
    ColumnTop top;
    for (int a = 0; a < instance_->num_sites(); ++a) {
      const long long v =
          a == override_a
              ? override_value
              : load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (v > top.first) {
        top.second = top.first;
        top.first = v;
        top.first_site = a;
      } else if (v > top.second) {
        top.second = v;
      }
    }
    return top;
  }

  /// Total load backed up at site b (dedicated sizing).
  [[nodiscard]] long long column_sum(int b) const {
    long long total = 0;
    for (int a = 0; a < instance_->num_sites(); ++a) {
      total += load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
    }
    return total;
  }

  /// Recomputes site b's pool under the active sizing law (shared: the
  /// column max; dedicated: the column sum) and returns the change.
  long long refresh_pool(int b) {
    const long long required =
        dedicated_ ? column_sum(b) : column_top(b).first;
    const long long delta = required - backups_[static_cast<std::size_t>(b)];
    backups_[static_cast<std::size_t>(b)] = required;
    return delta;
  }

  [[nodiscard]] bool separation_blocks(int i, int target_site) const {
    for (const int partner : partners_[static_cast<std::size_t>(i)]) {
      if (primary_[static_cast<std::size_t>(partner)] == target_site) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] long long capacity(int j) const {
    return instance_->sites[static_cast<std::size_t>(j)].capacity_servers;
  }

  /// The feasible primary relocation of group i that saves more than
  /// `min_gain` and the most of all, or -1. Candidates are scanned in site
  /// order; ties keep the first. Each candidate's delta is evaluated as
  ///   P(i,a2) - P(i,a); += leave(a); += enter(a2); [+= pool growth at b]
  /// where leave(a) does not depend on a2 and is priced once, at the first
  /// candidate that passes the feasibility checks.
  [[nodiscard]] int best_primary_move(int i, Money min_gain) const {
    const auto& group = instance_->groups[static_cast<std::size_t>(i)];
    if (group.pinned_site >= 0) return -1;
    const int a = primary_[static_cast<std::size_t>(i)];
    const long long s = group.servers;
    const double d = instance_->use_vpn_links ? 0.0
                                              : group.monthly_data_megabits;
    const int b = dr_ ? secondary_[static_cast<std::size_t>(i)] : -1;
    const std::span<const Money> placement = model_->placement_cost_row(i);
    const Money placement_here = placement[static_cast<std::size_t>(a)];
    // Shared pools track the column max of b with a's load already reduced;
    // dedicated pools are invariant under primary moves (the column sum
    // does not change).
    const bool shared = dr_ && !dedicated_;
    const ColumnTop column =
        shared ? column_top(b, a,
                            load_[static_cast<std::size_t>(a)][
                                static_cast<std::size_t>(b)] -
                                s)
               : ColumnTop{};
    bool have_leave = false;
    Money leave = 0.0;
    int best_site = -1;
    Money best_delta = -min_gain;
    for (int a2 = 0; a2 < instance_->num_sites(); ++a2) {
      if (a2 == a || !group_allowed_at(group, a2)) continue;
      if (separation_blocks(i, a2)) continue;
      if (group_limit_ > 0 &&
          group_count_[static_cast<std::size_t>(a2)] + 1 > group_limit_) {
        continue;
      }
      if (dr_ && a2 == b) continue;  // primary == secondary
      long long backup_delta_b = 0;
      if (shared) {
        const long long new_g = std::max(
            load_[static_cast<std::size_t>(a2)][static_cast<std::size_t>(b)] +
                s,
            column.max_without(a2));
        backup_delta_b = new_g - backups_[static_cast<std::size_t>(b)];
      }
      // Capacity checks (b may gain backup servers).
      if (servers_[static_cast<std::size_t>(a2)] + s > capacity(a2)) continue;
      if (backup_delta_b > 0 &&
          servers_[static_cast<std::size_t>(b)] + backup_delta_b >
              capacity(b)) {
        continue;
      }
      if (!have_leave) {
        leave = site_cost_if(a, servers_[static_cast<std::size_t>(a)] - s,
                             data_[static_cast<std::size_t>(a)] - d,
                             dr_ ? backups_[static_cast<std::size_t>(a)] : 0) -
                site_cost_[static_cast<std::size_t>(a)];
        have_leave = true;
      }
      Money delta = placement[static_cast<std::size_t>(a2)] - placement_here;
      delta += leave;
      delta += site_cost_if(a2, servers_[static_cast<std::size_t>(a2)] + s,
                            data_[static_cast<std::size_t>(a2)] + d,
                            dr_ ? backups_[static_cast<std::size_t>(a2)] : 0) -
               site_cost_[static_cast<std::size_t>(a2)];
      if (backup_delta_b != 0) {
        delta += site_cost_if(
                     b, servers_[static_cast<std::size_t>(b)] + backup_delta_b,
                     data_[static_cast<std::size_t>(b)],
                     backups_[static_cast<std::size_t>(b)] + backup_delta_b) -
                 site_cost_[static_cast<std::size_t>(b)];
      }
      if (delta < best_delta) {
        best_delta = delta;
        best_site = a2;
      }
    }
    return best_site;
  }

  void commit_primary_move(int i, int a2) {
    const auto& group = instance_->groups[static_cast<std::size_t>(i)];
    const int a = primary_[static_cast<std::size_t>(i)];
    const long long s = group.servers;
    const double d = instance_->use_vpn_links ? 0.0
                                              : group.monthly_data_megabits;
    servers_[static_cast<std::size_t>(a)] -= s;
    data_[static_cast<std::size_t>(a)] -= d;
    servers_[static_cast<std::size_t>(a2)] += s;
    data_[static_cast<std::size_t>(a2)] += d;
    group_count_[static_cast<std::size_t>(a)] -= 1;
    group_count_[static_cast<std::size_t>(a2)] += 1;
    if (dr_) {
      const int b = secondary_[static_cast<std::size_t>(i)];
      load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] -= s;
      load_[static_cast<std::size_t>(a2)][static_cast<std::size_t>(b)] += s;
      servers_[static_cast<std::size_t>(b)] += refresh_pool(b);
    }
    primary_[static_cast<std::size_t>(i)] = a2;
    refresh_sites({a, a2, dr_ ? secondary_[static_cast<std::size_t>(i)] : -1});
  }

  /// The feasible secondary relocation of group i that saves more than
  /// `min_gain` and the most of all, or -1, in the same scan order and
  /// evaluation order as best_primary_move: the leave-b term is priced once.
  [[nodiscard]] int best_secondary_move(int i, Money min_gain) const {
    const auto& group = instance_->groups[static_cast<std::size_t>(i)];
    const int a = primary_[static_cast<std::size_t>(i)];
    const int b = secondary_[static_cast<std::size_t>(i)];
    const long long s = group.servers;
    const double d = instance_->use_vpn_links ? 0.0
                                              : group.monthly_data_megabits;
    const std::span<const Money> placement = model_->placement_cost_row(i);
    const Money placement_here = placement[static_cast<std::size_t>(b)];
    const auto& load_a = load_[static_cast<std::size_t>(a)];
    // Pool of `site` once a's load backed up there changes by `change`.
    const auto new_pool = [&](int site, long long change) {
      const auto j = static_cast<std::size_t>(site);
      return dedicated_ ? backups_[j] + change
                        : column_top(site, a, load_a[j] + change).first;
    };
    const long long delta_b =
        new_pool(b, -s) - backups_[static_cast<std::size_t>(b)];
    bool have_leave = false;
    Money leave = 0.0;
    int best_site = -1;
    Money best_delta = -min_gain;
    for (int b2 = 0; b2 < instance_->num_sites(); ++b2) {
      if (b2 == b || b2 == a) continue;
      // Allowed-sites rules bind the secondary (not pins).
      if (!group.allowed_sites.empty() &&
          std::find(group.allowed_sites.begin(), group.allowed_sites.end(),
                    b2) == group.allowed_sites.end()) {
        continue;
      }
      const long long delta_b2 =
          new_pool(b2, s) - backups_[static_cast<std::size_t>(b2)];
      if (servers_[static_cast<std::size_t>(b2)] + delta_b2 > capacity(b2)) {
        continue;
      }
      if (!have_leave) {
        leave = site_cost_if(b, servers_[static_cast<std::size_t>(b)] + delta_b,
                             data_[static_cast<std::size_t>(b)] - d,
                             backups_[static_cast<std::size_t>(b)] + delta_b) -
                site_cost_[static_cast<std::size_t>(b)];
        have_leave = true;
      }
      Money delta = placement[static_cast<std::size_t>(b2)] - placement_here;
      delta += leave;
      delta += site_cost_if(b2,
                            servers_[static_cast<std::size_t>(b2)] + delta_b2,
                            data_[static_cast<std::size_t>(b2)] + d,
                            backups_[static_cast<std::size_t>(b2)] + delta_b2) -
               site_cost_[static_cast<std::size_t>(b2)];
      if (delta < best_delta) {
        best_delta = delta;
        best_site = b2;
      }
    }
    return best_site;
  }

  void commit_secondary_move(int i, int b2) {
    const auto& group = instance_->groups[static_cast<std::size_t>(i)];
    const int a = primary_[static_cast<std::size_t>(i)];
    const int b = secondary_[static_cast<std::size_t>(i)];
    const long long s = group.servers;
    const double d = instance_->use_vpn_links ? 0.0
                                              : group.monthly_data_megabits;
    load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] -= s;
    load_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b2)] += s;
    for (const int site : {b, b2}) {
      servers_[static_cast<std::size_t>(site)] += refresh_pool(site);
    }
    data_[static_cast<std::size_t>(b)] -= d;
    data_[static_cast<std::size_t>(b2)] += d;
    secondary_[static_cast<std::size_t>(i)] = b2;
    refresh_sites({a, b, b2});
  }

  /// Delta of swapping the primaries of groups i and k (non-DR only).
  [[nodiscard]] Money swap_delta(int i, int k) const {
    const int a = primary_[static_cast<std::size_t>(i)];
    const int c = primary_[static_cast<std::size_t>(k)];
    if (a == c) return kInfeasible;
    const auto& gi = instance_->groups[static_cast<std::size_t>(i)];
    const auto& gk = instance_->groups[static_cast<std::size_t>(k)];
    if (gi.pinned_site >= 0 || gk.pinned_site >= 0) return kInfeasible;
    if (!group_allowed_at(gi, c) || !group_allowed_at(gk, a)) {
      return kInfeasible;
    }
    if (separation_blocks(i, c) || separation_blocks(k, a)) return kInfeasible;
    const long long si = gi.servers;
    const long long sk = gk.servers;
    const double di =
        instance_->use_vpn_links ? 0.0 : gi.monthly_data_megabits;
    const double dk =
        instance_->use_vpn_links ? 0.0 : gk.monthly_data_megabits;
    if (servers_[static_cast<std::size_t>(a)] - si + sk > capacity(a)) {
      return kInfeasible;
    }
    if (servers_[static_cast<std::size_t>(c)] - sk + si > capacity(c)) {
      return kInfeasible;
    }
    const std::span<const Money> pi = model_->placement_cost_row(i);
    const std::span<const Money> pk = model_->placement_cost_row(k);
    Money delta = pi[static_cast<std::size_t>(c)] -
                  pi[static_cast<std::size_t>(a)] +
                  pk[static_cast<std::size_t>(a)] -
                  pk[static_cast<std::size_t>(c)];
    delta += site_cost_if(a, servers_[static_cast<std::size_t>(a)] - si + sk,
                          data_[static_cast<std::size_t>(a)] - di + dk, 0) -
             site_cost_[static_cast<std::size_t>(a)];
    delta += site_cost_if(c, servers_[static_cast<std::size_t>(c)] - sk + si,
                          data_[static_cast<std::size_t>(c)] - dk + di, 0) -
             site_cost_[static_cast<std::size_t>(c)];
    return delta;
  }

  void commit_swap(int i, int k) {
    const int a = primary_[static_cast<std::size_t>(i)];
    const int c = primary_[static_cast<std::size_t>(k)];
    const auto& gi = instance_->groups[static_cast<std::size_t>(i)];
    const auto& gk = instance_->groups[static_cast<std::size_t>(k)];
    const double di =
        instance_->use_vpn_links ? 0.0 : gi.monthly_data_megabits;
    const double dk =
        instance_->use_vpn_links ? 0.0 : gk.monthly_data_megabits;
    servers_[static_cast<std::size_t>(a)] += gk.servers - gi.servers;
    servers_[static_cast<std::size_t>(c)] += gi.servers - gk.servers;
    data_[static_cast<std::size_t>(a)] += dk - di;
    data_[static_cast<std::size_t>(c)] += di - dk;
    primary_[static_cast<std::size_t>(i)] = c;
    primary_[static_cast<std::size_t>(k)] = a;
    refresh_sites({a, c, -1});
  }

  void refresh_sites(std::initializer_list<int> sites) {
    for (const int j : sites) {
      if (j < 0) continue;
      total_site_cost_ -= site_cost_[static_cast<std::size_t>(j)];
      site_cost_[static_cast<std::size_t>(j)] = exact_site_cost(j);
      total_site_cost_ += site_cost_[static_cast<std::size_t>(j)];
    }
  }

  void export_to(Plan& plan) const {
    plan.primary = primary_;
    if (dr_) {
      plan.secondary = secondary_;
      plan.backup_servers.assign(backups_.begin(), backups_.end());
    }
  }

  [[nodiscard]] bool has_dr() const { return dr_; }
  [[nodiscard]] int primary_of(int i) const {
    return primary_[static_cast<std::size_t>(i)];
  }

  static constexpr Money kInfeasible =
      std::numeric_limits<double>::infinity();

 private:
  const CostModel* model_;
  const ConsolidationInstance* instance_;
  std::vector<int> primary_;
  std::vector<int> secondary_;
  bool dr_;
  std::vector<long long> servers_;  // primaries + provisioned backups
  std::vector<double> data_;        // flat-mode WAN aggregate (incl. replica)
  bool dedicated_ = false;
  int group_limit_ = 0;
  std::vector<int> group_count_;  // primaries per site (omega cap)
  std::vector<std::vector<long long>> load_;  // [primary][secondary] servers
  std::vector<long long> backups_;  // G_j: column max (shared) / sum (dedicated)
  std::vector<std::vector<int>> partners_;    // separation partners per group
  std::vector<Money> site_cost_;
  Money total_site_cost_ = 0.0;
};

}  // namespace

bool improve_plan(const CostModel& model, Plan& plan,
                  const LocalSearchOptions& options, SolveStats* stats) {
  const int num_groups = model.instance().num_groups();
  if (static_cast<int>(plan.primary.size()) != num_groups) {
    throw InvalidInputError("improve_plan: plan does not match instance");
  }
  PlanState state(model, plan, options.dedicated_backups,
                  options.max_groups_per_site);
  Rng rng(options.seed);
  std::vector<int> order(static_cast<std::size_t>(num_groups));
  std::iota(order.begin(), order.end(), 0);

  bool improved_any = false;
  constexpr Money kMinGain = 1e-7;
  long long passes = 0;
  long long moves = 0;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++passes;
    bool improved_this_pass = false;
    rng.shuffle(order);
    for (const int i : order) {
      const int best_site = state.best_primary_move(i, kMinGain);
      if (best_site >= 0) {
        state.commit_primary_move(i, best_site);
        ++moves;
        improved_this_pass = true;
      }
      if (state.has_dr()) {
        const int best_backup = state.best_secondary_move(i, kMinGain);
        if (best_backup >= 0) {
          state.commit_secondary_move(i, best_backup);
          ++moves;
          improved_this_pass = true;
        }
      }
    }
    // Swap sweep (non-DR): lets two groups trade places when neither fits
    // alone.
    if (options.enable_swaps && !state.has_dr()) {
      for (int i = 0; i < num_groups; ++i) {
        for (int k = i + 1; k < num_groups; ++k) {
          const Money delta = state.swap_delta(i, k);
          if (delta < -kMinGain) {
            state.commit_swap(i, k);
            ++moves;
            improved_this_pass = true;
          }
        }
      }
    }
    if (!improved_this_pass) break;
    improved_any = true;
  }
  if (stats != nullptr) {
    stats->add("passes", static_cast<double>(passes));
    stats->add("moves_committed", static_cast<double>(moves));
  }
  if (improved_any) {
    state.export_to(plan);
    model.price_plan(plan);
  }
  return improved_any;
}

}  // namespace etransform
