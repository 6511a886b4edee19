#include "milp/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/progress.h"
#include "common/thread_pool.h"
#include "milp/node_store.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace etransform::milp {

namespace {

using lp::LpEngine;
using lp::LpSolution;
using lp::LpStartBasis;
using lp::Model;
using lp::SolveStatus;
using detail::BoundChange;
using detail::Node;
using detail::NodeBounds;
using detail::OpenNodes;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Incumbent/bound trace entries kept per solve. Bounds memory on
/// pathological trees where the dual bound moves at almost every node.
constexpr std::size_t kMaxTracePoints = 4096;

/// Pseudocost estimates are floored at this so a zero-degradation direction
/// never zeroes out the product score.
constexpr double kScoreEps = 1e-6;

/// Scoring value for a branching direction a strong-branching probe proved
/// infeasible (fixing the variable prunes the subtree outright).
constexpr double kInfeasibleScore = 1e8;

/// Index of the most fractional integer variable, or -1 if all integral.
int most_fractional(const Model& model, const std::vector<double>& values,
                    double tol) {
  int best = -1;
  double best_score = tol;  // distance from the nearest integer, in (0, 0.5]
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    const double v = values[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double score = std::min(frac, 1.0 - frac);
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

bool all_integral(const Model& model, const std::vector<double>& values,
                  double tol) {
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    const double v = values[static_cast<std::size_t>(j)];
    if (std::abs(v - std::round(v)) > tol) return false;
  }
  return true;
}

/// Snaps near-integral values exactly onto integers.
void snap_integers(const Model& model, std::vector<double>& values,
                   double tol) {
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double& v = values[static_cast<std::size_t>(j)];
    const double r = std::round(v);
    if (std::abs(v - r) <= tol) v = r;
  }
}

/// Per-variable branching history: average objective degradation per unit of
/// fraction, per direction. Variables without observations inherit the
/// global average (a freshly measured strong-branch value beats both; see
/// select_branch in solve_impl). Internally synchronized so it stays safe
/// if pool threads ever read it; the uncontended lock is noise next to the
/// LP solve every access rides along with.
class Pseudocosts {
 public:
  explicit Pseudocosts(int num_vars)
      : down_sum_(static_cast<std::size_t>(num_vars), 0.0),
        up_sum_(static_cast<std::size_t>(num_vars), 0.0),
        down_n_(static_cast<std::size_t>(num_vars), 0),
        up_n_(static_cast<std::size_t>(num_vars), 0) {}

  void update(int j, bool up, double per_frac) {
    const std::lock_guard<std::mutex> lock(mu_);
    per_frac = std::max(per_frac, 0.0);
    if (up) {
      up_sum_[static_cast<std::size_t>(j)] += per_frac;
      ++up_n_[static_cast<std::size_t>(j)];
      global_up_sum_ += per_frac;
      ++global_up_n_;
    } else {
      down_sum_[static_cast<std::size_t>(j)] += per_frac;
      ++down_n_[static_cast<std::size_t>(j)];
      global_down_sum_ += per_frac;
      ++global_down_n_;
    }
  }

  [[nodiscard]] double estimate(int j, bool up) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const int n = up ? up_n_[static_cast<std::size_t>(j)]
                     : down_n_[static_cast<std::size_t>(j)];
    if (n > 0) {
      const double sum = up ? up_sum_[static_cast<std::size_t>(j)]
                            : down_sum_[static_cast<std::size_t>(j)];
      return sum / n;
    }
    const long long gn = up ? global_up_n_ : global_down_n_;
    if (gn > 0) return (up ? global_up_sum_ : global_down_sum_) / gn;
    return 1.0;
  }

  /// Observations in the weaker direction — the reliability measure.
  [[nodiscard]] int observations(int j) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::min(down_n_[static_cast<std::size_t>(j)],
                    up_n_[static_cast<std::size_t>(j)]);
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> down_sum_;
  std::vector<double> up_sum_;
  std::vector<int> down_n_;
  std::vector<int> up_n_;
  double global_down_sum_ = 0.0;
  double global_up_sum_ = 0.0;
  long long global_down_n_ = 0;
  long long global_up_n_ = 0;
};

/// Pool threads for SearchOptions::threads: > 0 is taken literally, <= 0
/// means one per hardware thread.
int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

/// Everything one pool slot owns privately, so probes in flight never share
/// mutable state: a SolveContext of its own (SolveScope nesting is
/// stack-like and must stay single-threaded; cancellation is linked back to
/// the solve's context and the deadline is copied), its own PreparedLp over
/// the (possibly cut-strengthened) tree model, its own probe LpEngine, and
/// the working bounds its probe LPs materialize into. Per-slot PreparedLps
/// are built from the same model, so their internal column/row layout is
/// identical — which is what lets a node basis produced on the solve's own
/// engine warm-start a probe on any slot with
/// LpStartBasis::Origin::kBoundChange.
struct LpSlot {
  LpSlot(const lp::Model& tree_model, const lp::SimplexOptions& sb_options,
         const SolveContext& parent)
      : prep(tree_model), sb_engine(sb_options) {
    ctx.set_deadline(parent.deadline());
    ctx.link_cancel_to(parent);
    ctx.set_trace(parent.trace());
    ctx.set_metrics(parent.metrics());
    ctx.set_trace_id(parent.trace_id());
    ctx.set_progress(parent.progress());
  }

  SolveContext ctx;
  lp::PreparedLp prep;
  LpEngine sb_engine;
  NodeBounds bounds;
  long long lp_iterations = 0;  // probe pivots on this slot
};

}  // namespace

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnbounded: return "unbounded";
    case MilpStatus::kNoSolutionFound: return "no_solution_found";
    case MilpStatus::kTimeLimit: return "time_limit";
    case MilpStatus::kCancelled: return "cancelled";
  }
  return "?";
}

BranchAndBoundSolver::BranchAndBoundSolver(SolverOptions options)
    : options_(options) {}

void BranchAndBoundSolver::add_cut_generator(
    std::shared_ptr<CutGenerator> generator) {
  generators_.push_back(std::move(generator));
}

MilpSolution BranchAndBoundSolver::solve(
    const Model& model, SolveContext& ctx,
    const lp::BasisSnapshot* root_warm) const {
  model.validate();
  // time_limit_ms tightens — never loosens — the caller's deadline.
  const DeadlineGuard guard(
      ctx,
      options_.search.time_limit_ms > 0
          ? Deadline::after_ms(static_cast<double>(options_.search.time_limit_ms))
          : Deadline::unlimited());
  SolveScope scope(ctx, "branch_and_bound");
  MilpSolution result = solve_impl(model, ctx, scope.stats(), root_warm);
  scope.close();
  result.stats = scope.stats();
  return result;
}

MilpSolution BranchAndBoundSolver::solve_impl(
    const Model& model, SolveContext& ctx, SolveStats& stats,
    const lp::BasisSnapshot* root_warm) const {
  // Cancellation beats the deadline when both apply.
  const auto interruption = [&ctx]() -> std::optional<MilpStatus> {
    if (ctx.cancelled()) return MilpStatus::kCancelled;
    if (ctx.deadline().expired()) return MilpStatus::kTimeLimit;
    return std::nullopt;
  };
  const auto milp_status_of_lp = [](SolveStatus status) {
    return status == SolveStatus::kCancelled ? MilpStatus::kCancelled
                                             : MilpStatus::kTimeLimit;
  };

  const double sense_sign = model.sense() == lp::Sense::kMinimize ? 1.0 : -1.0;
  const double integrality_tol = options_.search.integrality_tol;
  // Internally everything is a minimization of sense_sign * objective.
  LpEngine lp_solver(options_.lp);
  // The standard form is bounds-independent: build it once and share it
  // across the root, the dive, and every node (only bounds change per
  // node). The root cutting loop may rebind `prep` to a strengthened form
  // over `cut_model` (base rows + accepted cut rows).
  lp::Model cut_model;
  auto prep = std::make_unique<lp::PreparedLp>(model);
  long long warm_started_nodes = 0;
  long long dual_reopt_nodes = 0;
  // Node re-solves differ from the basis-producing solve only in variable
  // bounds, so they restart with Origin::kBoundChange — the contract that
  // lets SolveMode::kAuto reoptimize with the dual simplex.
  const auto solve_node = [&](const std::vector<double>& lower,
                              const std::vector<double>& upper,
                              const lp::BasisSnapshot* warm) {
    LpSolution lp = lp_solver.solve(
        *prep, lower, upper, ctx,
        LpStartBasis(options_.search.warm_start_nodes ? warm : nullptr,
                     LpStartBasis::Origin::kBoundChange));
    if (lp.warm_started) ++warm_started_nodes;
    if (lp.used_dual) ++dual_reopt_nodes;
    return lp;
  };
  MilpSolution result;
  // Every return path stamps the node count and the reoptimization tallies
  // exactly once — cut rounds can run dual re-solves even when the
  // strengthened root goes integral and the tree is never explored.
  const auto stamp_counters = [&]() {
    stats.add("nodes", result.nodes);
    stats.add("warm_started_nodes", static_cast<double>(warm_started_nodes));
    stats.add("dual_reopt_nodes", static_cast<double>(dual_reopt_nodes));
  };
  const int n = model.num_variables();
  std::vector<double> root_lower(static_cast<std::size_t>(n));
  std::vector<double> root_upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const auto& v = model.variable(j);
    // Integer bounds can be pre-rounded inward.
    root_lower[static_cast<std::size_t>(j)] =
        v.is_integer && std::isfinite(v.lower) ? std::ceil(v.lower - 1e-9)
                                               : v.lower;
    root_upper[static_cast<std::size_t>(j)] =
        v.is_integer && std::isfinite(v.upper) ? std::floor(v.upper + 1e-9)
                                               : v.upper;
  }

  bool have_incumbent = false;
  double incumbent = 0.0;  // in internal (minimization) orientation
  std::vector<double> incumbent_values;
  double global_bound = -lp::kInfinity;
  // Every return before the tree search: the status, the bound proven so
  // far (unbounded below until the root LP is optimal) and the counters.
  const auto finish = [&](MilpStatus status) {
    result.status = status;
    result.best_bound = sense_sign * global_bound;
    stamp_counters();
    return std::move(result);
  };

  // Live progress: push a sample into the job's SolveProgress ring (when
  // attached) at every trace-worthy moment. Every publication happens on
  // this thread, which is the ring's single-writer contract.
  const auto publish_progress = [&](double bound_internal) {
    if (SolveProgress* progress = ctx.progress()) {
      const bool has_bound = bound_internal > -lp::kInfinity / 2;
      progress->publish(ctx.elapsed_ms(), result.nodes,
                        have_incumbent ? sense_sign * incumbent : 0.0,
                        have_incumbent, sense_sign * bound_internal,
                        has_bound);
    }
  };

  const auto record_trace = [&](double bound_internal) {
    // Before the cap: the stats trace is bounded history, the progress ring
    // wraps — a long solve must keep streaming samples past the cap.
    publish_progress(bound_internal);
    if (stats.trace.size() >= kMaxTracePoints) return;
    TracePoint point;
    point.time_ms = ctx.elapsed_ms();
    point.node = result.nodes;
    point.incumbent = have_incumbent ? sense_sign * incumbent : kNaN;
    point.bound = sense_sign * bound_internal;
    stats.trace.push_back(point);
  };

  const auto try_incumbent = [&](const std::vector<double>& values,
                                 double objective_model_sense) -> bool {
    const double internal = sense_sign * objective_model_sense;
    if (!have_incumbent || internal < incumbent - 1e-12) {
      have_incumbent = true;
      incumbent = internal;
      incumbent_values = values;
      snap_integers(model, incumbent_values, integrality_tol);
      stats.add("incumbents", 1.0);
      record_trace(global_bound);
      if (ctx.events.on_incumbent) {
        IncumbentEvent event;
        event.node = result.nodes;
        event.objective = objective_model_sense;
        event.time_ms = ctx.elapsed_ms();
        ctx.events.on_incumbent(event);
      }
      ET_LOG(kDebug) << "milp: new incumbent " << objective_model_sense;
      return true;
    }
    return false;
  };

  // Diving heuristic: at every step fix *all* nearly-integral integer
  // variables plus the single most fractional one, then re-solve. Fixing in
  // bulk keeps dives to a handful of LP solves even on thousands of
  // binaries; if a bulk fix turns infeasible the dive simply aborts and
  // branch-and-bound proceeds.
  const auto dive = [&](std::vector<double> lower, std::vector<double> upper,
                        const LpSolution& start) {
    SolveScope dive_scope(ctx, "root_dive");
    LpSolution current = start;
    for (int depth = 0; depth < 64; ++depth) {
      if (all_integral(model, current.values, integrality_tol)) {
        try_incumbent(current.values, current.objective);
        return;
      }
      for (int j = 0; j < n; ++j) {
        if (!model.variable(j).is_integer) continue;
        const double v = current.values[static_cast<std::size_t>(j)];
        const double rounded = std::round(v);
        if (std::abs(v - rounded) <= 0.05) {
          lower[static_cast<std::size_t>(j)] = rounded;
          upper[static_cast<std::size_t>(j)] = rounded;
        }
      }
      const int j = most_fractional(model, current.values, integrality_tol);
      if (j < 0) return;
      const double fixed =
          std::round(current.values[static_cast<std::size_t>(j)]);
      lower[static_cast<std::size_t>(j)] = fixed;
      upper[static_cast<std::size_t>(j)] = fixed;
      current = solve_node(lower, upper, current.basis.get());
      result.lp_iterations += current.iterations;
      if (current.status != SolveStatus::kOptimal) return;
      if (have_incumbent && sense_sign * current.objective >= incumbent) {
        return;
      }
    }
  };

  // Root relaxation. `root_warm` (a clean-root basis from a previous solve
  // of a modified variant of this model — the iterative admin path) rides
  // the same bound-change restart contract as node re-solves.
  LpSolution root;
  {
    SolveScope root_scope(ctx, "root_lp");
    root = solve_node(root_lower, root_upper, root_warm);
  }
  result.lp_iterations += root.iterations;
  ++result.nodes;
  switch (root.status) {
    case SolveStatus::kInfeasible:
      return finish(MilpStatus::kInfeasible);
    case SolveStatus::kUnbounded:
      return finish(MilpStatus::kUnbounded);
    case SolveStatus::kNumericalError:
      stats.add("numerical_nodes", 1.0);
      [[fallthrough]];
    case SolveStatus::kIterationLimit:
      return finish(MilpStatus::kNoSolutionFound);
    case SolveStatus::kTimeLimit:
    case SolveStatus::kCancelled:
      // Interrupted before any bound or incumbent existed.
      return finish(milp_status_of_lp(root.status));
    case SolveStatus::kOptimal:
      break;
  }
  // The clean-root basis (over the unmodified model's standard form) is
  // what a future replan of a modified variant can restart from; the
  // cut-strengthened basis below has a different shape.
  result.root_basis = root.basis;
  global_bound = sense_sign * root.objective;
  record_trace(global_bound);
  if (ctx.events.on_node) {
    NodeEvent event;
    event.node = result.nodes;
    event.depth = 0;
    event.relaxation = root.objective;
    event.best_bound = sense_sign * global_bound;
    event.incumbent = kNaN;
    event.open_nodes = 0;
    ctx.events.on_node(event);
  }

  // ---- root cutting loop (cut-and-branch) --------------------------------
  // Cuts are separated only here, under the original bounds, so every
  // accepted row is valid for the whole tree. Each round: separate ->
  // purge aged cuts -> rebuild the standard form over base + pool ->
  // extend the previous basis via lp::extend_basis (new cut slacks enter
  // basic, leaving the old duals intact) -> re-solve with
  // Origin::kRowsAdded, so SolveMode::kAuto prices the violated cut rows
  // out with the dual simplex instead of a composite phase-1 repair.
  if (options_.cuts.enable && model.has_integer_variables()) {
    SolveScope cuts_scope(ctx, "cuts");
    SolveStats& cstats = cuts_scope.stats();
    std::vector<std::shared_ptr<CutGenerator>> generators = generators_;
    if (generators.empty()) {
      generators = default_cut_generators(options_.cuts);
    }

    CutPool pool;
    std::vector<long long> applied_ids;  // pool id per cut row in `prep`
    const int base_rows = prep->num_rows();
    LpSolution current = root;
    bool cuts_failed = false;
    std::optional<MilpStatus> cut_interrupt;

    const auto rebuild_and_resolve = [&]() -> bool {
      std::vector<int> old_row_of_new;
      old_row_of_new.reserve(static_cast<std::size_t>(base_rows) +
                             static_cast<std::size_t>(pool.size()));
      for (int r = 0; r < base_rows; ++r) old_row_of_new.push_back(r);
      std::vector<long long> new_ids;
      new_ids.reserve(static_cast<std::size_t>(pool.size()));
      lp::Model next = model;  // base rows keep their kept-row indices
      for (const Cut& cut : pool.cuts()) {
        next.add_constraint(cut.name, cut.terms, cut.relation, cut.rhs);
        int old_index = -1;
        for (std::size_t k = 0; k < applied_ids.size(); ++k) {
          if (applied_ids[k] == cut.id) {
            old_index = base_rows + static_cast<int>(k);
            break;
          }
        }
        old_row_of_new.push_back(old_index);
        new_ids.push_back(cut.id);
      }
      cut_model = std::move(next);
      auto next_prep = std::make_unique<lp::PreparedLp>(cut_model);
      const lp::BasisSnapshot warm =
          lp::extend_basis(*current.basis, prep->num_vars, old_row_of_new,
                           next_prep->num_rows(), next_prep->num_columns());
      prep = std::move(next_prep);
      applied_ids = std::move(new_ids);
      LpSolution next_sol = lp_solver.solve(
          *prep, root_lower, root_upper, ctx,
          LpStartBasis(&warm, LpStartBasis::Origin::kRowsAdded));
      result.lp_iterations += next_sol.iterations;
      if (next_sol.used_dual) ++dual_reopt_nodes;
      current = std::move(next_sol);
      return current.status == SolveStatus::kOptimal;
    };

    int rounds = 0;
    double round_obj = sense_sign * current.objective;
    int stalled_rounds = 0;
    if (!all_integral(model, current.values, integrality_tol)) {
      while (rounds < options_.cuts.max_rounds) {
        if (auto stop = interruption()) {
          cut_interrupt = stop;
          break;
        }
        const telemetry::TraceSpan round_span(ctx.trace(), "milp",
                                              "cuts.round");
        SeparationContext sctx;
        sctx.model = prep->model;
        sctx.prep = prep.get();
        sctx.lower = &root_lower;
        sctx.upper = &root_upper;
        sctx.options = options_.cuts;
        sctx.integrality_tol = integrality_tol;
        int fresh = 0;
        for (const auto& generator : generators) {
          const long long before = pool.total_generated();
          fresh += generator->separate(sctx, current, pool);
          cstats.add(std::string(generator->name()) + "_cuts",
                     static_cast<double>(pool.total_generated() - before));
        }
        // A dry round still counts: "rounds" reports separation attempts,
        // which is what the stats validator keys on.
        ++rounds;
        if (fresh == 0) break;
        pool.purge(options_.cuts.max_inactive_rounds);
        if (!rebuild_and_resolve()) {
          cuts_failed = true;
          break;
        }
        pool.record_activity(current.values, 1e-7);
        if (all_integral(model, current.values, integrality_tol)) break;
        // Tailing off: separation that no longer moves the bound just piles
        // rows onto every node LP — stop after two flat rounds.
        const double obj = sense_sign * current.objective;
        const double gain = (obj - round_obj) / std::max(1.0, std::abs(obj));
        stalled_rounds = gain < options_.cuts.tailoff ? stalled_rounds + 1 : 0;
        round_obj = obj;
        if (stalled_rounds >= 2) break;
      }
      // Final aging sweep: rows that went slack in the last rounds leave
      // before the tree is explored (they would only slow node LPs).
      if (!cuts_failed && !cut_interrupt &&
          pool.purge(options_.cuts.max_inactive_rounds) > 0) {
        if (!rebuild_and_resolve()) cuts_failed = true;
      }
    }

    if (cuts_failed) {
      // Defensive: a valid cut system cannot make the root infeasible, but
      // an interrupted or numerically failed re-solve must not poison the
      // tree. Drop every cut and restore the clean root relaxation.
      const SolveStatus failed_status = current.status;
      ET_LOG(kWarning) << "milp: cut loop LP ended ("
                       << lp::to_string(failed_status)
                       << "); discarding " << pool.size() << " cuts";
      applied_ids.clear();
      prep = std::make_unique<lp::PreparedLp>(model);
      current = lp_solver.solve(
          *prep, root_lower, root_upper, ctx,
          LpStartBasis(root.basis.get(), LpStartBasis::Origin::kBoundChange));
      result.lp_iterations += current.iterations;
      if (failed_status == SolveStatus::kTimeLimit ||
          failed_status == SolveStatus::kCancelled) {
        cut_interrupt = milp_status_of_lp(failed_status);
      }
    }

    result.cuts.rounds = rounds;
    result.cuts.generated = pool.total_generated();
    result.cuts.applied = cuts_failed ? 0 : pool.size();
    result.cuts.purged = pool.total_purged();
    cstats.add("rounds", static_cast<double>(result.cuts.rounds));
    cstats.add("generated", static_cast<double>(result.cuts.generated));
    cstats.add("applied", static_cast<double>(result.cuts.applied));
    cstats.add("purged", static_cast<double>(result.cuts.purged));
    if (telemetry::MetricsRegistry* mreg = ctx.metrics()) {
      mreg->counter("etransform_milp_cut_rounds_total",
                    "Root cut separation rounds")
          .add(static_cast<double>(result.cuts.rounds));
      mreg->counter("etransform_milp_cuts_generated_total",
                    "Cuts accepted into the pool")
          .add(static_cast<double>(result.cuts.generated));
      mreg->counter("etransform_milp_cuts_applied_total",
                    "Cut rows in the final root relaxation")
          .add(static_cast<double>(result.cuts.applied));
      mreg->counter("etransform_milp_cuts_purged_total",
                    "Cuts aged out by the activity policy")
          .add(static_cast<double>(result.cuts.purged));
    }

    if (current.status == SolveStatus::kOptimal) {
      // Adopt the strengthened root; cuts only tighten, but guard against
      // numerical dips so the proven bound never regresses.
      root = std::move(current);
      if (sense_sign * root.objective > global_bound) {
        global_bound = sense_sign * root.objective;
        record_trace(global_bound);
      }
    } else if (!cut_interrupt) {
      // Clean-root restore failed numerically: no usable relaxation.
      return finish(MilpStatus::kNoSolutionFound);
    }
    // Interrupted mid-loop: unwind with the valid bound of the (possibly
    // strengthened) root.
    if (cut_interrupt) return finish(*cut_interrupt);
  }

  if (all_integral(model, root.values, integrality_tol)) {
    try_incumbent(root.values, root.objective);
    result.objective = sense_sign * incumbent;
    result.values = std::move(incumbent_values);
    return finish(MilpStatus::kOptimal);
  }
  if (options_.search.root_dive) {
    dive(root_lower, root_upper, root);
  }

  // ---- branching machinery ----------------------------------------------
  // Every node LP runs on the solve's own engine and context, exactly like
  // the root. Pool threads only run strong-branching probes, each on a slot
  // of its own. Everything else — pseudocost feedback, incumbents,
  // branching, child pushes, events — runs on this thread in pop order, so
  // `threads` never changes the tree. With one thread there is no pool and
  // no slot.
  const int search_threads = resolve_threads(options_.search.threads);
  lp::SimplexOptions sb_lp_options = options_.lp;
  sb_lp_options.max_iterations = options_.branching.strong_branch_iterations;
  LpEngine sb_solver(sb_lp_options);
  std::optional<ThreadPool> pool;
  std::vector<std::unique_ptr<LpSlot>> slots;
  if (search_threads > 1) {
    pool.emplace(search_threads);
    pool->set_trace_recorder(ctx.trace(), ctx.trace_id());
    slots.reserve(static_cast<std::size_t>(search_threads));
    for (int s = 0; s < search_threads; ++s) {
      slots.push_back(
          std::make_unique<LpSlot>(*prep->model, sb_lp_options, ctx));
    }
  }
  // The pseudocost table is internally locked and the probe budget and
  // tallies are atomics; both are only touched from this thread today.
  Pseudocosts pc(n);
  std::atomic<long long> pseudocost_updates{0};
  std::atomic<long long> strong_branch_probes{0};
  std::atomic<int> probe_budget{options_.branching.max_strong_branch_probes};
  // Working bounds of the solve's own engine; slots have their own.
  NodeBounds own_bounds;
  // Simplex iterations spent by probes on the solve's own engine; slots
  // tally their own.
  long long seq_probe_iters = 0;
  telemetry::Histogram* pc_init_histogram = nullptr;
  if (telemetry::MetricsRegistry* mreg = ctx.metrics();
      mreg != nullptr &&
      options_.branching.rule == BranchingOptions::Rule::kPseudocost) {
    pc_init_histogram = &mreg->histogram(
        "etransform_milp_pseudocost_init_degradation",
        "Per-unit-fraction objective degradation measured by "
        "strong-branching probes",
        telemetry::MetricsRegistry::log_buckets(1e-4, 1e4, 10.0));
    mreg->counter("etransform_milp_strong_branch_probes_total",
                  "Strong-branching probes (two child LPs each)");
  }

  // Iteration-capped probe of one branching direction from the node's own
  // optimal basis. Returns the measured per-unit-fraction degradation, the
  // infeasible sentinel, or NaN when the probe was inconclusive. Runs on
  // slot `w`, or on the solve-level machinery when `w` is null.
  // Deliberately does NOT touch the pseudocost table: measurements are
  // folded in later, in candidate order, so the update sequence is identical
  // whether the probes ran on one engine or eight (see select_branch).
  const auto probe_direction = [&](const Node& node, const LpSolution& relaxed,
                                   double node_bound, int j, bool up,
                                   double frac_moved,
                                   LpSlot* w) -> double {
    NodeBounds& b = w != nullptr ? w->bounds : own_bounds;
    materialize(node, root_lower, root_upper, b);
    const double v = relaxed.values[static_cast<std::size_t>(j)];
    if (up) {
      b.lower[static_cast<std::size_t>(j)] = std::ceil(v);
    } else {
      b.upper[static_cast<std::size_t>(j)] = std::floor(v);
    }
    const LpSolution sol =
        (w != nullptr ? w->sb_engine : sb_solver)
            .solve(w != nullptr ? w->prep : *prep, b.lower, b.upper,
                   w != nullptr ? w->ctx : ctx,
                   LpStartBasis(relaxed.basis.get(),
                                LpStartBasis::Origin::kBoundChange));
    (w != nullptr ? w->lp_iterations : seq_probe_iters) += sol.iterations;
    if (sol.status == SolveStatus::kInfeasible) return kInfeasibleScore;
    if (sol.status != SolveStatus::kOptimal) return kNaN;
    return std::max(0.0, sense_sign * sol.objective - node_bound) /
           std::max(frac_moved, 1e-9);
  };

  // Records one probe measurement in the pseudocost history (infeasible and
  // inconclusive probes carry no per-fraction information and are skipped).
  const auto fold_probe = [&](int j, bool up, double measured) {
    if (std::isnan(measured) || measured == kInfeasibleScore) return;
    pc.update(j, up, measured);
    ++pseudocost_updates;
    if (pc_init_histogram != nullptr) pc_init_histogram->observe(measured);
  };

  // Picks the branching variable for a node. Pseudocost product scoring
  // with strong-branching reliability initialization at shallow depth;
  // falls back to the legacy most-fractional rule when configured.
  //
  // The probe work splits into three phases so the probe LPs can run on the
  // pool: (1) pick the probe set in candidate order under the global
  // budget, (2) measure — on the solve's engine, or in parallel across the
  // slots when a pool exists, (3) fold the measurements into the pseudocost
  // table and score, again in candidate order. Probe LPs neither read the
  // pseudocost table nor each other, so phase 2's engine assignment cannot
  // change any result: the fold/score sequence is byte-identical whether
  // one engine measured or eight.
  const auto select_branch = [&](const Node& node, const LpSolution& relaxed,
                                 double node_bound) -> int {
    if (options_.branching.rule == BranchingOptions::Rule::kMostFractional) {
      return most_fractional(model, relaxed.values, integrality_tol);
    }
    struct Candidate {
      int var = 0;
      double f = 0.0;     // fractional part
      double dist = 0.0;  // distance to integrality
    };
    std::vector<Candidate> cands;
    for (int j = 0; j < n; ++j) {
      if (!model.variable(j).is_integer) continue;
      const double v = relaxed.values[static_cast<std::size_t>(j)];
      const double f = v - std::floor(v);
      const double dist = std::min(f, 1.0 - f);
      if (dist <= integrality_tol) continue;
      cands.push_back(Candidate{j, f, dist});
    }
    if (cands.empty()) return -1;
    // Probing every unreliable candidate would cost two LPs each; probe
    // only the most fractional few per node, the rest score on estimates.
    std::vector<char> may_probe(cands.size(), 0);
    if (node.depth <= options_.branching.strong_branch_max_depth &&
        probe_budget > 0) {
      std::vector<std::size_t> by_dist(cands.size());
      for (std::size_t k = 0; k < cands.size(); ++k) by_dist[k] = k;
      std::sort(by_dist.begin(), by_dist.end(),
                [&](std::size_t a, std::size_t b) {
                  if (cands[a].dist != cands[b].dist) {
                    return cands[a].dist > cands[b].dist;
                  }
                  return cands[a].var < cands[b].var;
                });
      int allowed = options_.branching.max_probes_per_node;
      for (const std::size_t k : by_dist) {
        if (allowed <= 0) break;
        if (pc.observations(cands[k].var) >= options_.branching.reliability) {
          continue;
        }
        may_probe[k] = 1;
        --allowed;
      }
    }
    // Phase 1: claim budget for this node's probes, in candidate order.
    struct Probe {
      std::size_t k = 0;
      double down = kNaN;
      double up = kNaN;
    };
    std::vector<Probe> probes;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      if (may_probe[k] && probe_budget > 0 && !ctx.deadline().expired() &&
          !ctx.cancelled()) {
        --probe_budget;
        ++strong_branch_probes;
        probes.push_back(Probe{k, kNaN, kNaN});
      }
    }
    // Phase 2: measure both directions of every claimed probe.
    const auto measure = [&](Probe& p, LpSlot* engine) {
      const Candidate& cand = cands[p.k];
      p.down = probe_direction(node, relaxed, node_bound, cand.var,
                               /*up=*/false, cand.f, engine);
      p.up = probe_direction(node, relaxed, node_bound, cand.var,
                             /*up=*/true, 1.0 - cand.f, engine);
    };
    if (pool.has_value() && probes.size() > 1) {
      // Chunked so a probe count above the slot count never lands two
      // concurrent probes on the same engine.
      for (std::size_t base = 0; base < probes.size(); base += slots.size()) {
        const int chunk =
            static_cast<int>(std::min(slots.size(), probes.size() - base));
        parallel_for(*pool, chunk, [&](int i) {
          measure(probes[base + static_cast<std::size_t>(i)],
                  slots[static_cast<std::size_t>(i)].get());
        });
      }
    } else {
      for (Probe& p : probes) measure(p, nullptr);
    }
    // Phase 3: fold measurements and score, in candidate order.
    std::size_t pi = 0;
    int best = -1;
    double best_score = -1.0;
    double best_dist = 0.0;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const int j = cands[k].var;
      const double f = cands[k].f;
      const double dist = cands[k].dist;
      double down_est = pc.estimate(j, /*up=*/false) * f;
      double up_est = pc.estimate(j, /*up=*/true) * (1.0 - f);
      if (pi < probes.size() && probes[pi].k == k) {
        const double down = probes[pi].down;
        const double up = probes[pi].up;
        ++pi;
        fold_probe(j, /*up=*/false, down);
        fold_probe(j, /*up=*/true, up);
        // A freshly measured value beats any historical average.
        if (!std::isnan(down)) {
          down_est = down == kInfeasibleScore ? down : down * f;
        }
        if (!std::isnan(up)) {
          up_est = up == kInfeasibleScore ? up : up * (1.0 - f);
        }
      }
      const double score =
          std::max(down_est, kScoreEps) * std::max(up_est, kScoreEps);
      if (score > best_score + 1e-12 ||
          (score > best_score - 1e-12 && dist > best_dist)) {
        best_score = score;
        best_dist = dist;
        best = j;
      }
    }
    return best >= 0 ? best
                     : most_fractional(model, relaxed.values, integrality_tol);
  };

  // Bytes held by live BoundChange records. Records are made and released
  // on this thread only (pool threads read nodes by reference), and the
  // count outlives every record: it is declared before `open`.
  long long chain_bytes = 0;
  const detail::TallyAllocator<BoundChange> chain_alloc(&chain_bytes);
  OpenNodes open;
  long long open_nodes_peak = 0;
  long long node_bytes_peak = 0;
  const auto note_open_peak = [&]() {
    open_nodes_peak = std::max<long long>(open_nodes_peak, open.size());
    node_bytes_peak = std::max(node_bytes_peak, open.bytes() + chain_bytes);
  };
  {
    auto root_node = std::make_unique<Node>();
    root_node->parent_basis = root.basis;
    root_node->parent_bound = sense_sign * root.objective;
    open.push(std::move(root_node));
    note_open_peak();
  }

  const auto gap_closed = [&]() {
    if (!have_incumbent) return false;
    const double denom = std::max(1.0, std::abs(incumbent));
    return (incumbent - global_bound) / denom <= options_.search.relative_gap;
  };

  // Pushes the down (x_j <= floor(v)) and up (x_j >= ceil(v)) children of a
  // branched node, each one BoundChange below the node's chain.
  const auto push_children = [&](const Node& node, const LpSolution& relaxed,
                                 double node_bound, int j) {
    materialize(node, root_lower, root_upper, own_bounds);
    const double v = relaxed.values[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    for (const bool up : {false, true}) {
      std::shared_ptr<const BoundChange> change = detail::branch_change(
          node, own_bounds, j, up, up ? std::ceil(v) : std::floor(v),
          chain_alloc);
      if (change == nullptr) continue;
      auto child = std::make_unique<Node>();
      child->bounds = std::move(change);
      child->parent_basis = relaxed.basis;
      child->parent_bound = node_bound;
      child->depth = node.depth + 1;
      child->branch_var = j;
      child->branch_up = up;
      child->branch_frac = frac;
      open.push(std::move(child));
    }
    note_open_peak();
  };

  bool budget_exhausted = false;
  std::optional<MilpStatus> interrupted;
  // Nodes whose LP failed (numerical error, unbounded, or pivot budget)
  // leave the tree unexplored. The smallest parent bound among them stays a
  // floor on the global bound, and any drop rules out a proof of optimality
  // or infeasibility.
  long long dropped_nodes = 0;
  double dropped_floor = std::numeric_limits<double>::infinity();

  // Applies one solved node to the search: LP status, pseudocost feedback,
  // pruning, the incumbent, branching and child pushes. Returns false when
  // the LP was interrupted and the search must unwind.
  const auto apply_node_outcome = [&](const Node& node,
                                      const LpSolution& relaxed,
                                      int open_nodes) -> bool {
    ++result.nodes;
    if (ctx.events.on_node) {
      NodeEvent event;
      event.node = result.nodes;
      event.depth = node.depth;
      event.relaxation =
          relaxed.status == SolveStatus::kOptimal ? relaxed.objective : kNaN;
      event.best_bound = sense_sign * global_bound;
      event.incumbent = have_incumbent ? sense_sign * incumbent : kNaN;
      event.open_nodes = open_nodes;
      ctx.events.on_node(event);
    }
    switch (relaxed.status) {
      case SolveStatus::kInfeasible:
        return true;
      case SolveStatus::kTimeLimit:
      case SolveStatus::kCancelled:
        // The deadline fired inside this node's LP; its bound is unusable,
        // so the search unwinds with the partial tree.
        interrupted = milp_status_of_lp(relaxed.status);
        return false;
      case SolveStatus::kNumericalError:
        // Counted for the daemon's numerical-degradation anomaly flag.
        stats.add("numerical_nodes", 1.0);
        [[fallthrough]];
      case SolveStatus::kUnbounded:
      case SolveStatus::kIterationLimit:
        ++dropped_nodes;
        dropped_floor = std::min(dropped_floor, node.parent_bound);
        return true;
      case SolveStatus::kOptimal:
        break;
    }
    const double node_bound = sense_sign * relaxed.objective;
    // This node's LP value is the branching outcome its parent predicted:
    // feed the realized degradation back into the pseudocosts.
    if (node.branch_var >= 0) {
      const double frac_moved =
          node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
      if (frac_moved > 1e-9) {
        pc.update(node.branch_var, node.branch_up,
                  (node_bound - node.parent_bound) / frac_moved);
        ++pseudocost_updates;
      }
    }
    if (have_incumbent && node_bound >= incumbent - 1e-12) return true;
    if (all_integral(model, relaxed.values, integrality_tol)) {
      try_incumbent(relaxed.values, relaxed.objective);
      return true;
    }
    const int j = select_branch(node, relaxed, node_bound);
    // j < 0: integral within tolerance after probing.
    if (j >= 0) push_children(node, relaxed, node_bound, j);
    return true;
  };

  // Per-node spans would dominate the trace; batch them so a million-node
  // search stays viewable. Each span covers up to kNodesPerBatchSpan nodes.
  constexpr long long kNodesPerBatchSpan = 256;
  std::optional<telemetry::TraceSpan> batch_span;
  long long next_batch_node = 0;
  const auto refresh_batch_span = [&]() {
    if (telemetry::TraceRecorder* rec = ctx.trace();
        rec != nullptr && result.nodes >= next_batch_node) {
      batch_span.reset();
      batch_span.emplace(rec, "milp", "bnb.node_batch");
      next_batch_node = result.nodes + kNodesPerBatchSpan;
    }
  };
  // Periodic node-count samples for the progress ring: bound/incumbent
  // samples only land on improvements, so a long tail chewing nodes without
  // improving would otherwise look frozen to /progress pollers.
  constexpr long long kNodesPerProgressSample = 64;
  long long next_progress_node = 0;
  const auto publish_node_progress = [&]() {
    if (ctx.progress() != nullptr && result.nodes >= next_progress_node) {
      publish_progress(global_bound);
      next_progress_node = result.nodes + kNodesPerProgressSample;
    }
  };

  // ---- tree search --------------------------------------------------------
  // Each step pops one node, pruning at pop time (pruned pops do not count
  // as nodes), solves its LP and applies the outcome.
  while (!open.empty()) {
    refresh_batch_span();
    publish_node_progress();
    // The best open node defines the global bound, floored by the parent
    // bounds of dropped nodes.
    const double fresh_bound = std::min(open.best_bound(), dropped_floor);
    if (fresh_bound > global_bound + 1e-12) {
      stats.add("bound_improvements", 1.0);
      record_trace(fresh_bound);
      if (ctx.events.on_bound_improvement) {
        BoundEvent event;
        event.node = result.nodes;
        event.bound = sense_sign * fresh_bound;
        event.incumbent = have_incumbent ? sense_sign * incumbent : kNaN;
        ctx.events.on_bound_improvement(event);
      }
    }
    global_bound = fresh_bound;
    if (gap_closed()) break;
    if (result.nodes >= options_.search.max_nodes) {
      budget_exhausted = true;
      break;
    }
    interrupted = interruption();
    if (interrupted) break;

    const std::unique_ptr<Node> node =
        open.pop(/*depth_first=*/!have_incumbent);
    if (have_incumbent && node->parent_bound >= incumbent - 1e-12) {
      continue;  // pruned by bound
    }
    materialize(*node, root_lower, root_upper, own_bounds);
    const LpSolution relaxed = solve_node(own_bounds.lower, own_bounds.upper,
                                          node->parent_basis.get());
    result.lp_iterations += relaxed.iterations;
    if (!apply_node_outcome(*node, relaxed, open.size())) break;
  }

  batch_span.reset();

  if (!slots.empty()) {
    // Fold the slots' tallies and stats trees back into the solve: each
    // slot context's "simplex" subtree merges into this solve's
    // branch_and_bound node, so the stats shape matches a one-thread solve,
    // and per-slot probe pivots land under a "parallel" child. Merge the
    // trees first: merge_from may grow stats.children, which would
    // invalidate a reference to the "parallel" child held across the calls.
    for (const std::unique_ptr<LpSlot>& slot : slots) {
      stats.merge_from(slot->ctx.stats());
    }
    SolveStats& pstats = stats.child("parallel");
    pstats.add("threads", static_cast<double>(search_threads));
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const long long iterations = slots[s]->lp_iterations;
      result.lp_iterations += static_cast<int>(iterations);
      pstats.child("worker" + std::to_string(s))
          .add("lp_iterations", static_cast<double>(iterations));
    }
  }

  const bool dropped = dropped_nodes > 0;
  if (open.empty() && !budget_exhausted && !interrupted && have_incumbent) {
    // Exhausted the tree: every subtree was pruned by the incumbent, proven
    // infeasible, or dropped with its parent bound as a floor.
    global_bound = std::min(incumbent, dropped_floor);
  }

  if (interrupted) {
    // Deadline or cancellation: report exactly that, with the incumbent (if
    // any) and the best proven bound so far as valid partial results.
    result.status = *interrupted;
    if (have_incumbent) {
      result.objective = sense_sign * incumbent;
      result.values = std::move(incumbent_values);
    }
  } else if (have_incumbent) {
    result.status =
        (!budget_exhausted && !dropped && (open.empty() || gap_closed()))
            ? MilpStatus::kOptimal
            : MilpStatus::kFeasible;
    result.objective = sense_sign * incumbent;
    result.values = std::move(incumbent_values);
  } else {
    result.status = budget_exhausted || dropped ? MilpStatus::kNoSolutionFound
                                                : MilpStatus::kInfeasible;
  }
  result.best_bound = sense_sign * std::min(global_bound,
                                            have_incumbent ? incumbent
                                                           : global_bound);
  result.lp_iterations += static_cast<int>(seq_probe_iters);
  stamp_counters();
  if (dropped) stats.add("dropped_nodes", static_cast<double>(dropped_nodes));
  const long long probes = strong_branch_probes.load();
  stats.add("strong_branch_probes", static_cast<double>(probes));
  stats.add("pseudocost_updates",
            static_cast<double>(pseudocost_updates.load()));
  stats.add("open_nodes_peak", static_cast<double>(open_nodes_peak));
  stats.add("node_bytes", static_cast<double>(node_bytes_peak));
  if (telemetry::MetricsRegistry* mreg = ctx.metrics();
      mreg != nullptr && probes > 0) {
    mreg->counter("etransform_milp_strong_branch_probes_total",
                  "Strong-branching probes (two child LPs each)")
        .add(static_cast<double>(probes));
  }
  record_trace(global_bound);
  return result;
}

}  // namespace etransform::milp
