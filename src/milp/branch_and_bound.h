// Branch-and-bound MILP solver built on the LpEngine (lp/lp_engine.h).
//
// Integer variables are enforced by branching on fractional values and
// tightening variable bounds in child nodes. The LP standard form is
// prepared once per solve (lp::PreparedLp) and shared by every node — only
// bounds change down the tree — and each child restarts the LP from its
// parent's optimal basis (see SearchOptions::warm_start_nodes) with
// LpStartBasis::Origin::kBoundChange: under SolveMode::kAuto (the default)
// the bound-flipping dual simplex reoptimizes straight from the still
// dual-feasible parent basis, and the composite primal phase 1 remains the
// fallback when the start fails the dual-feasibility check. Node selection
// is best-first by parent relaxation bound, which keeps the global lower
// bound tight and enables early termination at a requested gap. A
// depth-limited diving heuristic runs at the root to seed the incumbent.
// An open node stores its bounds as a shared chain of branching decisions,
// replayed over the root bounds into per-engine buffers when its LP runs
// (milp/node_store.h), so a node costs bytes, not two bound vectors.
//
// One search loop: each step pops one node, solves its LP on the solve's
// own engine, and applies the outcome on the solving thread. With
// SearchOptions::threads > 1 a node's strong-branching probes run on a
// ThreadPool, each on a private LpEngine + PreparedLp + SolveContext slot
// (per-slot PreparedLps have identical internal layout, so a node basis
// warm-starts a probe on any slot with the same kBoundChange dual-simplex
// reoptimization). The thread count never changes the explored tree; see
// solver_options.h and DESIGN.md ("Parallel tree search"). Per-slot probe
// pivots land under a "parallel" child of the branch_and_bound stats
// subtree. A node whose LP fails (numerical error, unbounded, pivot
// budget) is dropped: its parent bound stays a floor on the reported
// bound, and the solve can then end kFeasible or kNoSolutionFound but
// never kOptimal or kInfeasible.
//
// Root cutting planes (cut-and-branch): before branching starts, registered
// CutGenerators (Gomory mixed-integer + lifted cover by default; see
// milp/cuts.h) tighten the root relaxation over several separation rounds.
// Cut rows are appended to a working copy of the model, the standard form
// is re-prepared, and the previous basis maps over via lp::extend_basis()
// (new cut slacks enter basic, so the old duals — and dual feasibility —
// carry over verbatim); the re-solve restarts with Origin::kRowsAdded,
// which again lets kAuto pick the dual simplex to price out the violated
// cut rows. Cuts whose rows stay slack for CutOptions::max_inactive_rounds
// consecutive root solves are purged before the tree is explored.
//
// Branching is pseudocost-based (BranchingOptions::kPseudocost): each
// variable maintains average per-unit-fraction objective degradations per
// direction, reliability-initialized by strong-branching probes (two
// iteration-capped child LPs) at shallow depth until enough real
// observations exist. The legacy most-fractional rule remains available.
//
// Control & observability flow through a SolveContext: the deadline
// (tightened by SearchOptions::time_limit_ms) and cancellation token are
// honored inside every node's LP — not just between nodes — `on_node`,
// `on_incumbent`, and `on_bound_improvement` events fire as the tree is
// explored, and the solve builds a "branch_and_bound" stats subtree (cut
// rounds under "cuts", strong-branching counters, incumbent/bound trace)
// also copied into MilpSolution::stats. B&B-level events fire on the
// solving thread at any thread count, and request_cancel() on the solve's
// context also stops the LPs running on the pool.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/solve_context.h"
#include "lp/lp_engine.h"
#include "lp/model.h"
#include "milp/cuts.h"
#include "milp/solver_options.h"

namespace etransform::milp {

/// Result status of a MILP solve.
enum class MilpStatus {
  kOptimal,          // incumbent proven optimal within relative_gap
  kFeasible,         // incumbent found but node budget exhausted before proof
  kInfeasible,       // no integer-feasible point exists
  kUnbounded,        // LP relaxation unbounded
  kNoSolutionFound,  // node budget exhausted with no incumbent
  kTimeLimit,        // deadline (time_limit_ms or context) expired; check
                     // values.empty() for whether an incumbent exists
  kCancelled,        // cancellation requested; incumbent may exist
};

/// Human-readable status name.
[[nodiscard]] const char* to_string(MilpStatus status);

/// Outcome of a MILP solve.
struct MilpSolution {
  MilpStatus status = MilpStatus::kNoSolutionFound;
  /// Incumbent objective (model sense). Valid whenever `values` is
  /// non-empty (kOptimal, kFeasible, and interrupted solves that found one).
  double objective = 0.0;
  /// Proven bound on the optimum (lower bound when minimizing).
  double best_bound = 0.0;
  /// Incumbent variable values; empty when no incumbent was found.
  std::vector<double> values;
  /// Nodes expanded.
  int nodes = 0;
  /// Total simplex iterations across all nodes (root cut re-solves and
  /// strong-branching probes included).
  int lp_iterations = 0;
  /// Root cut-generation activity (all zeroes when cuts were disabled or
  /// the model has no integer variables).
  CutStats cuts;
  /// Final basis of the clean (pre-cut) root relaxation, over the standard
  /// form of the unmodified model. Callers that re-solve a modified variant
  /// of the same model (iterative admin replans) can hand it back through
  /// solve()'s `root_warm` to restart the next root LP; null when the root
  /// never reached optimality.
  std::shared_ptr<const lp::BasisSnapshot> root_basis;
  /// The "branch_and_bound" stats subtree for this solve: per-phase wall
  /// times, aggregated simplex counters, and the incumbent/bound trace.
  SolveStats stats;

  /// True when `values` holds a feasible incumbent.
  [[nodiscard]] bool has_incumbent() const { return !values.empty(); }
  /// Root cut-generation activity; see CutStats.
  [[nodiscard]] const CutStats& cut_stats() const { return cuts; }
};

/// The MILP engine. Stateless between solves; safe to reuse, including for
/// concurrent solves — CutGenerator::separate() is const and generators
/// must keep per-solve scratch on the stack (see milp/cuts.h), so a shared
/// generator set is safe across SolveFarm jobs and parallel tree searches.
class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(SolverOptions options = {});

  /// Registers a cut separator to run in the root cutting loop. Registered
  /// generators *replace* the built-in set (register the built-ins from
  /// default_cut_generators() alongside your own to keep them). Generators
  /// only fire when SolverOptions::cuts.enable is on.
  void add_cut_generator(std::shared_ptr<CutGenerator> generator);

  /// Solves `model` to optimality (or to the configured budget) under
  /// `ctx`. Throws InvalidInputError on malformed models. `root_warm`, when
  /// non-null, restarts the root relaxation from a basis of a structurally
  /// identical model (e.g. MilpSolution::root_basis of a previous solve of
  /// a modified variant); it is ignored when incompatible.
  [[nodiscard]] MilpSolution solve(const lp::Model& model, SolveContext& ctx,
                                   const lp::BasisSnapshot* root_warm =
                                       nullptr) const;

  [[nodiscard]] const SolverOptions& options() const { return options_; }

 private:
  [[nodiscard]] MilpSolution solve_impl(const lp::Model& model,
                                        SolveContext& ctx, SolveStats& stats,
                                        const lp::BasisSnapshot* root_warm)
      const;

  SolverOptions options_;
  std::vector<std::shared_ptr<CutGenerator>> generators_;
};

}  // namespace etransform::milp
