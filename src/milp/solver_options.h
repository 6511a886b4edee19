// SolverOptions: the one documented tuning aggregate for the MILP stack.
//
// Historically every layer grew its own knob struct (a flat MilpOptions for
// the search, lp::SimplexOptions for the LP engine, nothing at all for
// presolve) and callers had to know which layer owned which field.
// SolverOptions
// consolidates all of it with one sub-struct per layer:
//
//   SolverOptions
//     .search     branch-and-bound search budget & tolerances
//     .cuts       root cutting-plane loop (Gomory + cover separators)
//     .branching  variable selection (pseudocost / most-fractional)
//     .lp         the simplex engine (lp::SimplexOptions, unchanged)
//     .presolve   presolve toggles (consumed by the planner pipeline)
//
// The legacy flat MilpOptions is gone: its search fields live under
// `.search` and its `lp_options` is `.lp`.
#pragma once

#include "lp/simplex.h"

namespace etransform::milp {

/// Branch-and-bound search budget and tolerances.
struct SearchOptions {
  /// Maximum branch-and-bound nodes to expand.
  int max_nodes = 200000;
  /// Wall-clock budget in milliseconds; 0 disables the limit. Combined with
  /// the SolveContext deadline (whichever falls first wins) and enforced
  /// inside node LPs at refactorization granularity.
  int time_limit_ms = 0;
  /// Stop once (incumbent - bound) / max(1, |incumbent|) <= relative_gap.
  double relative_gap = 1e-9;
  /// Integrality tolerance.
  double integrality_tol = 1e-6;
  /// Run the diving heuristic at the root to find an early incumbent.
  bool root_dive = true;
  /// Warm-start each node's LP from its parent's optimal basis instead of
  /// cold-starting phase 1. Off is only useful for A/B measurements.
  bool warm_start_nodes = true;
  /// Threads for the solve's strong-branching probe pool. Every node LP
  /// runs on the calling thread, one node per search step; only the probes
  /// of a node run on the pool. 1 (the default) runs the probes on the
  /// calling thread too; <= 0 uses one per hardware thread. The thread
  /// count never changes the explored tree: nodes, lp_iterations, bound and
  /// incumbent are identical for every value (runs cut short by the
  /// deadline or cancellation remain timing-dependent). Composes
  /// multiplicatively with farm-level parallelism (SolveFarm workers / the
  /// CLI's --jobs): 4 jobs x 8 threads = up to 32 LPs in flight.
  int threads = 1;
};

/// Root cutting-plane loop. Cuts are separated only at the root node with
/// the original bounds (cut-and-branch), so every accepted cut is globally
/// valid; the strengthened relaxation is then shared by the whole tree.
struct CutOptions {
  /// Master switch; off reproduces the pre-cut solver exactly.
  bool enable = true;
  /// Maximum separation rounds at the root.
  int max_rounds = 10;
  /// Per-generator cap on cuts accepted per round (most violated first).
  int max_cuts_per_round = 24;
  /// A cut must be violated by at least this much at the current fractional
  /// optimum to enter the pool.
  double min_violation = 1e-4;
  /// Pool aging: a cut whose row was slack (nonbinding) for this many
  /// consecutive root LP solves is purged before branching starts.
  int max_inactive_rounds = 3;
  /// Enable the Gomory mixed-integer separator (tableau rows via BTRAN).
  bool gomory = true;
  /// Enable the lifted knapsack cover separator (tagged + detected rows).
  bool cover = true;
  /// Gomory rows are only separated from basic integer variables at least
  /// this far from integrality ("away" parameter).
  double min_fractionality = 5e-3;
  /// Reject cuts denser than this fraction of the model's columns (with a
  /// floor of 24 nonzeros so small models are unaffected). A dense row
  /// slows *every* node LP in the tree; unless it closes real gap it costs
  /// far more than it saves.
  double max_density = 0.4;
  /// Tailing-off control: stop separating once the root objective improves
  /// by less than this (relative) for two consecutive rounds.
  double tailoff = 1e-6;
};

/// Branching variable selection.
struct BranchingOptions {
  enum class Rule {
    kPseudocost,      // reliability-initialized pseudocosts (default)
    kMostFractional,  // legacy rule: largest distance to integrality
  };
  Rule rule = Rule::kPseudocost;
  /// A variable's pseudocost is trusted once both directions have at least
  /// this many observations; below that, shallow nodes strong-branch it.
  int reliability = 2;
  /// Strong-branching probes only run at node depth <= this. Probe LPs on
  /// a cut-strengthened root relaxation are noticeably costlier than on
  /// the plain one, so the default stays shallow.
  int strong_branch_max_depth = 4;
  /// Pivot cap per strong-branching child LP (keeps probes cheap).
  int strong_branch_iterations = 100;
  /// Total strong-branching probe budget per solve (two LPs per probe).
  int max_strong_branch_probes = 256;
  /// Probe cap per node: only the most fractional unreliable candidates
  /// are probed, the rest score on pseudocost estimates.
  int max_probes_per_node = 8;
};

/// Presolve toggles, consumed by pipelines that run lp::presolve before the
/// solver (the planner's exact path; the B&B core itself never presolves).
struct PresolveOptions {
  bool enable = true;
};

/// All tuning for a MILP solve, one sub-struct per layer. See the file
/// header for the layer map. Default-constructed options are the production
/// configuration (cuts on, pseudocost branching, sparse simplex).
struct SolverOptions {
  SearchOptions search;
  CutOptions cuts;
  BranchingOptions branching;
  /// Options forwarded to the LP engine.
  lp::SimplexOptions lp;
  PresolveOptions presolve;
};

}  // namespace etransform::milp
