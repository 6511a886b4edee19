// LpEngine — the single LP solve entry point.
//
// Every LP in the codebase (root relaxations, branch-and-bound node
// re-solves, cut-round restarts, strong-branching probes, standalone tools)
// goes through LpEngine::solve. The engine owns algorithm selection
// between the two-phase primal simplex and the bound-flipping dual simplex
// (both over the shared sparse LU / eta machinery in lp/basis.*):
//
//  * SolveMode::kPrimal — primal always (cold starts, differential tests).
//  * SolveMode::kDual   — try the dual from the start basis; fall back to
//                         primal when it is not dual-feasible.
//  * SolveMode::kAuto   — the default. Dual iff the caller's LpStartBasis
//                         advertises a reoptimization origin (bound change
//                         or appended rows) *and* the numeric
//                         dual-feasibility check passes; primal otherwise.
//
// The LpStartBasis contract: `snapshot` must come from a solve of the same
// PreparedLp (or be mapped onto it with extend_basis()); `origin` states
// how the LP at hand differs from the one that produced the snapshot.
// Origins are advisory — the engine re-verifies dual feasibility
// numerically before pivoting dual, so a stale or mistaken origin costs
// one btran and falls back to the primal warm start, never correctness.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lp/simplex.h"

namespace etransform::lp {

/// Warm-start contract for LpEngine::solve.
struct LpStartBasis {
  /// How the LP being solved relates to the LP that produced `snapshot`.
  enum class Origin {
    /// No reoptimization claim: install the basis as a primal warm start.
    kNone,
    /// Same rows and costs; only variable bounds changed (branch-and-bound
    /// children, iterative bound edits). The parent-optimal duals remain
    /// feasible, so kAuto reoptimizes with the dual simplex.
    kBoundChange,
    /// Rows were appended and the snapshot extended via extend_basis():
    /// new slacks enter basic, duals of the old rows carry over unchanged,
    /// so the start stays dual-feasible (cut rounds).
    kRowsAdded,
  };

  LpStartBasis() = default;
  explicit LpStartBasis(const BasisSnapshot* snap,
                        Origin snap_origin = Origin::kNone)
      : snapshot(snap), origin(snap_origin) {}

  /// Snapshot from a previous solve of the same PreparedLp; nullptr means a
  /// cold start. Ignored when structurally incompatible.
  const BasisSnapshot* snapshot = nullptr;
  Origin origin = Origin::kNone;
};

/// The LP engine. It keeps its basis factorization engine from one solve
/// to the next (made again only when the row count changes), so the
/// factorization's scratch is not rebuilt per LP call. No solve reads
/// anything the previous one left except that capacity, so a result never
/// depends on the solves before it. Solving mutates the engine: one
/// LpEngine belongs to one thread at a time; concurrent LPs need one each.
class LpEngine {
 public:
  explicit LpEngine(SimplexOptions options = {});

  /// Solves the LP relaxation of `model` under `ctx` (deadline, cancel
  /// token, events, stats). Throws InvalidInputError on malformed models;
  /// never throws for infeasible/unbounded (reported via status).
  [[nodiscard]] LpSolution solve(const Model& model, SolveContext& ctx);

  /// Solves with per-variable bound overrides (used by branch-and-bound).
  /// `lower`/`upper` must each have one entry per model variable.
  [[nodiscard]] LpSolution solve(const Model& model,
                                 const std::vector<double>& lower,
                                 const std::vector<double>& upper,
                                 SolveContext& ctx);

  /// Core entry point: solves over a prebuilt standard form, optionally
  /// restarting from `start` (see LpStartBasis). Callers that solve many
  /// bound variants of one model (branch-and-bound) should prepare once
  /// and call this.
  [[nodiscard]] LpSolution solve(const PreparedLp& prep,
                                 const std::vector<double>& lower,
                                 const std::vector<double>& upper,
                                 SolveContext& ctx,
                                 const LpStartBasis& start = {});

  [[nodiscard]] const SimplexOptions& options() const { return options_; }

 private:
  /// The factorization engine for an LP with `rows` rows: the kept one when
  /// it was made for that many rows, otherwise a new one. The options are
  /// fixed for the LpEngine's life, so the row count is all that can differ.
  BasisFactorization& factorization(int rows);

  SimplexOptions options_;
  std::unique_ptr<BasisFactorization> factorization_;
  int factorization_rows_ = 0;
};

/// Maps a basis snapshot of one standard form onto a rebuilt one whose rows
/// are survivors of the old form (identity- or arbitrarily re-mapped) plus
/// appended rows. `old_row_of_new[r]` is the previous row index of new row
/// r, or -1 for a fresh row. Old column indices carry over verbatim (model
/// columns lead, surviving slacks keep their row's slot, new slacks
/// append): each surviving row keeps its old basic column, fresh rows start
/// with their own slack basic — which leaves the old duals (and hence dual
/// feasibility) intact, the property LpStartBasis::Origin::kRowsAdded
/// advertises. Rows whose old basic column vanished fall back to their
/// slack; stale nonbasic statuses are re-clamped when the snapshot is
/// applied.
[[nodiscard]] BasisSnapshot extend_basis(const BasisSnapshot& old,
                                         int num_vars,
                                         const std::vector<int>& old_row_of_new,
                                         int new_rows, int new_cols);

/// A basis snapshot annotated with the names of the structural columns and
/// kept rows of the standard form it indexes. Where a BasisSnapshot is only
/// valid against the exact PreparedLp that produced it, a NamedBasis is the
/// durable form: remap_basis() can carry it onto a *different* model that
/// shares most variable/row names — the iterative-replan case, where a
/// small instance delta adds or removes a handful of columns and rows but
/// leaves the bulk of the formulation (and its optimal basis) intact.
struct NamedBasis {
  BasisSnapshot basis;
  std::vector<std::string> variables;  // one per structural column
  std::vector<std::string> rows;       // one per kept internal row
};

/// Annotates `basis` (from a solve of `model`) with `model`'s variable and
/// kept-row names. Throws InvalidInputError when the snapshot's shape does
/// not match the model's standard form.
[[nodiscard]] NamedBasis name_basis(const Model& model,
                                    const BasisSnapshot& basis);

/// Maps `old_basis` onto `target`'s standard form by name: surviving
/// columns keep their status, surviving rows keep their basic column when
/// it also survived (falling back to the row's own slack otherwise), and
/// fresh rows start with their slack basic. Returns nullopt when the map
/// degenerates (duplicate basic columns, trivially infeasible target, or a
/// malformed snapshot); the result is advisory either way — the engine
/// re-validates any warm basis before pivoting from it.
[[nodiscard]] std::optional<BasisSnapshot> remap_basis(
    const NamedBasis& old_basis, const Model& target);

}  // namespace etransform::lp
