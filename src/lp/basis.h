// Basis factorization engines for the revised simplex.
//
// The simplex never materializes B^-1. It talks to a BasisFactorization
// through three kernels:
//   * ftran:  x := B^-1 x   (entering column / basic value computation)
//   * btran:  x := B^-T x   (duals, pivot rows for Devex weights)
//   * update: append a product-form eta after a pivot, deferring the next
//     refactorization until the eta file grows or drifts.
//
// Two engines implement the interface:
//   * SparseLuBasis — the production path: a sparse LU of B with
//     Markowitz-style pivot ordering (minimum fill estimate under a
//     threshold-pivoting stability test), solved as permuted triangular
//     systems, updated between refactorizations by product-form etas.
//   * DenseInverseBasis — the legacy explicit-inverse path (Gauss-Jordan
//     refactorization, O(m^2) kernels), kept behind
//     SimplexOptions::use_dense_fallback for differential testing.
#pragma once

#include <memory>
#include <vector>

namespace etransform::lp {

/// One column of a column-sparse matrix: parallel row-index/coefficient
/// arrays. Shared by the standard form (simplex.cpp) and the factorization.
struct SparseColumn {
  std::vector<int> rows;
  std::vector<double> coefs;
};

/// Cumulative counters an engine keeps across a solve, surfaced as
/// SolveStats metrics ("refactorizations", "eta_entries", ...).
struct BasisCounters {
  long long refactorizations = 0;  ///< factorize() calls that succeeded
  long long etas = 0;              ///< product-form etas appended
  long long eta_entries = 0;       ///< total nonzeros across appended etas
  long long factor_entries = 0;    ///< nonzeros of the current factorization
};

/// Abstract basis engine. All vectors are dense, length m (the row count
/// fixed at construction). factorize() rebuilds all solve-side state, so
/// one engine may serve any number of solves over m-row bases; only its
/// scratch capacity carries over. `ftran` maps row-indexed right-hand
/// sides to basis-position-indexed solutions and `btran` the reverse,
/// matching the usual revised-simplex orientation where basis position k
/// owns row k's slot of the triangular solves.
class BasisFactorization {
 public:
  virtual ~BasisFactorization() = default;

  /// Factorizes B whose k-th column is `columns[basis[k]]`. Discards any
  /// eta file. Returns false when B is singular to within the engine's
  /// pivot tolerance (the caller decides how to recover).
  [[nodiscard]] virtual bool factorize(const std::vector<SparseColumn>& columns,
                                       const std::vector<int>& basis) = 0;

  /// x := B^-1 x. Input indexed by row, output by basis position.
  virtual void ftran(std::vector<double>& x) const = 0;

  /// x := B^-T x. Input indexed by basis position, output by row.
  virtual void btran(std::vector<double>& x) const = 0;

  /// Registers the pivot that replaced basis position `r`'s column, where
  /// `w` = B^-1 a_entering under the current representation. Returns false
  /// when the update is numerically unsafe and the caller must refactorize.
  [[nodiscard]] virtual bool update(const std::vector<double>& w, int r) = 0;

  /// True when the eta file has grown past the point where refactorizing
  /// is cheaper (or safer) than applying more etas.
  [[nodiscard]] virtual bool should_refactorize() const = 0;

  [[nodiscard]] const BasisCounters& counters() const { return counters_; }

  /// Zeroes the counters; an engine kept across solves calls this at the
  /// start of each one so the counters stay per-solve.
  void reset_counters() { counters_ = {}; }

 protected:
  BasisCounters counters_;
};

/// Builds the engine selected by the options: the sparse LU path, or the
/// legacy dense explicit inverse when `dense` is set. `pivot_tol` is the
/// singularity floor for factorization pivots.
[[nodiscard]] std::unique_ptr<BasisFactorization> make_basis_factorization(
    int rows, bool dense, double pivot_tol);

/// BTRAN-based simplex tableau row extraction over a basis snapshot.
///
/// Given the column matrix A and an (ordered) basic column set B, the
/// simplex tableau row for basis position p is
///     abar_j = (B^-1 A)_pj = rho . A_j   with   rho = B^-T e_p,
/// so one BTRAN of a unit vector plus one sparse dot product per column
/// yields any row without ever forming B^-1. Cut separators (Gomory cuts in
/// milp/cuts.*) use this to read tableau rows off the optimal basis the LP
/// solve returned.
class TableauRowExtractor {
 public:
  /// Factorizes B whose p-th column is `columns[basic_columns[p]]`.
  /// `columns` must outlive the extractor. Returns false when the basis is
  /// singular to within `pivot_tol` (the extractor is then unusable).
  [[nodiscard]] bool load(int rows, const std::vector<SparseColumn>& columns,
                          const std::vector<int>& basic_columns,
                          double pivot_tol = 1e-9);

  /// rho = B^-T e_position, the row multipliers of tableau row `position`
  /// (row-indexed, dense, length `rows`). Valid until the next call.
  [[nodiscard]] const std::vector<double>& row_multipliers(int position);

  /// abar_j = rho . column — one tableau-row coefficient.
  [[nodiscard]] static double row_coefficient(const std::vector<double>& rho,
                                              const SparseColumn& column);

 private:
  std::unique_ptr<BasisFactorization> engine_;
  std::vector<double> rho_;
  int rows_ = 0;
};

}  // namespace etransform::lp
