#include "lp/basis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace etransform::lp {

namespace {

/// Relative threshold-pivoting factor: a pivot must be at least this
/// fraction of the largest entry in its column to be eligible. Trades a
/// little fill (Markowitz would prefer the sparsest pivot) for stability.
constexpr double kStabilityRel = 0.01;

/// Entries this small relative to the eta pivot are not stored in eta files.
constexpr double kEtaDropTol = 1e-13;

/// Once the active submatrix passes this density, Markowitz ordering mostly
/// produces fill anyway; finishing with a cache-friendly dense kernel
/// (plain partial pivoting) factorizes the trailing block much faster while
/// leaving the sparse leading factors untouched.
constexpr double kDenseWindowDensity = 0.35;

/// Below this active dimension the dense-window switch is not worth the
/// bookkeeping; the sparse loop finishes tiny blocks just fine.
constexpr int kDenseWindowMinDim = 32;

/// Check the active-submatrix density only every few steps. The entry total
/// is maintained incrementally, so a check is O(1); the stride stays because
/// it fixes the steps at which the dense switch may fire, and the pivot
/// sequence (hence every solve's path) depends on them.
constexpr int kDensityCheckStride = 8;

/// Markowitz candidates priced per elimination step: the active columns with
/// the fewest entries (ties to the lowest basis position).
constexpr int kCandidates = 8;

/// One (index, value) entry of a sparse factor column/row.
struct Entry {
  int index;
  double value;
};

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz ordering + product-form eta updates.

class SparseLuBasis final : public BasisFactorization {
 public:
  SparseLuBasis(int rows, double pivot_tol)
      : m_(rows),
        pivot_tol_(pivot_tol),
        words_((rows + 63) / 64),
        cols_(static_cast<std::size_t>(rows)),
        row_pat_(static_cast<std::size_t>(rows)),
        l_cols_(static_cast<std::size_t>(rows)),
        u_rows_(static_cast<std::size_t>(rows)),
        work_vals_(static_cast<std::size_t>(rows), 0.0),
        work_mark_(static_cast<std::size_t>(rows), -1) {}

  bool factorize(const std::vector<SparseColumn>& columns,
                 const std::vector<int>& basis) override {
    eta_r_.clear();
    eta_pivot_.clear();
    eta_index_.clear();
    eta_value_.clear();
    eta_start_.assign(1, 0);
    if (stamp_ > std::numeric_limits<int>::max() / 2) {
      std::fill(work_mark_.begin(), work_mark_.end(), -1);
      stamp_ = 0;
    }
    // Scratch and factor lists keep their capacity from the last call.
    for (int k = 0; k < m_; ++k) {
      cols_[static_cast<std::size_t>(k)].clear();
      row_pat_[static_cast<std::size_t>(k)].clear();
      l_cols_[static_cast<std::size_t>(k)].clear();
      u_rows_[static_cast<std::size_t>(k)].clear();
    }
    clear_buckets();
    u_diag_.assign(static_cast<std::size_t>(m_), 0.0);
    row_of_step_.assign(static_cast<std::size_t>(m_), -1);
    pos_of_step_.assign(static_cast<std::size_t>(m_), -1);
    if (m_ == 0) {
      ++counters_.refactorizations;
      counters_.factor_entries = 0;
      return true;
    }

    // Active submatrix: exact column-major values plus a lazy row pattern.
    row_count_.assign(static_cast<std::size_t>(m_), 0);
    row_active_.assign(static_cast<std::size_t>(m_), 1);
    col_active_.assign(static_cast<std::size_t>(m_), 1);
    long long active_entries = 0;
    for (int k = 0; k < m_; ++k) {
      const SparseColumn& col = columns[static_cast<std::size_t>(basis[static_cast<std::size_t>(k)])];
      auto& dest = cols_[static_cast<std::size_t>(k)];
      dest.reserve(col.rows.size());
      for (std::size_t e = 0; e < col.rows.size(); ++e) {
        if (col.coefs[e] == 0.0) continue;
        dest.push_back(Entry{col.rows[e], col.coefs[e]});
        row_pat_[static_cast<std::size_t>(col.rows[e])].push_back(k);
        ++row_count_[static_cast<std::size_t>(col.rows[e])];
      }
      bucket_insert(k, static_cast<int>(dest.size()));
      active_entries += static_cast<long long>(dest.size());
    }

    // The stamp is monotonic across factorize() calls: work_mark_ persists,
    // so restarting it would collide with marks left by a previous
    // factorization and silently drop fill-in entries.
    int& stamp = stamp_;

    for (int step = 0; step < m_; ++step) {
      // --- Dense-window switch once the active block has densified. -------
      if (step % kDensityCheckStride == 0 && m_ - step >= kDenseWindowMinDim) {
        const double active = m_ - step;
        if (static_cast<double>(active_entries) >=
            kDenseWindowDensity * active * active) {
          if (!finish_dense_window(step)) return false;
          break;
        }
      }

      // --- Markowitz pivot selection over the sparsest few columns. -------
      int cand[kCandidates];
      const int cand_n = sparsest_columns(cand);
      int best_row = -1;
      int best_col = -1;
      double best_val = 0.0;
      long long best_cost = std::numeric_limits<long long>::max();
      for (int c = 0; c < cand_n; ++c) {
        const int j = cand[c];
        const auto& col = cols_[static_cast<std::size_t>(j)];
        double col_max = 0.0;
        for (const Entry& e : col) col_max = std::max(col_max, std::abs(e.value));
        if (col_max < pivot_tol_) continue;
        const double eligible = std::max(pivot_tol_, kStabilityRel * col_max);
        const long long cc = static_cast<long long>(col.size()) - 1;
        for (const Entry& e : col) {
          const double mag = std::abs(e.value);
          if (mag < eligible) continue;
          const long long cost =
              cc * (static_cast<long long>(row_count_[static_cast<std::size_t>(e.index)]) - 1);
          if (cost < best_cost ||
              (cost == best_cost && mag > std::abs(best_val))) {
            best_cost = cost;
            best_row = e.index;
            best_col = j;
            best_val = e.value;
          }
        }
      }
      if (best_row < 0) {
        // The sparsest candidates were all below tolerance; fall back to a
        // full scan before declaring the basis singular.
        for (int j = 0; j < m_ && best_row < 0; ++j) {
          if (!col_active_[static_cast<std::size_t>(j)]) continue;
          for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
            if (std::abs(e.value) < pivot_tol_) continue;
            if (best_row < 0 || std::abs(e.value) > std::abs(best_val)) {
              best_row = e.index;
              best_col = j;
              best_val = e.value;
            }
          }
        }
        if (best_row < 0) return false;  // singular within tolerance
      }

      row_of_step_[static_cast<std::size_t>(step)] = best_row;
      pos_of_step_[static_cast<std::size_t>(step)] = best_col;
      u_diag_[static_cast<std::size_t>(step)] = best_val;

      // --- Extract multipliers from the pivot column. ---------------------
      auto& pivot_col = cols_[static_cast<std::size_t>(best_col)];
      mults_.clear();
      for (const Entry& e : pivot_col) {
        if (e.index == best_row) continue;
        mults_.push_back(Entry{e.index, e.value / best_val});
        --row_count_[static_cast<std::size_t>(e.index)];
      }
      bucket_erase(best_col, static_cast<int>(pivot_col.size()));
      active_entries -= static_cast<long long>(pivot_col.size());
      pivot_col.clear();
      col_active_[static_cast<std::size_t>(best_col)] = 0;
      row_active_[static_cast<std::size_t>(best_row)] = 0;

      // --- Extract the pivot row (becomes U row `step`). ------------------
      // Every column losing its pivot-row entry leaves its count bucket
      // here and re-enters at its post-update count below.
      pivot_row_.clear();
      for (const int j : row_pat_[static_cast<std::size_t>(best_row)]) {
        if (j == best_col || !col_active_[static_cast<std::size_t>(j)]) continue;
        auto& col = cols_[static_cast<std::size_t>(j)];
        for (std::size_t e = 0; e < col.size(); ++e) {
          if (col[e].index != best_row) continue;
          pivot_row_.push_back(Entry{j, col[e].value});
          bucket_erase(j, static_cast<int>(col.size()));
          col[e] = col.back();
          col.pop_back();
          --active_entries;
          break;
        }
      }
      row_pat_[static_cast<std::size_t>(best_row)].clear();

      // --- Schur update: col_j -= l * u_kj for every multiplier. ----------
      for (const Entry& u : pivot_row_) {
        auto& col = cols_[static_cast<std::size_t>(u.index)];
        const std::size_t before = col.size();
        ++stamp;
        for (const Entry& e : col) {
          work_mark_[static_cast<std::size_t>(e.index)] = stamp;
          work_vals_[static_cast<std::size_t>(e.index)] = e.value;
        }
        for (const Entry& l : mults_) {
          const std::size_t i = static_cast<std::size_t>(l.index);
          if (work_mark_[i] == stamp) {
            work_vals_[i] -= l.value * u.value;
          } else {
            work_mark_[i] = stamp;
            work_vals_[i] = -l.value * u.value;
            col.push_back(Entry{l.index, 0.0});  // fill-in; value set below
            row_pat_[i].push_back(u.index);
            ++row_count_[i];
          }
        }
        std::size_t keep = 0;
        for (std::size_t e = 0; e < col.size(); ++e) {
          const std::size_t i = static_cast<std::size_t>(col[e].index);
          const double v = work_vals_[i];
          if (v == 0.0) {
            --row_count_[i];
            continue;  // exact cancellation
          }
          col[keep++] = Entry{col[e].index, v};
        }
        col.resize(keep);
        bucket_insert(u.index, static_cast<int>(keep));
        active_entries += static_cast<long long>(keep) -
                          static_cast<long long>(before);
      }

      l_cols_[static_cast<std::size_t>(step)] = mults_;  // row indices for now
      u_rows_[static_cast<std::size_t>(step)] = pivot_row_;  // positions for now
    }

    // Map factor indices into elimination-step coordinates while flattening
    // the factors into contiguous index/value arrays: the triangular solves
    // run every iteration and are far kinder to the cache this way than
    // chasing a vector-of-vectors.
    step_of_row_.assign(static_cast<std::size_t>(m_), -1);
    step_of_pos_.assign(static_cast<std::size_t>(m_), -1);
    for (int k = 0; k < m_; ++k) {
      step_of_row_[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])] = k;
      step_of_pos_[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])] = k;
    }
    std::size_t l_total = 0;
    std::size_t u_total = 0;
    for (int k = 0; k < m_; ++k) {
      l_total += l_cols_[static_cast<std::size_t>(k)].size();
      u_total += u_rows_[static_cast<std::size_t>(k)].size();
    }
    l_start_.resize(static_cast<std::size_t>(m_) + 1);
    u_start_.resize(static_cast<std::size_t>(m_) + 1);
    l_index_.resize(l_total);
    l_value_.resize(l_total);
    u_index_.resize(u_total);
    u_value_.resize(u_total);
    std::size_t lp = 0;
    std::size_t up = 0;
    for (int k = 0; k < m_; ++k) {
      l_start_[static_cast<std::size_t>(k)] = lp;
      u_start_[static_cast<std::size_t>(k)] = up;
      for (const Entry& e : l_cols_[static_cast<std::size_t>(k)]) {
        l_index_[lp] = step_of_row_[static_cast<std::size_t>(e.index)];
        l_value_[lp++] = e.value;
      }
      for (const Entry& e : u_rows_[static_cast<std::size_t>(k)]) {
        u_index_[up] = step_of_pos_[static_cast<std::size_t>(e.index)];
        u_value_[up++] = e.value;
      }
    }
    l_start_[static_cast<std::size_t>(m_)] = lp;
    u_start_[static_cast<std::size_t>(m_)] = up;
    const long long entries =
        static_cast<long long>(m_) + static_cast<long long>(lp) +
        static_cast<long long>(up);
    ++counters_.refactorizations;
    counters_.factor_entries = entries;
    lu_entries_ = entries;
    eta_entries_since_factor_ = 0;
    return true;
  }

  /// Factorizes the trailing active block with a dense right-looking LU
  /// (partial pivoting, column-major daxpy inner loops), emitting factors
  /// for steps `step..m_-1` in the same pre-remap convention as the sparse
  /// loop: L entries carry original row indices, U entries carry basis
  /// positions.
  bool finish_dense_window(int step) {
    const int a = m_ - step;
    const auto az = static_cast<std::size_t>(a);
    std::vector<int> orig_row(az);   // local row -> original row (permuted)
    std::vector<int> orig_col(az);   // local col -> basis position
    std::vector<int> local_row(static_cast<std::size_t>(m_), -1);
    int r = 0;
    for (int i = 0; i < m_; ++i) {
      if (!row_active_[static_cast<std::size_t>(i)]) continue;
      local_row[static_cast<std::size_t>(i)] = r;
      orig_row[static_cast<std::size_t>(r++)] = i;
    }
    if (r != a) return false;  // active rows/cols out of sync: bail out
    dense_kernel_.assign(az * az, 0.0);
    int c = 0;
    for (int j = 0; j < m_; ++j) {
      if (!col_active_[static_cast<std::size_t>(j)]) continue;
      orig_col[static_cast<std::size_t>(c)] = j;
      double* dest = dense_kernel_.data() + static_cast<std::size_t>(c) * az;
      for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
        dest[local_row[static_cast<std::size_t>(e.index)]] = e.value;
      }
      ++c;
    }

    for (int k = 0; k < a; ++k) {
      double* ck = dense_kernel_.data() + static_cast<std::size_t>(k) * az;
      int p = k;
      double best = std::abs(ck[k]);
      for (int i = k + 1; i < a; ++i) {
        const double mag = std::abs(ck[i]);
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      if (best < pivot_tol_) return false;  // singular within tolerance
      if (p != k) {
        // Full-row swap (including the L part) keeps local physical order
        // equal to elimination order.
        for (std::size_t j = 0; j < az; ++j) {
          std::swap(dense_kernel_[j * az + static_cast<std::size_t>(k)],
                    dense_kernel_[j * az + static_cast<std::size_t>(p)]);
        }
        std::swap(orig_row[static_cast<std::size_t>(k)],
                  orig_row[static_cast<std::size_t>(p)]);
      }
      const double inv_piv = 1.0 / ck[k];
      for (int i = k + 1; i < a; ++i) ck[i] *= inv_piv;
      for (int j = k + 1; j < a; ++j) {
        double* cj = dense_kernel_.data() + static_cast<std::size_t>(j) * az;
        const double u = cj[k];
        if (u == 0.0) continue;
        for (int i = k + 1; i < a; ++i) cj[i] -= u * ck[i];
      }
    }

    for (int k = 0; k < a; ++k) {
      const auto s = static_cast<std::size_t>(step + k);
      const double* ck = dense_kernel_.data() + static_cast<std::size_t>(k) * az;
      row_of_step_[s] = orig_row[static_cast<std::size_t>(k)];
      pos_of_step_[s] = orig_col[static_cast<std::size_t>(k)];
      u_diag_[s] = ck[k];
      auto& lcol = l_cols_[s];
      for (int i = k + 1; i < a; ++i) {
        if (ck[i] != 0.0) {
          lcol.push_back(Entry{orig_row[static_cast<std::size_t>(i)], ck[i]});
        }
      }
      auto& urow = u_rows_[s];
      for (int j = k + 1; j < a; ++j) {
        const double v = dense_kernel_[static_cast<std::size_t>(j) * az +
                                       static_cast<std::size_t>(k)];
        if (v != 0.0) {
          urow.push_back(Entry{orig_col[static_cast<std::size_t>(j)], v});
        }
      }
    }
    return true;
  }

  void ftran(std::vector<double>& x) const override {
    if (m_ == 0) return;
    // Permute rows into elimination order, then L then U.
    auto& z = scratch_;
    z.resize(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      z[static_cast<std::size_t>(k)] =
          x[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])];
    }
    for (int k = 0; k < m_; ++k) {
      const double t = z[static_cast<std::size_t>(k)];
      if (t == 0.0) continue;
      const std::size_t end = l_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        z[static_cast<std::size_t>(l_index_[e])] -= l_value_[e] * t;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double t = z[static_cast<std::size_t>(k)];
      const std::size_t end = u_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        t -= u_value_[e] * z[static_cast<std::size_t>(u_index_[e])];
      }
      z[static_cast<std::size_t>(k)] = t / u_diag_[static_cast<std::size_t>(k)];
    }
    for (int k = 0; k < m_; ++k) {
      x[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])] =
          z[static_cast<std::size_t>(k)];
    }
    // Product-form etas, oldest first.
    const std::size_t num_etas = eta_r_.size();
    for (std::size_t q = 0; q < num_etas; ++q) {
      const auto r = static_cast<std::size_t>(eta_r_[q]);
      const double t = x[r] / eta_pivot_[q];
      x[r] = t;
      if (t == 0.0) continue;
      const std::size_t end = eta_start_[q + 1];
      for (std::size_t e = eta_start_[q]; e < end; ++e) {
        x[static_cast<std::size_t>(eta_index_[e])] -= eta_value_[e] * t;
      }
    }
  }

  void btran(std::vector<double>& x) const override {
    if (m_ == 0) return;
    // Eta transposes, newest first.
    for (std::size_t q = eta_r_.size(); q-- > 0;) {
      const auto r = static_cast<std::size_t>(eta_r_[q]);
      double t = x[r];
      const std::size_t end = eta_start_[q + 1];
      for (std::size_t e = eta_start_[q]; e < end; ++e) {
        t -= eta_value_[e] * x[static_cast<std::size_t>(eta_index_[e])];
      }
      x[r] = t / eta_pivot_[q];
    }
    // U^T forward (scattering U rows), then L^T backward (gathering L cols).
    auto& z = scratch_;
    z.resize(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      z[static_cast<std::size_t>(k)] =
          x[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])];
    }
    for (int k = 0; k < m_; ++k) {
      const double v = z[static_cast<std::size_t>(k)] / u_diag_[static_cast<std::size_t>(k)];
      z[static_cast<std::size_t>(k)] = v;
      if (v == 0.0) continue;
      const std::size_t end = u_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        z[static_cast<std::size_t>(u_index_[e])] -= u_value_[e] * v;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double t = z[static_cast<std::size_t>(k)];
      const std::size_t end = l_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        t -= l_value_[e] * z[static_cast<std::size_t>(l_index_[e])];
      }
      z[static_cast<std::size_t>(k)] = t;
    }
    for (int k = 0; k < m_; ++k) {
      x[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])] =
          z[static_cast<std::size_t>(k)];
    }
  }

  bool update(const std::vector<double>& w, int r) override {
    const double pivot = w[static_cast<std::size_t>(r)];
    if (!(std::abs(pivot) > pivot_tol_)) return false;
    const std::size_t before = eta_index_.size();
    const double drop = kEtaDropTol * std::abs(pivot);
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double v = w[static_cast<std::size_t>(i)];
      if (std::abs(v) <= drop) continue;
      eta_index_.push_back(i);
      eta_value_.push_back(v);
    }
    eta_r_.push_back(r);
    eta_pivot_.push_back(pivot);
    eta_start_.push_back(eta_index_.size());
    const auto added =
        static_cast<long long>(eta_index_.size() - before) + 1;
    eta_entries_since_factor_ += added;
    ++counters_.etas;
    counters_.eta_entries += added;
    return true;
  }

  bool should_refactorize() const override {
    // Refactorize once applying the eta file costs about as much as the
    // triangular solves themselves.
    return eta_entries_since_factor_ > std::max<long long>(512, 2 * lu_entries_);
  }

 private:
  /// Files active column `j` under entry count `count`.
  void bucket_insert(int j, int count) {
    const auto c = static_cast<std::size_t>(count);
    if (c >= buckets_.size()) {
      buckets_.resize(c + 1);
      bucket_size_.resize(c + 1, 0);
    }
    if (buckets_[c].empty()) buckets_[c].assign(static_cast<std::size_t>(words_), 0);
    buckets_[c][static_cast<std::size_t>(j) / 64] |= std::uint64_t{1} << (j % 64);
    ++bucket_size_[c];
    min_bucket_ = std::min(min_bucket_, count);
  }

  /// Removes column `j`, currently filed under `count`.
  void bucket_erase(int j, int count) {
    const auto c = static_cast<std::size_t>(count);
    buckets_[c][static_cast<std::size_t>(j) / 64] &= ~(std::uint64_t{1} << (j % 64));
    --bucket_size_[c];
  }

  /// Empties every bucket a previous factorization left populated (an
  /// early exit or the dense window leaves active columns behind).
  void clear_buckets() {
    for (std::size_t c = 0; c < buckets_.size(); ++c) {
      if (bucket_size_[c] == 0) continue;
      std::fill(buckets_[c].begin(), buckets_[c].end(), 0);
      bucket_size_[c] = 0;
    }
    min_bucket_ = 0;
  }

  /// Writes the (up to kCandidates) active columns with the smallest
  /// (entry count, basis position) into `cand`, in that order, count-0
  /// columns included; returns how many. Walking the buckets upward and
  /// each bitset in ascending word/bit order yields exactly that order.
  int sparsest_columns(int* cand) {
    int n = 0;
    for (std::size_t c = static_cast<std::size_t>(min_bucket_);
         c < buckets_.size() && n < kCandidates; ++c) {
      int left = bucket_size_[c];
      if (left == 0) {
        if (n == 0) min_bucket_ = static_cast<int>(c) + 1;
        continue;
      }
      const std::vector<std::uint64_t>& bits = buckets_[c];
      for (int w = 0; w < words_ && left > 0 && n < kCandidates; ++w) {
        for (std::uint64_t word = bits[static_cast<std::size_t>(w)];
             word != 0 && n < kCandidates; word &= word - 1) {
          cand[n++] = w * 64 + std::countr_zero(word);
          --left;
        }
      }
    }
    return n;
  }

  int m_;
  double pivot_tol_;
  int words_;  // 64-bit words per bucket bitset
  // Elimination scratch, kept across calls so a refactorization clears it
  // instead of reallocating: the active submatrix by column (exact values)
  // and by row (a lazy pattern that may hold stale column positions).
  std::vector<std::vector<Entry>> cols_;
  std::vector<std::vector<int>> row_pat_;
  std::vector<int> row_count_;
  std::vector<char> row_active_, col_active_;
  std::vector<Entry> mults_;      // pivot-column multipliers of one step
  std::vector<Entry> pivot_row_;  // pivot-row entries of one step
  // Count buckets: buckets_[c] is a bitset over basis positions of the
  // active columns with exactly c entries; bucket_size_[c] its population.
  // Every bucket below min_bucket_ is empty.
  std::vector<std::vector<std::uint64_t>> buckets_;
  std::vector<int> bucket_size_;
  int min_bucket_ = 0;
  // Per-step factor entries in original coordinates, flattened below after
  // the step->coordinate remap.
  std::vector<std::vector<Entry>> l_cols_;  // per step: (orig row, multiplier)
  std::vector<std::vector<Entry>> u_rows_;  // per step: (basis pos, value)
  // Flattened factors in elimination-step coordinates (the solve-side form).
  std::vector<std::size_t> l_start_, u_start_;  // m_+1 offsets each
  std::vector<int> l_index_, u_index_;
  std::vector<double> l_value_, u_value_;
  std::vector<double> u_diag_;
  std::vector<int> row_of_step_, step_of_row_;
  std::vector<int> pos_of_step_, step_of_pos_;
  // Product-form eta file, flattened: eta q occupies entry range
  // [eta_start_[q], eta_start_[q+1]).
  std::vector<int> eta_r_;
  std::vector<double> eta_pivot_;
  std::vector<std::size_t> eta_start_{0};
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;
  long long lu_entries_ = 0;
  long long eta_entries_since_factor_ = 0;
  std::vector<double> work_vals_;
  std::vector<int> work_mark_;
  int stamp_ = 0;
  std::vector<double> dense_kernel_;  // column-major scratch, dense path only
  mutable std::vector<double> scratch_;
};

// ---------------------------------------------------------------------------
// Dense explicit inverse (legacy path).

class DenseInverseBasis final : public BasisFactorization {
 public:
  DenseInverseBasis(int rows, double pivot_tol)
      : m_(rows), pivot_tol_(pivot_tol) {}

  bool factorize(const std::vector<SparseColumn>& columns,
                 const std::vector<int>& basis) override {
    const std::size_t mm = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    std::vector<double> b_mat(mm, 0.0);
    for (int k = 0; k < m_; ++k) {
      const SparseColumn& col =
          columns[static_cast<std::size_t>(basis[static_cast<std::size_t>(k)])];
      for (std::size_t e = 0; e < col.rows.size(); ++e) {
        b_mat[static_cast<std::size_t>(col.rows[e]) * static_cast<std::size_t>(m_) +
              static_cast<std::size_t>(k)] = col.coefs[e];
      }
    }
    std::vector<double> inv(mm, 0.0);
    for (int i = 0; i < m_; ++i) {
      inv[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) +
          static_cast<std::size_t>(i)] = 1.0;
    }
    auto at = [this](std::vector<double>& mat, int r, int c) -> double& {
      return mat[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(c)];
    };
    // Gauss-Jordan with partial pivoting; inv rows mirror the row ops, so B
    // columns land on rows of inv in basis-position order (ftran/btran below
    // rely on row k of inv being e_k^T B^-1).
    for (int col = 0; col < m_; ++col) {
      int piv = col;
      double best = std::abs(at(b_mat, col, col));
      for (int r = col + 1; r < m_; ++r) {
        const double candidate = std::abs(at(b_mat, r, col));
        if (candidate > best) {
          best = candidate;
          piv = r;
        }
      }
      if (best < pivot_tol_) return false;
      if (piv != col) {
        for (int c = 0; c < m_; ++c) {
          std::swap(at(b_mat, piv, c), at(b_mat, col, c));
          std::swap(at(inv, piv, c), at(inv, col, c));
        }
      }
      const double scale = 1.0 / at(b_mat, col, col);
      for (int c = 0; c < m_; ++c) {
        at(b_mat, col, c) *= scale;
        at(inv, col, c) *= scale;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double factor = at(b_mat, r, col);
        if (factor == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          at(b_mat, r, c) -= factor * at(b_mat, col, c);
          at(inv, r, c) -= factor * at(inv, col, c);
        }
      }
    }
    binv_ = std::move(inv);
    ++counters_.refactorizations;
    counters_.factor_entries = static_cast<long long>(mm);
    return true;
  }

  void ftran(std::vector<double>& x) const override {
    scratch_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double v = x[static_cast<std::size_t>(i)];
      if (v == 0.0) continue;
      const double* col = &binv_[static_cast<std::size_t>(i)];
      for (int k = 0; k < m_; ++k) {
        scratch_[static_cast<std::size_t>(k)] +=
            binv_[static_cast<std::size_t>(k) * static_cast<std::size_t>(m_) +
                  static_cast<std::size_t>(i)] * v;
      }
      (void)col;
    }
    x = scratch_;
  }

  void btran(std::vector<double>& x) const override {
    scratch_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const double ck = x[static_cast<std::size_t>(k)];
      if (ck == 0.0) continue;
      const double* row =
          &binv_[static_cast<std::size_t>(k) * static_cast<std::size_t>(m_)];
      for (int i = 0; i < m_; ++i) {
        scratch_[static_cast<std::size_t>(i)] += ck * row[i];
      }
    }
    x = scratch_;
  }

  bool update(const std::vector<double>& w, int r) override {
    const double pivot = w[static_cast<std::size_t>(r)];
    if (!(std::abs(pivot) > pivot_tol_)) return false;
    double* pivot_row = &binv_[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_)];
    const double inv_pivot = 1.0 / pivot;
    for (int c = 0; c < m_; ++c) pivot_row[c] *= inv_pivot;
    for (int k = 0; k < m_; ++k) {
      if (k == r) continue;
      const double factor = w[static_cast<std::size_t>(k)];
      if (factor == 0.0) continue;
      double* row = &binv_[static_cast<std::size_t>(k) * static_cast<std::size_t>(m_)];
      for (int c = 0; c < m_; ++c) row[c] -= factor * pivot_row[c];
    }
    ++counters_.etas;
    return true;
  }

  bool should_refactorize() const override { return false; }

 private:
  int m_;
  double pivot_tol_;
  std::vector<double> binv_;
  mutable std::vector<double> scratch_;
};

}  // namespace

bool TableauRowExtractor::load(int rows,
                               const std::vector<SparseColumn>& columns,
                               const std::vector<int>& basic_columns,
                               double pivot_tol) {
  rows_ = rows;
  rho_.assign(static_cast<std::size_t>(rows), 0.0);
  // The sparse LU path is always adequate here: extraction is read-only, so
  // the dense fallback's only advantage (cheap explicit-inverse updates)
  // never applies.
  engine_ = make_basis_factorization(rows, /*dense=*/false, pivot_tol);
  return engine_->factorize(columns, basic_columns);
}

const std::vector<double>& TableauRowExtractor::row_multipliers(int position) {
  std::fill(rho_.begin(), rho_.end(), 0.0);
  rho_[static_cast<std::size_t>(position)] = 1.0;
  engine_->btran(rho_);
  return rho_;
}

double TableauRowExtractor::row_coefficient(const std::vector<double>& rho,
                                            const SparseColumn& column) {
  double dot = 0.0;
  for (std::size_t e = 0; e < column.rows.size(); ++e) {
    dot += rho[static_cast<std::size_t>(column.rows[e])] * column.coefs[e];
  }
  return dot;
}

std::unique_ptr<BasisFactorization> make_basis_factorization(int rows,
                                                             bool dense,
                                                             double pivot_tol) {
  if (dense) return std::make_unique<DenseInverseBasis>(rows, pivot_tol);
  return std::make_unique<SparseLuBasis>(rows, pivot_tol);
}

}  // namespace etransform::lp
