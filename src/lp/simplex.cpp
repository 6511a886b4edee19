#include "lp/simplex.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "lp/simplex_core.h"
#include "telemetry/trace.h"

namespace etransform::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration_limit";
    case SolveStatus::kTimeLimit: return "time_limit";
    case SolveStatus::kCancelled: return "cancelled";
    case SolveStatus::kNumericalError: return "numerical_error";
  }
  return "?";
}

const char* to_string(SolveMode mode) {
  switch (mode) {
    case SolveMode::kPrimal: return "primal";
    case SolveMode::kDual: return "dual";
    case SolveMode::kAuto: return "auto";
  }
  return "?";
}

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Residual-certification tolerance, relative to max(1, |b|_inf) for the
/// primal residual and max(1, |c|_inf) for the basic dual residual.
constexpr double kCertifyTol = 1e-9;

/// Set by detail::refuse_certification() (tests only).
std::atomic<bool> g_refuse_certification{false};
}  // namespace

PreparedLp::PreparedLp(const Model& m) : model(&m) {
  m.validate();
  num_vars = m.num_variables();
  sense_sign = m.sense() == Sense::kMinimize ? 1.0 : -1.0;
  columns.resize(static_cast<std::size_t>(num_vars));
  cost.assign(static_cast<std::size_t>(num_vars), 0.0);
  for (const Term& t : merge_terms(m.objective())) {
    cost[static_cast<std::size_t>(t.var)] = sense_sign * t.coef;
  }
  row_of_model_row.assign(static_cast<std::size_t>(m.num_constraints()), -1);
  for (int i = 0; i < m.num_constraints(); ++i) {
    const Constraint& row = m.constraint(i);
    const std::vector<Term> terms = merge_terms(row.terms);
    bool empty = true;
    for (const Term& t : terms) {
      if (t.coef != 0.0) {
        empty = false;
        break;
      }
    }
    const double b = row.rhs;
    bool violated_when_empty = false;
    switch (row.relation) {
      case Relation::kLessEqual:
        if (b == kInf) continue;  // vacuous
        if (b == -kInf) {
          trivially_infeasible = true;
          infeasibility_note = "row '" + row.name + "' requires <= -inf";
          return;
        }
        violated_when_empty = 0.0 > b;
        break;
      case Relation::kGreaterEqual:
        if (b == -kInf) continue;  // vacuous
        if (b == kInf) {
          trivially_infeasible = true;
          infeasibility_note = "row '" + row.name + "' requires >= +inf";
          return;
        }
        violated_when_empty = 0.0 < b;
        break;
      case Relation::kEqual:
        if (!std::isfinite(b)) {
          trivially_infeasible = true;
          infeasibility_note = "row '" + row.name + "' requires == +-inf";
          return;
        }
        violated_when_empty = std::abs(b) > 1e-9;
        break;
    }
    if (empty) {
      if (violated_when_empty) {
        trivially_infeasible = true;
        infeasibility_note = "empty row '" + row.name + "' is violated";
        return;
      }
      continue;
    }
    const int r = num_rows();
    row_of_model_row[static_cast<std::size_t>(i)] = r;
    for (const Term& t : terms) {
      if (t.coef == 0.0) continue;
      columns[static_cast<std::size_t>(t.var)].rows.push_back(r);
      columns[static_cast<std::size_t>(t.var)].coefs.push_back(t.coef);
    }
    rhs.push_back(b);
    switch (row.relation) {
      case Relation::kLessEqual:
        slack_lower.push_back(0.0);
        slack_upper.push_back(kInf);
        break;
      case Relation::kGreaterEqual:
        slack_lower.push_back(-kInf);
        slack_upper.push_back(0.0);
        break;
      case Relation::kEqual:
        slack_lower.push_back(0.0);
        slack_upper.push_back(0.0);
        break;
    }
  }
  // Slack columns: row r gets internal column num_vars + r with coefficient
  // +1, making every row an equality. Because slack bounds — not structure —
  // encode the relation, the whole layout is independent of variable bounds.
  for (int r = 0; r < num_rows(); ++r) {
    SparseColumn s;
    s.rows.push_back(r);
    s.coefs.push_back(1.0);
    columns.push_back(std::move(s));
    cost.push_back(0.0);
  }
  // Row-major copy: visiting columns in ascending order keeps each row's
  // entries sorted by column.
  row_start.assign(static_cast<std::size_t>(num_rows()) + 1, 0);
  for (const SparseColumn& col : columns) {
    for (const int r : col.rows) ++row_start[static_cast<std::size_t>(r) + 1];
  }
  for (int r = 0; r < num_rows(); ++r) {
    row_start[static_cast<std::size_t>(r) + 1] +=
        row_start[static_cast<std::size_t>(r)];
  }
  row_cols.resize(static_cast<std::size_t>(row_start.back()));
  row_coefs.resize(row_cols.size());
  std::vector<int> next(row_start.begin(), row_start.end() - 1);
  for (int j = 0; j < num_columns(); ++j) {
    const SparseColumn& col = columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      const auto at =
          static_cast<std::size_t>(next[static_cast<std::size_t>(col.rows[e])]++);
      row_cols[at] = j;
      row_coefs[at] = col.coefs[e];
    }
  }
}

namespace detail {

void refuse_certification(bool refuse) {
  g_refuse_certification.store(refuse, std::memory_order_relaxed);
}

RevisedSimplex::RevisedSimplex(const PreparedLp& prep,
                               const SimplexOptions& options, SolveContext& ctx,
                               BasisFactorization& engine)
    : prep_(prep),
      options_(options),
      ctx_(ctx),
      m_(prep.num_rows()),
      n_(prep.num_columns()),
      lower_(static_cast<std::size_t>(n_), 0.0),
      upper_(static_cast<std::size_t>(n_), 0.0),
      status_(static_cast<std::size_t>(n_), BasisVarStatus::kAtLower),
      value_(static_cast<std::size_t>(n_), 0.0),
      basis_(static_cast<std::size_t>(m_), -1),
      gamma_(static_cast<std::size_t>(n_), 1.0),
      engine_(engine) {}

bool RevisedSimplex::set_bounds(const std::vector<double>& lo,
                                const std::vector<double>& up) {
  double scale = 1.0;
  for (int j = 0; j < prep_.num_vars; ++j) {
    const double l = lo[static_cast<std::size_t>(j)];
    const double u = up[static_cast<std::size_t>(j)];
    if (l > u) return false;
    lower_[static_cast<std::size_t>(j)] = l;
    upper_[static_cast<std::size_t>(j)] = u;
    if (std::isfinite(l)) scale = std::max(scale, std::abs(l));
    if (std::isfinite(u)) scale = std::max(scale, std::abs(u));
  }
  for (int r = 0; r < m_; ++r) {
    lower_[static_cast<std::size_t>(prep_.num_vars + r)] =
        prep_.slack_lower[static_cast<std::size_t>(r)];
    upper_[static_cast<std::size_t>(prep_.num_vars + r)] =
        prep_.slack_upper[static_cast<std::size_t>(r)];
    scale = std::max(scale, std::abs(prep_.rhs[static_cast<std::size_t>(r)]));
  }
  ftol_ = options_.feasibility_tol * scale;
  return true;
}

SolveStatus RevisedSimplex::run(const BasisSnapshot* warm, bool try_dual) {
  engine_.reset_counters();
  // Small lists win empirically: Devex quality saturates around a few
  // dozen candidates while re-pricing cost keeps growing with the list.
  list_size_ = options_.candidate_list_size > 0
                   ? options_.candidate_list_size
                   : std::clamp(n_ / 32, 8, 32);
  bool warm_ok = warm != nullptr && apply_snapshot(*warm);
  if (!warm_ok) init_slack_basis();
  if (!refactorize()) {
    if (warm_ok) {
      warm_ok = false;
      init_slack_basis();
    }
    if (!refactorize()) return SolveStatus::kNumericalError;
  }
  warm_started_ = warm_ok;

  // A warm basis that failed to apply (structural mismatch) voids any
  // reoptimization claim — don't pivot dual from the slack fallback unless
  // the caller asked for dual with no snapshot at all (SolveMode::kDual).
  if (try_dual && (warm == nullptr || warm_ok) && dual_start_feasible()) {
    used_dual_ = true;
    SolveStatus s;
    {
      const telemetry::TraceSpan span(ctx_.trace(), "lp", "simplex.dual");
      s = iterate_dual();
    }
    if (s != SolveStatus::kOptimal && !dual_abandoned_) return s;
    // kOptimal: the basis is primal feasible; the phase-2 loop below merely
    // certifies optimality against the unperturbed costs (usually 0 pivots).
    // dual_abandoned_: the dual loop retreated (singular-basis recovery or
    // an unusable pivot); the primal phases repair from the current point.
  }

  while (true) {
    restart_phase1_ = false;
    if (has_infeasible_basic()) {
      phase1_ = true;
      const int before = iterations_;
      SolveStatus s;
      {
        const telemetry::TraceSpan span(ctx_.trace(), "lp", "simplex.phase1");
        s = iterate();
      }
      phase1_ = false;
      if (restart_phase1_) {
        if (recoveries_ > kMaxRecoveries) return SolveStatus::kNumericalError;
        continue;
      }
      if (s != SolveStatus::kOptimal) {
        return s == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : s;
      }
      fire_phase_event(1, iterations_ - before, total_infeasibility());
      if (has_infeasible_basic()) return SolveStatus::kInfeasible;
    }
    const int before = iterations_;
    SolveStatus s;
    {
      const telemetry::TraceSpan span(ctx_.trace(), "lp", "simplex.phase2");
      s = iterate();
    }
    if (restart_phase1_) {
      if (recoveries_ > kMaxRecoveries) return SolveStatus::kNumericalError;
      continue;
    }
    if (s == SolveStatus::kOptimal) {
      fire_phase_event(2, iterations_ - before, internal_objective());
    }
    return s;
  }
}

double RevisedSimplex::internal_objective() const {
  double total = 0.0;
  for (int j = 0; j < prep_.num_vars; ++j) {
    total += prep_.cost[static_cast<std::size_t>(j)] *
             value_[static_cast<std::size_t>(j)];
  }
  return total;
}

std::vector<double> RevisedSimplex::row_duals() const {
  if (fresh_duals_) return y_;
  std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    y[static_cast<std::size_t>(k)] =
        prep_.cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])];
  }
  engine_.btran(y);
  return y;
}

BasisSnapshot RevisedSimplex::snapshot() const {
  BasisSnapshot snap;
  snap.basic_columns = basis_;
  snap.column_status = status_;
  return snap;
}

void RevisedSimplex::fire_phase_event(int phase, int pivots, double objective) {
  if (!ctx_.events.on_simplex_phase) return;
  SimplexPhaseEvent event;
  event.phase = phase;
  event.pivots = pivots;
  event.objective = objective;
  ctx_.events.on_simplex_phase(event);
}

/// All slacks basic, structural columns on their nearest finite bound.
void RevisedSimplex::init_slack_basis() {
  for (int j = 0; j < prep_.num_vars; ++j) {
    status_[static_cast<std::size_t>(j)] = default_nonbasic_status(j);
  }
  for (int r = 0; r < m_; ++r) {
    const int s = prep_.num_vars + r;
    basis_[static_cast<std::size_t>(r)] = s;
    status_[static_cast<std::size_t>(s)] = BasisVarStatus::kBasic;
  }
}

BasisVarStatus RevisedSimplex::default_nonbasic_status(int j) const {
  if (std::isfinite(lower_[static_cast<std::size_t>(j)])) {
    return BasisVarStatus::kAtLower;
  }
  if (std::isfinite(upper_[static_cast<std::size_t>(j)])) {
    return BasisVarStatus::kAtUpper;
  }
  return BasisVarStatus::kFree;
}

/// Installs a snapshot, re-clamping nonbasic statuses to the current
/// bounds. Returns false when structurally incompatible, leaving status_
/// for init_slack_basis() to overwrite.
bool RevisedSimplex::apply_snapshot(const BasisSnapshot& snap) {
  if (snap.basic_columns.size() != static_cast<std::size_t>(m_) ||
      snap.column_status.size() != static_cast<std::size_t>(n_)) {
    return false;
  }
  // status_ marks the basic columns (and catches duplicates) before the
  // nonbasic statuses are written below.
  std::fill(status_.begin(), status_.end(), BasisVarStatus::kAtLower);
  for (const int c : snap.basic_columns) {
    if (c < 0 || c >= n_ ||
        status_[static_cast<std::size_t>(c)] == BasisVarStatus::kBasic) {
      return false;
    }
    status_[static_cast<std::size_t>(c)] = BasisVarStatus::kBasic;
  }
  basis_ = snap.basic_columns;
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    const bool lo_ok = std::isfinite(lower_[static_cast<std::size_t>(j)]);
    const bool up_ok = std::isfinite(upper_[static_cast<std::size_t>(j)]);
    BasisVarStatus s = snap.column_status[static_cast<std::size_t>(j)];
    switch (s) {
      case BasisVarStatus::kAtLower:
        s = lo_ok ? BasisVarStatus::kAtLower
                  : (up_ok ? BasisVarStatus::kAtUpper : BasisVarStatus::kFree);
        break;
      case BasisVarStatus::kAtUpper:
        s = up_ok ? BasisVarStatus::kAtUpper
                  : (lo_ok ? BasisVarStatus::kAtLower : BasisVarStatus::kFree);
        break;
      case BasisVarStatus::kBasic:  // stale marker; fall through to default
      case BasisVarStatus::kFree:
        s = lo_ok ? BasisVarStatus::kAtLower
                  : (up_ok ? BasisVarStatus::kAtUpper : BasisVarStatus::kFree);
        break;
    }
    status_[static_cast<std::size_t>(j)] = s;
  }
  return true;
}

double RevisedSimplex::nonbasic_resting_value(int j) const {
  switch (status_[static_cast<std::size_t>(j)]) {
    case BasisVarStatus::kAtLower: return lower_[static_cast<std::size_t>(j)];
    case BasisVarStatus::kAtUpper: return upper_[static_cast<std::size_t>(j)];
    default: return 0.0;  // kFree rests at 0; kBasic never queried
  }
}

/// x_B = B^-1 (b - sum of nonbasic columns at their resting values).
void RevisedSimplex::recompute_values() {
  work_ = prep_.rhs;
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    const double v = nonbasic_resting_value(j);
    value_[static_cast<std::size_t>(j)] = v;
    if (v == 0.0) continue;
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      work_[static_cast<std::size_t>(col.rows[e])] -= col.coefs[e] * v;
    }
  }
  engine_.ftran(work_);
  for (int k = 0; k < m_; ++k) {
    value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] =
        work_[static_cast<std::size_t>(k)];
  }
}

/// Factorizes the current basis and recomputes values. False on singular.
bool RevisedSimplex::refactorize() {
  const telemetry::TraceSpan span(ctx_.trace(), "lp", "simplex.factorize");
  const Stopwatch clock;
  const bool ok = engine_.factorize(prep_.columns, basis_);
  factorize_ms_ += clock.elapsed_ms();
  fresh_duals_ = false;
  if (!ok) return false;
  pivots_since_refactor_ = 0;
  recompute_values();
  return true;
}

bool RevisedSimplex::certify(bool dual_loop) {
  if (g_refuse_certification.load(std::memory_order_relaxed)) return false;
  const Stopwatch clock;
  const auto done = [&](bool passed) {
    certify_ms_ += clock.elapsed_ms();
    if (passed) {
      certified_ = true;
      ++residual_certifications_;
    }
    return passed;
  };
  recompute_values();
  // Primal residual b - A x over every column, slacks included.
  double rhs_scale = 1.0;
  for (const double b : prep_.rhs) rhs_scale = std::max(rhs_scale, std::abs(b));
  work_ = prep_.rhs;
  for (int j = 0; j < n_; ++j) {
    const double v = value_[static_cast<std::size_t>(j)];
    if (v == 0.0) continue;
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      work_[static_cast<std::size_t>(col.rows[e])] -= col.coefs[e] * v;
    }
  }
  for (const double r : work_) {
    if (!(std::abs(r) <= kCertifyTol * rhs_scale)) return done(false);
  }
  // Basic dual residual c_B - B^T y against the costs the duals price.
  if (dual_loop) {
    dual_refresh();
  } else {
    compute_duals();
  }
  const std::vector<double>& cost = dual_loop ? shifted_cost_ : prep_.cost;
  double cost_scale = 1.0;
  for (const double c : cost) cost_scale = std::max(cost_scale, std::abs(c));
  for (const int b : basis_) {
    double r = cost[static_cast<std::size_t>(b)];
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(b)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      r -= y_[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
    }
    if (!(std::abs(r) <= kCertifyTol * cost_scale)) return done(false);
  }
  return done(true);
}

/// Refactorizes; on a singular basis falls back to the slack basis (every
/// row owns a +1 slack, so it always factorizes) and flags a phase-1
/// restart. Returns false only when the caller must report
/// kNumericalError.
bool RevisedSimplex::refactorize_or_recover() {
  if (refactorize()) return true;
  ++recoveries_;
  if (recoveries_ > kMaxRecoveries) return false;
  ET_LOG(kDebug) << "simplex: singular basis, slack-basis recovery #"
                 << recoveries_;
  init_slack_basis();
  if (!refactorize()) return false;
  candidates_.clear();
  std::fill(gamma_.begin(), gamma_.end(), 1.0);
  restart_phase1_ = true;
  return true;
}

double RevisedSimplex::violation(int col) const {
  const double xv = value_[static_cast<std::size_t>(col)];
  const double over = xv - upper_[static_cast<std::size_t>(col)];
  if (over > 0.0) return over;
  const double under = lower_[static_cast<std::size_t>(col)] - xv;
  return under > 0.0 ? under : 0.0;
}

bool RevisedSimplex::has_infeasible_basic() const {
  for (int k = 0; k < m_; ++k) {
    if (violation(basis_[static_cast<std::size_t>(k)]) > ftol_) return true;
  }
  return false;
}

double RevisedSimplex::total_infeasibility() const {
  double total = 0.0;
  for (int k = 0; k < m_; ++k) {
    total += violation(basis_[static_cast<std::size_t>(k)]);
  }
  return total;
}

/// Phase-1 composite cost of a basic column: the sign pushing it back
/// inside its bounds (0 when feasible).
double RevisedSimplex::phase1_cost(int col) const {
  const double xv = value_[static_cast<std::size_t>(col)];
  if (xv > upper_[static_cast<std::size_t>(col)] + ftol_) return 1.0;
  if (xv < lower_[static_cast<std::size_t>(col)] - ftol_) return -1.0;
  return 0.0;
}

void RevisedSimplex::compute_duals() {
  fresh_duals_ = false;
  certified_ = false;
  y_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const int b = basis_[static_cast<std::size_t>(k)];
    y_[static_cast<std::size_t>(k)] =
        phase1_ ? phase1_cost(b) : prep_.cost[static_cast<std::size_t>(b)];
  }
  engine_.btran(y_);
}

double RevisedSimplex::reduced_cost(int j) const {
  // dual_refresh() ran this same arithmetic on the same y_.
  if (fresh_duals_ && !phase1_) return d_[static_cast<std::size_t>(j)];
  // Nonbasic columns rest inside their bounds, so their phase-1 cost is 0.
  double d = phase1_ ? 0.0 : prep_.cost[static_cast<std::size_t>(j)];
  const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
  for (std::size_t e = 0; e < col.rows.size(); ++e) {
    d -= y_[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
  }
  return d;
}

/// Direction the column may profitably move in (+1 up from lower, -1 down
/// from upper, 0 not attractive) under tolerance `tol`.
double RevisedSimplex::attractive_dir(int j, double d, double tol) const {
  switch (status_[static_cast<std::size_t>(j)]) {
    case BasisVarStatus::kAtLower:
      return (d < -tol &&
              upper_[static_cast<std::size_t>(j)] >
                  lower_[static_cast<std::size_t>(j)])
                 ? 1.0
                 : 0.0;
    case BasisVarStatus::kAtUpper:
      return (d > tol &&
              upper_[static_cast<std::size_t>(j)] >
                  lower_[static_cast<std::size_t>(j)])
                 ? -1.0
                 : 0.0;
    case BasisVarStatus::kFree:
      if (d < -tol) return 1.0;
      if (d > tol) return -1.0;
      return 0.0;
    case BasisVarStatus::kBasic: return 0.0;
  }
  return 0.0;
}

/// Full scan: Bland (lowest attractive index) or Dantzig (largest |d|).
void RevisedSimplex::price_full_scan(bool bland, double tol, int& entering,
                                     double& entering_dir) const {
  entering = -1;
  entering_dir = 0.0;
  double best_score = 0.0;
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    const double d = reduced_cost(j);
    const double dir = attractive_dir(j, d, tol);
    if (dir == 0.0) continue;
    if (bland) {
      entering = j;
      entering_dir = dir;
      return;
    }
    const double score = std::abs(d);
    if (score > best_score) {
      best_score = score;
      entering = j;
      entering_dir = dir;
    }
  }
}

/// Re-prices the candidate list with fresh reduced costs, dropping stale
/// entries, and picks the best Devex score d^2 / gamma.
void RevisedSimplex::price_candidates(int& entering, double& entering_dir) {
  entering = -1;
  entering_dir = 0.0;
  double best_score = 0.0;
  std::size_t keep = 0;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const int j = candidates_[c];
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    const double d = reduced_cost(j);
    const double dir = attractive_dir(j, d, options_.optimality_tol);
    if (dir == 0.0) continue;
    candidates_[keep++] = j;
    const double score = d * d / gamma_[static_cast<std::size_t>(j)];
    if (score > best_score) {
      best_score = score;
      entering = j;
      entering_dir = dir;
    }
  }
  candidates_.resize(keep);
}

/// Refills the candidate list scanning from the rotating cursor; stops
/// once full or after a complete sweep (the latter is the full scan that
/// licenses an optimality claim).
void RevisedSimplex::rebuild_candidates() {
  candidates_.clear();
  int scanned = 0;
  for (; scanned < n_; ++scanned) {
    const int j = cursor_;
    cursor_ = cursor_ + 1 == n_ ? 0 : cursor_ + 1;
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    const double d = reduced_cost(j);
    if (attractive_dir(j, d, options_.optimality_tol) == 0.0) continue;
    candidates_.push_back(j);
    if (static_cast<int>(candidates_.size()) >= list_size_) break;
  }
}

/// Devex-style reference weight update after pivoting `entering` into
/// position `r` (w = B^-1 a_entering before the basis changed). Expects
/// rho_ = B^-T e_r for the pre-pivot basis, computed by the caller (the
/// same vector drives the incremental dual update).
void RevisedSimplex::devex_update(int entering, int leaving, int r,
                                  const std::vector<double>& w) {
  const double alpha_q = w[static_cast<std::size_t>(r)];
  if (alpha_q == 0.0) return;
  const double gq = gamma_[static_cast<std::size_t>(entering)];
  double max_gamma = 0.0;
  for (const int j : candidates_) {
    if (j == entering) continue;
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
    double alpha = 0.0;
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      alpha += rho_[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
    }
    const double ratio = alpha / alpha_q;
    double& g = gamma_[static_cast<std::size_t>(j)];
    g = std::max(g, ratio * ratio * gq);
    max_gamma = std::max(max_gamma, g);
  }
  gamma_[static_cast<std::size_t>(leaving)] =
      std::max(gq / (alpha_q * alpha_q), 1.0);
  if (max_gamma > 1e7) std::fill(gamma_.begin(), gamma_.end(), 1.0);
}

/// Cooperative interruption: cancellation wins over the deadline.
SolveStatus RevisedSimplex::interruption_status() const {
  if (ctx_.cancelled()) return SolveStatus::kCancelled;
  if (ctx_.deadline().expired()) return SolveStatus::kTimeLimit;
  return SolveStatus::kOptimal;  // sentinel: keep going
}

/// Main pivot loop for the current phase. kOptimal means "no improving
/// direction for this phase's objective" (run() interprets it); a
/// restart_phase1_ flag set underneath also returns kOptimal so run() can
/// re-enter phase 1 after a slack-basis recovery.
SolveStatus RevisedSimplex::iterate() {
  std::fill(gamma_.begin(), gamma_.end(), 1.0);  // fresh Devex reference
  candidates_.clear();
  int degenerate_run = 0;
  bool use_bland = false;
  // In phase 2 under Devex pricing the duals are maintained
  // incrementally across pivots (one O(m) axpy per pivot instead of a
  // btran); this flag marks y_ stale after any event that breaks the
  // incremental chain (refactorization, bound flips in phase 1, Bland).
  bool duals_valid = false;
  int pivots_since_poll = options_.refactor_interval;  // poll on entry
  while (true) {
    if (iterations_ >= options_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    // Deadline/cancellation poll, every refactor_interval pivots. Bounds
    // how long past its budget one LP can run to one refactorization
    // interval of pivot work.
    if (pivots_since_poll >= options_.refactor_interval) {
      pivots_since_poll = 0;
      const SolveStatus interrupted = interruption_status();
      if (interrupted != SolveStatus::kOptimal) return interrupted;
    }
    ++pivots_since_poll;
    if (phase1_ && !has_infeasible_basic()) return SolveStatus::kOptimal;

    const bool full_scan_mode =
        use_bland || options_.pricing == PricingRule::kDantzig;
    // Phase-1 costs change as basics regain feasibility and Bland needs
    // exact signs, so both recompute duals from scratch every iteration.
    // Fresh duals from the dual loop are those very values already.
    if (!duals_valid || phase1_ || full_scan_mode) {
      if (phase1_ || !fresh_duals_) compute_duals();
      duals_valid = true;
    }

    int entering = -1;
    double entering_dir = 0.0;
    if (full_scan_mode) {
      price_full_scan(use_bland, options_.optimality_tol, entering,
                      entering_dir);
      ++full_scans_;
    } else {
      price_candidates(entering, entering_dir);
      if (entering >= 0) {
        ++candidate_hits_;
      } else {
        rebuild_candidates();
        ++full_scans_;
        price_candidates(entering, entering_dir);
      }
    }

    if (entering < 0) {
      // No attractive column. Guard the optimality claim against drift:
      // certify the eta file's residuals (phase 2 only) or refactorize,
      // then re-scan (with a relaxed tolerance) once. Phase 1 concludes
      // only on a fresh factorization.
      if (phase1_ ? pivots_since_refactor_ == 0 : verified()) {
        return SolveStatus::kOptimal;
      }
      if (phase1_ || !certify(/*dual_loop=*/false)) {
        if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
        if (restart_phase1_) return SolveStatus::kOptimal;
        compute_duals();
      }
      price_full_scan(false, 10 * options_.optimality_tol, entering,
                      entering_dir);
      ++full_scans_;
      if (entering < 0) return SolveStatus::kOptimal;
    }

    // Reduced cost of the entering column under the current duals; feeds
    // the incremental dual update after the pivot.
    const double d_entering = reduced_cost(entering);

    // Direction w = B^-1 a_entering (basis-position-indexed).
    w_.assign(static_cast<std::size_t>(m_), 0.0);
    const SparseColumn& acol =
        prep_.columns[static_cast<std::size_t>(entering)];
    for (std::size_t e = 0; e < acol.rows.size(); ++e) {
      w_[static_cast<std::size_t>(acol.rows[e])] = acol.coefs[e];
    }
    engine_.ftran(w_);

    // Ratio test. The entering variable moves by t in direction
    // entering_dir; basic k changes by -t * entering_dir * w[k]. In phase
    // 1, infeasible basics additionally break at their violated bound
    // (where they turn feasible and the cost gradient changes).
    double t_max = upper_[static_cast<std::size_t>(entering)] -
                   lower_[static_cast<std::size_t>(entering)];  // bound flip
    int leaving_row = -1;
    BasisVarStatus leaving_status = BasisVarStatus::kAtLower;
    for (int k = 0; k < m_; ++k) {
      const double delta = -entering_dir * w_[static_cast<std::size_t>(k)];
      if (std::abs(delta) < options_.pivot_tol) continue;
      const int basic = basis_[static_cast<std::size_t>(k)];
      const double xv = value_[static_cast<std::size_t>(basic)];
      const double lo = lower_[static_cast<std::size_t>(basic)];
      const double up = upper_[static_cast<std::size_t>(basic)];
      double limit;
      BasisVarStatus hit;
      if (phase1_ && xv < lo - ftol_) {
        if (delta <= 0.0) continue;  // moving further below: no breakpoint
        limit = (lo - xv) / delta;
        hit = BasisVarStatus::kAtLower;
      } else if (phase1_ && xv > up + ftol_) {
        if (delta >= 0.0) continue;  // moving further above: no breakpoint
        limit = (xv - up) / (-delta);
        hit = BasisVarStatus::kAtUpper;
      } else if (delta < 0.0) {
        if (!std::isfinite(lo)) continue;
        limit = (xv - lo) / (-delta);
        hit = BasisVarStatus::kAtLower;
      } else {
        if (!std::isfinite(up)) continue;
        limit = (up - xv) / delta;
        hit = BasisVarStatus::kAtUpper;
      }
      if (limit < 0.0) limit = 0.0;  // numerical noise
      if (limit < t_max - 1e-12 || (leaving_row < 0 && limit <= t_max)) {
        t_max = limit;
        leaving_row = k;
        leaving_status = hit;
      }
    }
    if (!std::isfinite(t_max)) {
      return phase1_ ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
    }

    ++iterations_;
    if (phase1_) ++phase1_iterations_;
    if (t_max < 1e-10) {
      ++degenerate_run;
      ++degenerate_pivots_;
      if (degenerate_run > options_.degeneracy_threshold) use_bland = true;
    } else {
      degenerate_run = 0;
      use_bland = false;
    }

    // Apply the step to all basic values and the entering variable.
    const double step = t_max * entering_dir;
    if (step != 0.0) {
      for (int k = 0; k < m_; ++k) {
        value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] -=
            step * w_[static_cast<std::size_t>(k)];
      }
    }
    value_[static_cast<std::size_t>(entering)] += step;
    certified_ = false;

    if (leaving_row < 0) {
      // Pure bound flip; basis unchanged. Snap exactly onto the bound.
      if (entering_dir > 0) {
        status_[static_cast<std::size_t>(entering)] = BasisVarStatus::kAtUpper;
        value_[static_cast<std::size_t>(entering)] =
            upper_[static_cast<std::size_t>(entering)];
      } else {
        status_[static_cast<std::size_t>(entering)] = BasisVarStatus::kAtLower;
        value_[static_cast<std::size_t>(entering)] =
            lower_[static_cast<std::size_t>(entering)];
      }
      continue;
    }

    // Pivot: `entering` replaces the basic variable of `leaving_row`.
    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    status_[static_cast<std::size_t>(leaving)] = leaving_status;
    value_[static_cast<std::size_t>(leaving)] =
        leaving_status == BasisVarStatus::kAtLower
            ? lower_[static_cast<std::size_t>(leaving)]
            : upper_[static_cast<std::size_t>(leaving)];
    status_[static_cast<std::size_t>(entering)] = BasisVarStatus::kBasic;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    fresh_duals_ = false;

    // One btran of e_r (against the pre-pivot factorization) serves both
    // the Devex weight update and the dual update
    //   y' = y + (d_entering / alpha_q) * B^-T e_r,
    // which keeps y_ consistent with the new basis without the per-pivot
    // btran of c_B.
    const double pivot = w_[static_cast<std::size_t>(leaving_row)];
    const bool need_devex = !full_scan_mode && !candidates_.empty();
    const bool update_duals = !phase1_ && !full_scan_mode &&
                              std::abs(pivot) >= options_.pivot_tol;
    if (need_devex || update_duals) {
      rho_.assign(static_cast<std::size_t>(m_), 0.0);
      rho_[static_cast<std::size_t>(leaving_row)] = 1.0;
      engine_.btran(rho_);  // row r of B^-1, row-indexed
    }
    if (update_duals) {
      const double mult = d_entering / pivot;
      for (int i = 0; i < m_; ++i) {
        y_[static_cast<std::size_t>(i)] +=
            mult * rho_[static_cast<std::size_t>(i)];
      }
    } else {
      duals_valid = false;
    }
    if (need_devex) devex_update(entering, leaving, leaving_row, w_);

    const bool updated = std::abs(pivot) >= options_.pivot_tol &&
                         engine_.update(w_, leaving_row);
    if (!updated || ++pivots_since_refactor_ >= options_.refactor_interval ||
        engine_.should_refactorize()) {
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      duals_valid = false;  // refresh duals from the new factorization
      if (restart_phase1_) return SolveStatus::kOptimal;
    }
  }
}

}  // namespace detail

}  // namespace etransform::lp
