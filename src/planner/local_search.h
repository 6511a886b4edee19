// Local-search improvement of consolidation plans.
//
// Used as the large-instance path (the Federal dataset's 190k-binary MILP is
// beyond a from-scratch exact solver — documented substitution in DESIGN.md)
// and as a polish step after greedy seeding. Moves:
//   * primary relocation  (group i: site a -> a')
//   * primary swap        (groups i, k exchange sites; escapes capacity locks)
//   * secondary relocation (DR: group i's backup b -> b')
// Every move is evaluated exactly — site aggregates with volume-discount
// schedules, per-placement latency/VPN terms, and the single-failure shared
// backup sizing law G_b = max_a load(a, b) — and applied first-improvement
// until a full pass finds nothing (or the pass budget runs out).
#pragma once

#include <cstdint>

#include "common/solve_context.h"
#include "cost/cost_model.h"
#include "model/plan.h"

namespace etransform {

/// Tuning for improve_plan.
struct LocalSearchOptions {
  /// Maximum full passes over all groups.
  int max_passes = 30;
  /// Enables primary-swap moves (quadratic in groups per pass; disable for
  /// very large instances).
  bool enable_swaps = true;
  /// Shuffle seed for the scan order (first-improvement search benefits
  /// from order diversity between passes).
  std::uint64_t seed = 1;
  /// DR plans only: size backup pools dedicated (sum per site) instead of
  /// shared (single-failure max). Use for multi-failure planning.
  bool dedicated_backups = false;
  /// Business-impact cap: no site may host more than this many primaries
  /// (0 = unlimited). The planner derives it from omega * M.
  int max_groups_per_site = 0;
};

/// Improves `plan` in place. The plan must be structurally feasible
/// (check_plan empty) before the call; feasibility is preserved. Repricing
/// (price_plan) runs on exit. Returns true if the total cost improved.
/// When `stats` is given, adds the passes run ("passes") and the moves
/// applied ("moves_committed") to it; both are deterministic.
bool improve_plan(const CostModel& model, Plan& plan,
                  const LocalSearchOptions& options = {},
                  SolveStats* stats = nullptr);

}  // namespace etransform
