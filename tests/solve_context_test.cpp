// Tests for the SolveContext observability & control layer: deadlines
// interrupting the simplex mid-solve, cancellation from event callbacks and
// from a second thread, event ordering and stats counters, and JSON emission.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/json.h"
#include "common/solve_context.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "lp/model.h"
#include "lp/presolve.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"
#include "milp/brute_force.h"
#include "planner/etransform_planner.h"

namespace etransform {
namespace {

using lp::Model;
using lp::Relation;
using lp::Sense;
using lp::Term;

/// A dense random LP large enough that one solve takes well over a
/// millisecond (the basis is rows x rows and refactorizes every 128 pivots).
Model dense_lp(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<Term> objective;
  for (int j = 0; j < cols; ++j) {
    objective.push_back({m.add_continuous("x" + std::to_string(j), 0.0, 10.0),
                         rng.uniform(-5.0, 5.0)});
  }
  m.set_objective(Sense::kMinimize, objective);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j) terms.push_back({j, rng.uniform(0.1, 2.0)});
    m.add_constraint("r" + std::to_string(i), terms, Relation::kGreaterEqual,
                     rng.uniform(5.0, 50.0));
  }
  return m;
}

/// A knapsack MILP whose branch-and-bound tree has plenty of nodes.
Model hard_knapsack(int items, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<Term> objective;
  std::vector<Term> cap;
  double total = 0.0;
  for (int i = 0; i < items; ++i) {
    const int b = m.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(10.0, 20.0)});
    const double w = rng.uniform(5.0, 10.0);
    total += w;
    cap.push_back({b, w});
  }
  m.set_objective(Sense::kMaximize, objective);
  m.add_constraint("cap", cap, Relation::kLessEqual, total * 0.5);
  return m;
}

// ---- deadline & cancellation plumbing ------------------------------------

TEST(SolveContext, DefaultsAreUnlimited) {
  SolveContext ctx;
  EXPECT_FALSE(ctx.deadline().expired());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.should_stop());
  EXPECT_EQ(ctx.deadline().remaining_ms(),
            std::numeric_limits<double>::infinity());
}

TEST(SolveContext, CancelTripsShouldStop) {
  SolveContext ctx;
  ctx.request_cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.should_stop());
}

TEST(SolveContext, ExpiredDeadlineTripsShouldStop) {
  SolveContext ctx;
  ctx.set_time_limit_ms(0.0);
  EXPECT_TRUE(ctx.deadline().expired());
  EXPECT_TRUE(ctx.should_stop());
}

TEST(Deadline, EarliestPicksTheSoonerOfTwo) {
  const Deadline never = Deadline::unlimited();
  const Deadline soon = Deadline::after_ms(0.0);
  EXPECT_TRUE(Deadline::earliest(never, soon).expired());
  EXPECT_TRUE(Deadline::earliest(soon, never).expired());
  EXPECT_FALSE(Deadline::earliest(never, never).expired());
}

TEST(DeadlineGuard, TightensThenRestores) {
  SolveContext ctx;
  {
    const DeadlineGuard guard(ctx, Deadline::after_ms(0.0));
    EXPECT_TRUE(ctx.should_stop());
  }
  EXPECT_FALSE(ctx.should_stop());  // caller's unlimited deadline is back
}

// ---- simplex under deadline / cancellation -------------------------------

TEST(SolveContext, DeadlineInterruptsSimplexMidSolve) {
  const Model m = dense_lp(150, 300, 7);
  lp::LpEngine solver;

  // Unlimited solve establishes how much work the model takes.
  SolveContext free_ctx;
  const auto full = solver.solve(m, free_ctx);
  ASSERT_EQ(full.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(full.iterations, 0);

  // With a ~2 ms budget the pivot loop must notice the expiry at one of its
  // refactorization-interval polls and return kTimeLimit with valid partial
  // stats (never hang or report optimal after the deadline).
  SolveContext ctx;
  ctx.set_time_limit_ms(2.0);
  const auto limited = solver.solve(m, ctx);
  if (limited.status == lp::SolveStatus::kTimeLimit) {
    EXPECT_LE(limited.iterations, full.iterations);
    const SolveStats* simplex = ctx.stats().find("simplex");
    ASSERT_NE(simplex, nullptr);
    EXPECT_EQ(simplex->metric("pivots"), limited.iterations);
  } else {
    // A very fast machine may finish inside the budget; that is also legal.
    EXPECT_EQ(limited.status, lp::SolveStatus::kOptimal);
  }
}

TEST(SolveContext, PreExpiredDeadlineStopsSimplexAtFirstPoll) {
  const Model m = dense_lp(60, 120, 11);
  SolveContext ctx;
  ctx.set_time_limit_ms(0.0);
  const auto s = lp::LpEngine().solve(m, ctx);
  EXPECT_EQ(s.status, lp::SolveStatus::kTimeLimit);
  // The loop polls on entry, so not even one refactor interval of pivots.
  EXPECT_LT(s.iterations, 128);
}

TEST(SolveContext, CancellationBeatsDeadlineInSimplexStatus) {
  const Model m = dense_lp(60, 120, 13);
  SolveContext ctx;
  ctx.set_time_limit_ms(0.0);
  ctx.request_cancel();  // both tripped: cancellation wins the status race
  const auto s = lp::LpEngine().solve(m, ctx);
  EXPECT_EQ(s.status, lp::SolveStatus::kCancelled);
}

// ---- branch-and-bound control --------------------------------------------

TEST(SolveContext, CancellationFromNodeCallbackStopsBranchAndBound) {
  const Model m = hard_knapsack(26, 3);
  SolveContext ctx;
  std::atomic<int> nodes_seen{0};
  ctx.events.on_node = [&](const NodeEvent& event) {
    (void)event;
    if (++nodes_seen >= 5) ctx.request_cancel();
  };
  const auto s = milp::BranchAndBoundSolver().solve(m, ctx);
  EXPECT_EQ(s.status, milp::MilpStatus::kCancelled);
  EXPECT_GE(nodes_seen.load(), 5);
  // Cancellation is polled per node and inside node LPs: the tree must stop
  // promptly, not run to its natural end (which takes hundreds of nodes).
  EXPECT_LT(s.nodes, 64);
}

TEST(SolveContext, MilpTimeLimitRestoresCallerDeadline) {
  const Model m = hard_knapsack(30, 5);
  milp::SolverOptions options;
  options.search.time_limit_ms = 1;
  options.search.max_nodes = 1 << 30;
  SolveContext ctx;
  const auto s = milp::BranchAndBoundSolver(options).solve(m, ctx);
  EXPECT_TRUE(s.status == milp::MilpStatus::kTimeLimit ||
              s.status == milp::MilpStatus::kOptimal);
  EXPECT_FALSE(ctx.should_stop()) << "option deadline leaked into context";
}

// ---- events & stats ------------------------------------------------------

TEST(SolveContext, EventsFireInOrderWithConsistentCounters) {
  const Model m = hard_knapsack(14, 11);
  SolveContext ctx;
  int phases = 0;
  int nodes = 0;
  int incumbents = 0;
  int bound_moves = 0;
  long long last_node = -1;
  bool incumbent_before_node_end = false;
  ctx.events.on_simplex_phase = [&](const SimplexPhaseEvent& e) {
    EXPECT_TRUE(e.phase == 1 || e.phase == 2);
    EXPECT_GE(e.pivots, 0);
    ++phases;
  };
  ctx.events.on_node = [&](const NodeEvent& e) {
    EXPECT_GE(e.node, last_node) << "nodes must be announced in order";
    last_node = e.node;
    EXPECT_GE(e.depth, 0);
    ++nodes;
  };
  ctx.events.on_incumbent = [&](const IncumbentEvent& e) {
    EXPECT_GE(e.time_ms, 0.0);
    incumbent_before_node_end = true;
    ++incumbents;
  };
  ctx.events.on_bound_improvement = [&](const BoundEvent&) { ++bound_moves; };

  const auto s = milp::BranchAndBoundSolver().solve(m, ctx);
  ASSERT_EQ(s.status, milp::MilpStatus::kOptimal);
  EXPECT_GT(phases, 0);
  EXPECT_GT(nodes, 0);
  EXPECT_GE(incumbents, 1);  // an optimal solve must announce its incumbent
  EXPECT_TRUE(incumbent_before_node_end);

  const SolveStats* bb = ctx.stats().find("branch_and_bound");
  ASSERT_NE(bb, nullptr);
  EXPECT_EQ(bb->metric("nodes"), s.nodes);
  EXPECT_EQ(bb->metric("incumbents"), incumbents);
  EXPECT_EQ(bb->metric("bound_improvements"), bound_moves);
  EXPECT_FALSE(bb->trace.empty());
  // The trace ends at the final optimal state: incumbent meets bound.
  const TracePoint& last = bb->trace.back();
  EXPECT_NEAR(last.incumbent, s.objective, 1e-6);
  // Aggregated simplex counters roll up somewhere under the B&B subtree
  // (under "root_lp"/"cuts" scopes when the root closes the gap, directly
  // under the node loop otherwise).
  EXPECT_GE(bb->deep_metric("pivots"), 1.0);
  EXPECT_EQ(bb->wall_ms >= 0.0, true);
}

TEST(SolveContext, PresolveFiresReductionEvents) {
  Model m;
  const int x = m.add_continuous("x", 3.0, 3.0);  // fixed
  const int y = m.add_continuous("y", 0.0, 10.0);
  m.set_objective(Sense::kMinimize, {{x, 2.0}, {y, 1.0}});
  m.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 5.0);
  SolveContext ctx;
  std::vector<std::string> rules;
  ctx.events.on_presolve_reduction = [&](const PresolveReductionEvent& e) {
    rules.push_back(e.rule);
  };
  const auto result = lp::presolve(m, ctx);
  ASSERT_EQ(result.status, lp::PresolveStatus::kReduced);
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules.front(), "fix_variable");
  const SolveStats* presolve_stats = ctx.stats().find("presolve");
  ASSERT_NE(presolve_stats, nullptr);
  EXPECT_EQ(presolve_stats->metric("vars_removed"), result.vars_removed);
  EXPECT_EQ(presolve_stats->metric("rows_removed"), result.rows_removed);
}

TEST(SolveStats, AggregatesRepeatedScopesInsteadOfGrowing) {
  SolveContext ctx;
  for (int i = 0; i < 100; ++i) {
    SolveScope scope(ctx, "simplex");
    scope.stats().add("calls", 1.0);
  }
  ASSERT_EQ(ctx.stats().children.size(), 1u);
  EXPECT_EQ(ctx.stats().children.front().metric("calls"), 100.0);
}

TEST(SolveStats, JsonIsWellFormedAndEscapes) {
  SolveStats stats;
  stats.name = "root \"quoted\"";
  stats.wall_ms = 1.5;
  stats.add("pivots", 42.0);
  stats.add("nan_metric", std::numeric_limits<double>::quiet_NaN());
  stats.trace.push_back({0.5, 1, 10.0, 9.0});
  stats.child("child").add("k", 1.0);
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"root \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"pivots\":42"), std::string::npos);
  EXPECT_NE(json.find("\"nan_metric\":null"), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(SolveStats, JsonRoundTripsHostileNamesThroughAValidator) {
  // Names exercising every escape class the emitter handles: quotes,
  // backslashes, newline/tab, and sub-0x20 control characters.
  const std::string hostile = "q\"uo\\te\nnew\tline\x01\x1f end";
  SolveStats stats;
  stats.name = hostile;
  stats.wall_ms = 2.0;
  stats.add("metric \"with\\escapes\"", 7.0);
  stats.child("child\nname").add("k", 3.0);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(stats.to_json(), doc, &error)) << error;
  ASSERT_EQ(doc.kind, json::Value::Kind::kObject);
  // Decoding the emitted JSON must yield the original bytes exactly.
  const json::Value* name = doc.get("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->str, hostile);
  const json::Value* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->get("metric \"with\\escapes\""), nullptr);
  EXPECT_EQ(metrics->get("metric \"with\\escapes\"")->num, 7.0);
  const json::Value* children = doc.get("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->arr.size(), 1u);
  EXPECT_EQ(children->arr[0].get("name")->str, "child\nname");
}

TEST(SolveStats, DeepMetricSumsOverNestedChildren) {
  SolveStats stats;
  stats.add("pivots", 1.0);
  stats.child("a").add("pivots", 10.0);
  stats.child("a").child("a1").add("pivots", 100.0);
  stats.child("b").add("pivots", 1000.0);
  EXPECT_EQ(stats.deep_metric("pivots"), 1111.0);
  // Re-fetch: child() references are invalidated by sibling insertion.
  ASSERT_NE(stats.find("a"), nullptr);
  EXPECT_EQ(stats.find("a")->deep_metric("pivots"), 110.0);
  EXPECT_EQ(stats.deep_metric("absent"), 0.0);
}

TEST(SolveStats, RenderShowsEveryNodeWithMetricsAndIndentation) {
  SolveStats stats;
  stats.name = "root";
  stats.wall_ms = 12.0;
  stats.add("calls", 2.0);
  SolveStats& child = stats.child("inner");
  child.wall_ms = 5.0;
  child.trace.push_back({1.0, 1, 2.0, 3.0});
  const std::string text = stats.render();
  EXPECT_NE(text.find("root: 12.0 ms, calls=2"), std::string::npos);
  EXPECT_NE(text.find("\n  inner: 5.0 ms"), std::string::npos)
      << "children indent two spaces under the parent:\n" << text;
  EXPECT_NE(text.find("trace=1 samples"), std::string::npos);
}

TEST(SolveStats, FindWalksDottedPaths) {
  SolveStats stats;
  stats.child("branch_and_bound").child("simplex").add("pivots", 5.0);
  const SolveStats* deep = stats.find("branch_and_bound.simplex");
  ASSERT_NE(deep, nullptr);
  EXPECT_EQ(deep->metric("pivots"), 5.0);
  // Single names still address direct children only.
  EXPECT_NE(stats.find("branch_and_bound"), nullptr);
  EXPECT_EQ(stats.find("simplex"), nullptr);
  EXPECT_EQ(stats.find("branch_and_bound.missing"), nullptr);
  EXPECT_EQ(stats.find("missing.simplex"), nullptr);
  EXPECT_EQ(stats.find(""), nullptr);
}

TEST(SolveStats, FindRejectsMalformedDottedPaths) {
  // Regression test: an empty path segment used to match the first child
  // whose name happened to be empty (or walk into the wrong node) instead
  // of failing the lookup. Every malformed spelling must return null, even
  // when an empty-named child actually exists.
  SolveStats stats;
  stats.child("a").child("b").add("n", 1.0);
  stats.child("");  // hostile: deliberately empty child name
  EXPECT_EQ(stats.find("."), nullptr);
  EXPECT_EQ(stats.find(".a"), nullptr);
  EXPECT_EQ(stats.find("a."), nullptr);
  EXPECT_EQ(stats.find("a..b"), nullptr);
  EXPECT_EQ(stats.find(".."), nullptr);
  // Well-formed paths still resolve around the hostile sibling.
  ASSERT_NE(stats.find("a.b"), nullptr);
  EXPECT_EQ(stats.find("a.b")->metric("n"), 1.0);
}

TEST(SolveScope, EarlyParentCloseFlushesOpenChildWallTime) {
  SolveContext ctx;
  auto parent = std::make_unique<SolveScope>(ctx, "parent");
  auto child = std::make_unique<SolveScope>(ctx, "child");
  SolveStats& child_stats = child->stats();
  // Closing the parent while the child is still open must flush the child
  // first (innermost-out), so no wall time is lost from the tree.
  parent->close();
  EXPECT_GE(child_stats.wall_ms, 0.0);
  EXPECT_GE(parent->stats().wall_ms, child_stats.wall_ms);
  EXPECT_EQ(&ctx.current_stats(), &ctx.stats())
      << "current node must return to the root";
  // The child's own close (via destructor) is now a no-op; wall time must
  // not be double-counted.
  const double flushed = child_stats.wall_ms;
  child.reset();
  EXPECT_EQ(child_stats.wall_ms, flushed);
  parent.reset();
}

// ---- planner integration -------------------------------------------------

TEST(SolveContext, PlannerBuildsPerStageStatsTree) {
  Rng rng(5);
  const auto instance = make_random_instance(rng, 8, 3, 2);
  const CostModel model(instance);
  PlannerOptions options;
  options.milp.search.time_limit_ms = 5000;
  SolveContext ctx;
  const PlannerReport report = EtransformPlanner(options).plan(PlanInput(model), ctx);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.stats.name, "planner");
  EXPECT_GT(report.stats.wall_ms, 0.0);
  // The exact path must record formulation, presolve, and B&B stages.
  EXPECT_NE(report.stats.find("formulation"), nullptr);
  EXPECT_NE(report.stats.find("presolve"), nullptr);
  const SolveStats* bb = report.stats.find("branch_and_bound");
  ASSERT_NE(bb, nullptr);
  EXPECT_EQ(bb->deep_metric("nodes"), report.milp_nodes);
}

TEST(SolveContext, CancelledPlannerReturnsBestEffortPlan) {
  Rng rng(6);
  const auto instance = make_random_instance(rng, 8, 3, 2);
  const CostModel model(instance);
  SolveContext ctx;
  bool cancelled_once = false;
  ctx.events.on_incumbent = [&](const IncumbentEvent&) {
    // Cancel as soon as the first feasible plan exists.
    cancelled_once = true;
    ctx.request_cancel();
  };
  const PlannerReport report = EtransformPlanner().plan(PlanInput(model), ctx);
  if (cancelled_once) {
    EXPECT_TRUE(report.interrupted);
    EXPECT_TRUE(check_plan(instance, report.plan).empty())
        << "interrupted plan must still be feasible";
  }
}

// ---- cross-thread cancellation -------------------------------------------
//
// request_cancel() is an atomic flag, so any thread may flip it while a
// solver runs on another. These tests make the interleaving deterministic by
// parking the solver thread inside an event callback until the cancelling
// thread has actually issued the request: the solver's next cooperative poll
// is then guaranteed to observe it.

TEST(CrossThreadCancel, SecondThreadCancelsSimplexMidSolve) {
  const Model m = dense_lp(80, 160, 17);
  SolveContext ctx;
  std::mutex mu;
  std::condition_variable cv;
  bool phase1_done = false;
  bool cancel_issued = false;

  // Park the solver thread after phase 1; the phase-2 pivot loop polls the
  // context on entry, so it must see the cancellation before pivoting.
  ctx.events.on_simplex_phase = [&](const SimplexPhaseEvent& e) {
    if (e.phase != 1) return;
    std::unique_lock<std::mutex> lock(mu);
    phase1_done = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
  };

  std::thread canceller([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return phase1_done; });
    ctx.request_cancel();
    cancel_issued = true;
    cv.notify_all();
  });

  const auto s = lp::LpEngine().solve(m, ctx);
  canceller.join();
  EXPECT_EQ(s.status, lp::SolveStatus::kCancelled);
  EXPECT_TRUE(ctx.cancelled());
}

TEST(CrossThreadCancel, SecondThreadCancelsBranchAndBoundKeepsIncumbent) {
  const Model m = hard_knapsack(26, 9);
  SolveContext ctx;
  std::mutex mu;
  std::condition_variable cv;
  bool have_incumbent = false;
  bool cancel_issued = false;

  // Park the solver once the first incumbent exists, cancel from the second
  // thread, and require the interrupted solve to hand that incumbent back.
  ctx.events.on_incumbent = [&](const IncumbentEvent&) {
    std::unique_lock<std::mutex> lock(mu);
    have_incumbent = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
  };

  std::thread canceller([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return have_incumbent; });
    ctx.request_cancel();
    cancel_issued = true;
    cv.notify_all();
  });

  const auto s = milp::BranchAndBoundSolver().solve(m, ctx);
  canceller.join();
  EXPECT_EQ(s.status, milp::MilpStatus::kCancelled);
  ASSERT_FALSE(s.values.empty()) << "cancelled solve must keep its incumbent";
  EXPECT_TRUE(m.is_feasible(s.values, 1e-6));
  EXPECT_GT(s.objective, 0.0);
  // The tree must stop promptly instead of running to its natural end.
  EXPECT_LT(s.nodes, 512);
}

}  // namespace
}  // namespace etransform
