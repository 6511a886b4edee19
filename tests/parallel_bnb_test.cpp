// Tests for the branch-and-bound search with a strong-branching probe pool:
// the thread count never changes the explored tree, pooled searches agree
// with brute force, cross-thread cancellation mid-search, the per-slot
// probe stats a pooled search stamps under "parallel", the pool built only
// by a multi-probe node, and the bytes an open node holds on a 2,000-column
// MILP.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "milp/branch_and_bound.h"
#include "milp/brute_force.h"

namespace etransform::milp {
namespace {

using lp::Model;
using lp::Relation;
using lp::Sense;
using lp::Term;

/// Generalized-assignment MILP (the bench's branching-heavy shape): `tasks`
/// binaries per agent, one assign-exactly-once equality per task, one
/// capacity row per agent.
Model assignment_milp(int tasks, int agents, std::uint64_t seed) {
  Rng rng(seed);
  Model model;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(tasks));
  std::vector<Term> objective;
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int v = model.add_binary("x_" + std::to_string(t) + "_" +
                                     std::to_string(a));
      x[static_cast<std::size_t>(t)].push_back(v);
      objective.push_back({v, rng.uniform(1.0, 20.0)});
    }
  }
  model.set_objective(Sense::kMinimize, objective);
  for (int t = 0; t < tasks; ++t) {
    std::vector<Term> row;
    for (const int v : x[static_cast<std::size_t>(t)]) row.push_back({v, 1.0});
    model.add_constraint("assign" + std::to_string(t), row, Relation::kEqual,
                         1.0);
  }
  for (int a = 0; a < agents; ++a) {
    std::vector<Term> row;
    for (int t = 0; t < tasks; ++t) {
      row.push_back(
          {x[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)],
           rng.uniform(1.0, 8.0)});
    }
    model.add_constraint("cap" + std::to_string(a), row, Relation::kLessEqual,
                         3.0 * tasks / agents);
  }
  return model;
}

Model knapsack_milp(int items, std::uint64_t seed) {
  Rng rng(seed);
  Model model;
  std::vector<Term> objective;
  std::vector<Term> cap;
  double total = 0.0;
  for (int i = 0; i < items; ++i) {
    const int b = model.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 30.0)});
    const double w = rng.uniform(1.0, 10.0);
    total += w;
    cap.push_back({b, w});
  }
  model.set_objective(Sense::kMaximize, objective);
  model.add_constraint("cap", cap, Relation::kLessEqual, 0.4 * total);
  return model;
}

MilpSolution solve_with(const Model& model, int threads) {
  SolverOptions options;
  options.search.threads = threads;
  const BranchAndBoundSolver solver(options);
  SolveContext ctx;
  return solver.solve(model, ctx);
}

/// Sum of a per-worker metric over the "parallel" stats child.
double sum_worker_metric(const SolveStats& stats, const std::string& key) {
  const SolveStats* parallel = stats.find("parallel");
  if (parallel == nullptr) return -1.0;
  double total = 0.0;
  for (const SolveStats& worker : parallel->children) {
    total += worker.metric(key);
  }
  return total;
}

/// Byte-stable contract: not just the same optimum, the same explored tree
/// — node count, total simplex iterations, bound, and the exact incumbent.
void expect_same_tree(const MilpSolution& s, const MilpSolution& base,
                      const std::string& label) {
  EXPECT_EQ(s.status, base.status) << label;
  EXPECT_EQ(s.objective, base.objective) << label;
  EXPECT_EQ(s.nodes, base.nodes) << label;
  EXPECT_EQ(s.lp_iterations, base.lp_iterations) << label;
  EXPECT_EQ(s.best_bound, base.best_bound) << label;
  EXPECT_EQ(s.values, base.values) << label;
}

TEST(SearchTree, ThreadsNeverChangeTheTree) {
  const std::vector<std::pair<std::string, Model>> models = {
      {"assignment 12x4 seed 23", assignment_milp(12, 4, 23)},
      {"assignment 10x4 seed 3", assignment_milp(10, 4, 3)},
      {"assignment 10x4 seed 11", assignment_milp(10, 4, 11)},
      {"knapsack 24 seed 2", knapsack_milp(24, 2)},
  };
  for (const auto& [name, model] : models) {
    const MilpSolution base = solve_with(model, /*threads=*/1);
    ASSERT_NE(base.nodes, 0) << name;
    for (const int threads : {0, 2, 4, 8}) {
      expect_same_tree(solve_with(model, threads), base,
                       name + ", " + std::to_string(threads) + " threads");
    }
  }
}

TEST(DeterministicSearch, RepeatedRunsAreByteStable) {
  const Model model = assignment_milp(/*tasks=*/10, /*agents=*/4, 7);
  const MilpSolution first = solve_with(model, /*threads=*/4);
  const MilpSolution second = solve_with(model, /*threads=*/4);
  ASSERT_EQ(first.status, MilpStatus::kOptimal);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.lp_iterations, second.lp_iterations);
  EXPECT_EQ(first.values, second.values);
}

TEST(ParallelSearch, MatchesSequentialOnAssignmentInstances) {
  for (const std::uint64_t seed : {3u, 11u, 23u, 31u}) {
    const Model model = assignment_milp(/*tasks=*/10, /*agents=*/4, seed);
    const MilpSolution seq = solve_with(model, 1);
    const MilpSolution par = solve_with(model, 4);
    // Some seeds are genuinely infeasible — the thread counts must agree on
    // that verdict too.
    ASSERT_EQ(par.status, seq.status) << "seed " << seed;
    if (seq.status == MilpStatus::kOptimal) {
      EXPECT_NEAR(par.objective, seq.objective, 1e-6) << "seed " << seed;
      EXPECT_NEAR(par.best_bound, seq.best_bound, 1e-6) << "seed " << seed;
    }
  }
}

TEST(ParallelSearch, MatchesSequentialOnKnapsacks) {
  for (const std::uint64_t seed : {2u, 17u}) {
    const Model model = knapsack_milp(/*items=*/24, seed);
    const MilpSolution seq = solve_with(model, 1);
    ASSERT_EQ(seq.status, MilpStatus::kOptimal) << "seed " << seed;
    const MilpSolution par = solve_with(model, 8);
    ASSERT_EQ(par.status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(par.objective, seq.objective, 1e-6) << "seed " << seed;
  }
}

TEST(ParallelSearch, MatchesBruteForceOnSmallModels) {
  for (const std::uint64_t seed : {5u, 13u}) {
    const Model model = assignment_milp(/*tasks=*/6, /*agents=*/3, seed);
    SolveContext reference_ctx;
    const MilpSolution reference = solve_brute_force(model, reference_ctx);
    const MilpSolution par = solve_with(model, 4);
    // Brute force is ground truth: agree on infeasibility, match the
    // optimum otherwise.
    if (reference.status == MilpStatus::kInfeasible) {
      EXPECT_EQ(par.status, MilpStatus::kInfeasible) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(reference.status, MilpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(par.status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(par.objective, reference.objective, 1e-6) << "seed " << seed;
  }
}

TEST(ParallelSearch, HardwareThreadsRequestIsAccepted) {
  const Model model = assignment_milp(/*tasks=*/8, /*agents=*/4, 19);
  const MilpSolution seq = solve_with(model, 1);
  const MilpSolution par = solve_with(model, /*threads=*/0);
  ASSERT_EQ(par.status, MilpStatus::kOptimal);
  EXPECT_NEAR(par.objective, seq.objective, 1e-6);
}

TEST(ParallelSearch, StampsPerWorkerCounters) {
  const Model model = assignment_milp(/*tasks=*/12, /*agents=*/4, 23);
  const MilpSolution s = solve_with(model, 4);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  const SolveStats* parallel = s.stats.find("parallel");
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->metric("threads"), 4.0);
  // Slots run strong-branching probes only: no node LP lands on one, and
  // the probes' pivots show on the workers.
  ASSERT_FALSE(parallel->children.empty());
  for (const SolveStats& worker : parallel->children) {
    EXPECT_TRUE(std::none_of(
        worker.metrics.begin(), worker.metrics.end(),
        [](const auto& metric) { return metric.first == "nodes"; }))
        << worker.name;
  }
  EXPECT_GT(sum_worker_metric(s.stats, "lp_iterations"), 0.0);
  // The slots' simplex subtrees merge into the solve's, same as the
  // one-thread shape.
  EXPECT_NE(s.stats.find("simplex"), nullptr);
  // One thread runs every LP on the solve's own engine: no slots. Node LPs
  // run there at any thread count, so their warm starts match.
  const MilpSolution one = solve_with(model, 1);
  EXPECT_EQ(one.stats.find("parallel"), nullptr);
  EXPECT_NE(one.stats.find("simplex"), nullptr);
  EXPECT_EQ(s.stats.metric("warm_started_nodes"),
            one.stats.metric("warm_started_nodes"));
}

// The pool and its probe slots are built by the first node that claims two
// or more probes. With one probe per node no node does, so a 4-thread
// solve builds neither: no "parallel" child, and the one-thread tree.
TEST(ParallelSearch, NoMultiProbeNodeBuildsNoPool) {
  const Model model = assignment_milp(/*tasks=*/12, /*agents=*/4, 23);
  SolverOptions options;
  options.branching.max_probes_per_node = 1;
  SolveContext one_ctx;
  options.search.threads = 1;
  const MilpSolution one = BranchAndBoundSolver(options).solve(model, one_ctx);
  SolveContext four_ctx;
  options.search.threads = 4;
  const MilpSolution four =
      BranchAndBoundSolver(options).solve(model, four_ctx);
  ASSERT_EQ(four.status, MilpStatus::kOptimal);
  EXPECT_GT(four.stats.metric("strong_branch_probes"), 0.0);
  EXPECT_EQ(four.stats.find("parallel"), nullptr);
  expect_same_tree(four, one, "one probe per node, 4 threads");
}

TEST(ParallelSearch, CrossThreadCancellationMidSearch) {
  // A deliberately hard configuration (no cuts, most-fractional branching)
  // so the tree is large enough that cancellation lands mid-search.
  const Model model = assignment_milp(/*tasks=*/20, /*agents=*/4, 23);
  SolverOptions options;
  options.search.threads = 4;
  options.cuts.enable = false;
  options.branching.rule = BranchingOptions::Rule::kMostFractional;
  const BranchAndBoundSolver solver(options);

  SolveContext ctx;
  std::atomic<long long> nodes_seen{0};
  ctx.events.on_node = [&](const NodeEvent&) { ++nodes_seen; };
  std::thread canceller([&] {
    // Wait until the search is demonstrably under way, then cancel from
    // this (non-pool, non-solve) thread.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (nodes_seen.load() < 16 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ctx.request_cancel();
  });
  const MilpSolution s = solver.solve(model, ctx);
  canceller.join();
  EXPECT_EQ(s.status, MilpStatus::kCancelled);
  // The partial bound survives cancellation.
  EXPECT_GT(s.nodes, 0);
}

TEST(DeterministicSearch, CancellationUnwinds) {
  // Cancels from inside on_node, which fires on the solving thread between
  // node LPs, with a two-thread pool up.
  const Model model = assignment_milp(/*tasks=*/20, /*agents=*/4, 23);
  SolverOptions options;
  options.search.threads = 2;
  options.cuts.enable = false;
  options.branching.rule = BranchingOptions::Rule::kMostFractional;
  const BranchAndBoundSolver solver(options);

  SolveContext ctx;
  std::atomic<long long> nodes_seen{0};
  ctx.events.on_node = [&ctx, &nodes_seen](const NodeEvent&) {
    if (++nodes_seen == 16) ctx.request_cancel();
  };
  const MilpSolution s = solver.solve(model, ctx);
  EXPECT_EQ(s.status, MilpStatus::kCancelled);
}

TEST(NodeStorage, OpenNodesHoldNoBoundVectors) {
  // 2,000 binaries: a node holding its own lower and upper vectors would
  // cost 32,000 bytes. A chained node costs its entry, its Node and one
  // BoundChange record, with and without a probe pool.
  const Model model = assignment_milp(500, 4, 41);
  ASSERT_GE(model.num_variables(), 2000);
  for (const int threads : {1, 2}) {
    SolverOptions options;
    options.search.max_nodes = 120;
    options.search.threads = threads;
    const BranchAndBoundSolver solver(options);
    SolveContext ctx;
    const MilpSolution solution = solver.solve(model, ctx);
    EXPECT_EQ(solution.nodes, 120) << "threads " << threads;
    const double peak = solution.stats.metric("open_nodes_peak");
    const double bytes = solution.stats.metric("node_bytes");
    ASSERT_GE(peak, 10.0) << "threads " << threads;
    EXPECT_LE(peak, solution.nodes) << "threads " << threads;
    EXPECT_LT(bytes / peak, 256.0) << "threads " << threads;
  }
}

}  // namespace
}  // namespace etransform::milp
