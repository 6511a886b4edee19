// E12 — solver performance microbenchmarks (google-benchmark).
//
// Times the substrate the reproduction is built on: the bounded-variable
// simplex on dense random LPs and transportation LPs, branch-and-bound on
// knapsacks and assignment MILPs, the full planner on enterprise1-scale
// instances, and the Lagrangian bound at Federal scale.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/random.h"
#include "common/stopwatch.h"
#include "cost/cost_model.h"
#include "datagen/generators.h"
#include "lp/lp_engine.h"
#include "milp/branch_and_bound.h"
#include "planner/etransform_planner.h"
#include "planner/lagrangian.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace etransform {
namespace {

lp::Model random_lp(std::uint64_t seed, int vars, int rows) {
  Rng rng(seed);
  lp::Model model;
  std::vector<lp::Term> objective;
  for (int j = 0; j < vars; ++j) {
    const int v = model.add_continuous("x" + std::to_string(j), 0.0,
                                       rng.uniform(1.0, 10.0));
    objective.push_back({v, rng.uniform(-5.0, 5.0)});
  }
  model.set_objective(lp::Sense::kMinimize, objective);
  for (int i = 0; i < rows; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.3) terms.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    model.add_constraint("r" + std::to_string(i), terms,
                         lp::Relation::kLessEqual, rng.uniform(1.0, 20.0));
  }
  return model;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const auto model = random_lp(7, static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(0)) / 2);
  lp::LpEngine solver;
  for (auto _ : state) {
    SolveContext ctx;
    benchmark::DoNotOptimize(solver.solve(model, ctx));
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(50)->Arg(200)->Arg(800);

// Same solve with a live trace recorder and metrics registry attached —
// the delta against BM_SimplexRandomLp is the telemetry overhead on a
// fully-instrumented solve.
void BM_SimplexRandomLpTraced(benchmark::State& state) {
  const auto model = random_lp(7, static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(0)) / 2);
  lp::LpEngine solver;
  telemetry::TraceRecorder recorder(/*capacity_per_thread=*/1 << 20);
  telemetry::MetricsRegistry registry;
  for (auto _ : state) {
    if (recorder.recorded() > (1 << 19)) {
      state.PauseTiming();
      recorder.clear();
      state.ResumeTiming();
    }
    SolveContext ctx;
    ctx.set_trace(&recorder);
    ctx.set_metrics(&registry);
    benchmark::DoNotOptimize(solver.solve(model, ctx));
  }
}
BENCHMARK(BM_SimplexRandomLpTraced)->Arg(200)->Arg(800);

// The pre-revised-simplex baseline: dense explicit inverse + full Dantzig
// pricing, matching the legacy tableau implementation. Kept so the
// sparse-vs-dense speedup stays measured release over release.
void BM_SimplexRandomLpDense(benchmark::State& state) {
  const auto model = random_lp(7, static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(0)) / 2);
  lp::SimplexOptions options;
  options.use_dense_fallback = true;
  options.pricing = lp::PricingRule::kDantzig;
  lp::LpEngine solver(options);
  for (auto _ : state) {
    SolveContext ctx;
    benchmark::DoNotOptimize(solver.solve(model, ctx));
  }
}
BENCHMARK(BM_SimplexRandomLpDense)->Arg(50)->Arg(200)->Arg(800);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  Rng rng(11);
  lp::Model model;
  std::vector<lp::Term> objective;
  std::vector<lp::Term> cap;
  double total = 0.0;
  for (int i = 0; i < state.range(0); ++i) {
    const int b = model.add_binary("b" + std::to_string(i));
    objective.push_back({b, rng.uniform(1.0, 30.0)});
    const double w = rng.uniform(1.0, 10.0);
    total += w;
    cap.push_back({b, w});
  }
  model.set_objective(lp::Sense::kMaximize, objective);
  model.add_constraint("cap", cap, lp::Relation::kLessEqual, 0.4 * total);
  const milp::BranchAndBoundSolver solver;
  for (auto _ : state) {
    SolveContext ctx;
    benchmark::DoNotOptimize(solver.solve(model, ctx));
  }
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(20)->Arg(40);

/// Generalized-assignment MILP: `tasks` binaries per agent, one "assign
/// exactly once" equality per task, one capacity row per agent. The
/// branching-heavy structure is where warm-started nodes pay off.
lp::Model assignment_milp(int tasks, int agents) {
  Rng rng(23);
  lp::Model model;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(tasks));
  std::vector<lp::Term> objective;
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int v = model.add_binary("x_" + std::to_string(t) + "_" +
                                     std::to_string(a));
      x[static_cast<std::size_t>(t)].push_back(v);
      objective.push_back({v, rng.uniform(1.0, 20.0)});
    }
  }
  model.set_objective(lp::Sense::kMinimize, objective);
  for (int t = 0; t < tasks; ++t) {
    std::vector<lp::Term> row;
    for (const int v : x[static_cast<std::size_t>(t)]) row.push_back({v, 1.0});
    model.add_constraint("assign" + std::to_string(t), row,
                         lp::Relation::kEqual, 1.0);
  }
  for (int a = 0; a < agents; ++a) {
    std::vector<lp::Term> row;
    for (int t = 0; t < tasks; ++t) {
      row.push_back({x[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)],
                     rng.uniform(1.0, 8.0)});
    }
    // Capacity factor 3.0 keeps the instance feasible but branching-heavy
    // (tight enough that the relaxation stays fractional down the tree).
    model.add_constraint("cap" + std::to_string(a), row,
                         lp::Relation::kLessEqual, 3.0 * tasks / agents);
  }
  return model;
}

void BM_BranchAndBoundAssignment(benchmark::State& state) {
  const auto model = assignment_milp(static_cast<int>(state.range(0)), 4);
  milp::SolverOptions options;
  options.search.warm_start_nodes = state.range(1) != 0;
  // cuts:0 is the legacy configuration (no root cuts, most-fractional
  // branching); cuts:1 is production (Gomory+cover cuts, reliability
  // pseudocosts). The pair measures what the cutting pipeline buys.
  if (state.range(2) != 0) {
    options.cuts.enable = true;
    options.branching.rule = milp::BranchingOptions::Rule::kPseudocost;
  } else {
    options.cuts.enable = false;
    options.branching.rule = milp::BranchingOptions::Rule::kMostFractional;
  }
  // dual:0 forces every re-solve through the primal repair path (the
  // pre-LpEngine behavior); dual:1 is production kAuto, where node and
  // cut-round restarts reoptimize with the bound-flipping dual simplex.
  // The pair measures what dual reoptimization buys in LP iterations.
  options.lp.mode =
      state.range(3) != 0 ? lp::SolveMode::kAuto : lp::SolveMode::kPrimal;
  const milp::BranchAndBoundSolver solver(options);
  long long lp_iterations = 0;
  long long nodes = 0;
  for (auto _ : state) {
    SolveContext ctx;
    const auto solution = solver.solve(model, ctx);
    benchmark::DoNotOptimize(solution);
    lp_iterations += solution.lp_iterations;
    nodes += solution.nodes;
  }
  state.counters["lp_iters"] =
      benchmark::Counter(static_cast<double>(lp_iterations),
                         benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BranchAndBoundAssignment)
    ->ArgsProduct({{12, 20}, {0, 1}, {0, 1}, {0, 1}})
    ->ArgNames({"tasks", "warm", "cuts", "dual"});

// Thread scaling of the parallel tree search on the production
// configuration (warm starts, cuts, dual reoptimization). The explored tree
// is byte-identical at every thread count at any search width; the 8-node
// width (`deterministic`) is used because it keeps up to eight node LPs in
// flight, so the real_time ratio between threads:1 and threads:8 is a pure
// measure of parallel LP throughput — exactly what the CI speedup fence in
// cmake/check_bench_regression.cmake wants. The objective is still
// cross-checked against the one-node-per-step optimum.
void BM_BranchAndBoundAssignmentThreads(benchmark::State& state) {
  const auto model = assignment_milp(static_cast<int>(state.range(0)), 4);
  milp::SolverOptions options;
  options.search.threads = static_cast<int>(state.range(1));
  options.search.deterministic = true;
  const milp::BranchAndBoundSolver solver(options);
  const double reference = [&model] {
    const milp::BranchAndBoundSolver sequential;
    SolveContext ctx;
    return sequential.solve(model, ctx).objective;
  }();
  long long lp_iterations = 0;
  long long nodes = 0;
  for (auto _ : state) {
    SolveContext ctx;
    const auto solution = solver.solve(model, ctx);
    benchmark::DoNotOptimize(solution);
    if (std::abs(solution.objective - reference) > 1e-6) {
      state.SkipWithError("parallel objective diverged from sequential");
      break;
    }
    lp_iterations += solution.lp_iterations;
    nodes += solution.nodes;
  }
  state.counters["lp_iters"] =
      benchmark::Counter(static_cast<double>(lp_iterations),
                         benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BranchAndBoundAssignmentThreads)
    ->ArgsProduct({{20}, {1, 2, 4, 8}})
    ->ArgNames({"tasks", "threads"})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The paper's headline exact plan under a 20 s budget and the planner's
// 20,000-node cap. Whichever limit ends the search depends on machine
// speed, so unlike the BM_BranchAndBound* counters `nodes`, `lp_iters` and
// `open_nodes_peak` are reported, not fenced; `proven` is 1 once the search
// closes the gap within both limits.
void BM_PlannerEnterprise1(benchmark::State& state) {
  const auto instance = make_enterprise1();
  const CostModel model(instance);
  PlannerOptions options;
  options.milp.search.time_limit_ms = 20000;
  const EtransformPlanner planner(options);
  long long nodes = 0;
  long long lp_iterations = 0;
  long long proven = 0;
  long long open_nodes_peak = 0;
  double plan_s = 0.0;
  for (auto _ : state) {
    SolveContext ctx;
    const Stopwatch clock;
    const PlannerReport report = planner.plan(PlanInput(model), ctx);
    plan_s += clock.elapsed_ms() / 1000.0;
    benchmark::DoNotOptimize(report);
    nodes += report.milp_nodes;
    lp_iterations += static_cast<long long>(report.stats.deep_metric("pivots"));
    proven += report.proven_optimal ? 1 : 0;
    open_nodes_peak +=
        static_cast<long long>(report.stats.deep_metric("open_nodes_peak"));
  }
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
  state.counters["nodes_per_s"] =
      benchmark::Counter(plan_s > 0.0 ? static_cast<double>(nodes) / plan_s : 0.0);
  state.counters["lp_iters"] =
      benchmark::Counter(static_cast<double>(lp_iterations),
                         benchmark::Counter::kAvgIterations);
  state.counters["proven"] = benchmark::Counter(
      static_cast<double>(proven), benchmark::Counter::kAvgIterations);
  state.counters["open_nodes_peak"] =
      benchmark::Counter(static_cast<double>(open_nodes_peak),
                         benchmark::Counter::kAvgIterations);
}
// One repetition even under --benchmark_repetitions: the run lasts its 20 s
// budget, and `proven` is 0 on every run, so its coefficient of variation
// would be 0/0, which the JSON reporter writes as an unparseable NaN.
BENCHMARK(BM_PlannerEnterprise1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(1);

// Time-expanded multi-period MILP on the right-sizing estate: T per-period
// placement blocks coupled by migration move variables. The explored tree
// does not depend on the thread count, so the nodes, lp_iters and
// open_nodes_peak counters feed the same CI regression fence as the
// assignment MILPs.
void BM_BranchAndBoundMultiPeriod(benchmark::State& state) {
  const auto instance = make_rightsizing_estate({});
  const CostModel model(instance);
  TrafficCurveSpec curve;
  curve.num_periods = static_cast<int>(state.range(0));
  curve.trough_multiplier = 0.25;
  curve.migration_cost_per_server = 0.5;
  const PlanningHorizon horizon = make_traffic_curve(curve);
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  options.milp.search.time_limit_ms = 20000;
  options.milp.search.deterministic = true;
  const EtransformPlanner planner(options);
  long long lp_iterations = 0;
  long long nodes = 0;
  long long open_nodes_peak = 0;
  for (auto _ : state) {
    SolveContext ctx;
    PlanInput input(model);
    input.horizon = horizon;
    const PlannerReport report = planner.plan(input, ctx);
    benchmark::DoNotOptimize(report);
    nodes += report.milp_nodes;
    lp_iterations += static_cast<long long>(report.stats.deep_metric("pivots"));
    open_nodes_peak +=
        static_cast<long long>(report.stats.deep_metric("open_nodes_peak"));
  }
  state.counters["lp_iters"] =
      benchmark::Counter(static_cast<double>(lp_iterations),
                         benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
  // periods:2 solves integral at the root and never opens a node. A counter
  // that reads 0 on every repetition would get a 0/0 coefficient of
  // variation, which the JSON reporter writes as an unparseable NaN.
  if (open_nodes_peak > 0) {
    state.counters["open_nodes_peak"] =
        benchmark::Counter(static_cast<double>(open_nodes_peak),
                           benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_BranchAndBoundMultiPeriod)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"periods"})
    ->Unit(benchmark::kMillisecond);

// The whole heuristic planner on Federal (1,900 groups x 100 sites): the
// seed race, its light local search and the final polish, shortened to 3
// passes. `seeds_raced`, `moves_committed` and `objective` are
// deterministic, so check_bench_regression.cmake requires them to match
// the baseline exactly.
void BM_HeuristicFederal(benchmark::State& state) {
  const auto instance = make_federal();
  const CostModel model(instance);
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kHeuristic;
  options.local_search.max_passes = 3;
  options.local_search.enable_swaps = false;
  const EtransformPlanner planner(options);
  PlannerReport report;
  for (auto _ : state) {
    SolveContext ctx;
    report = planner.plan(PlanInput(model), ctx);
    benchmark::DoNotOptimize(report);
  }
  state.counters["seeds_raced"] = report.stats.deep_metric("seeds_raced");
  state.counters["moves_committed"] =
      report.stats.deep_metric("moves_committed");
  state.counters["objective"] = report.objective();
}
BENCHMARK(BM_HeuristicFederal)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_LagrangianFederal(benchmark::State& state) {
  const auto instance = make_federal();
  const CostModel model(instance);
  LagrangianOptions options;
  options.max_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrangian_lower_bound(model, options));
  }
}
BENCHMARK(BM_LagrangianFederal)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace etransform

int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", ET_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
