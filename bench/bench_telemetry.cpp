// Telemetry overhead microbenchmarks (google-benchmark).
//
// Quantifies the two costs the telemetry design promises to keep tiny:
//  * the disabled path — a TraceSpan over a null recorder must be a branch
//    (sub-nanosecond), because every instrumentation point in the solver
//    stack pays it on every solve;
//  * the enabled hot path — recording into the preallocated per-thread ring
//    and bumping atomic instruments, which bound the distortion tracing adds
//    to a traced run;
//  * the live progress channel — a raw SolveProgress::publish (the seqlock
//    write B&B pays every 64 nodes), a reader snapshot of a full ring, and
//    an end-to-end branch-and-bound solve with the ring attached vs.
//    detached, whose delta must stay under the 1% budget DESIGN.md §13
//    promises.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/progress.h"
#include "common/random.h"
#include "milp/branch_and_bound.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace etransform {
namespace {

using telemetry::MetricsRegistry;
using telemetry::TraceRecorder;
using telemetry::TraceSpan;

void BM_TraceSpanDisabled(benchmark::State& state) {
  TraceRecorder* recorder = nullptr;
  benchmark::DoNotOptimize(recorder);
  for (auto _ : state) {
    const TraceSpan span(recorder, "lp", "simplex.factorize");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 20);
  for (auto _ : state) {
    // Each span publishes two records; drain the ring before it fills so the
    // benchmark measures recording, not dropping.
    if (recorder.recorded() > (1 << 19)) {
      state.PauseTiming();
      recorder.clear();
      state.ResumeTiming();
    }
    const TraceSpan span(&recorder, "lp", "simplex.factorize");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_TraceInstantEnabled(benchmark::State& state) {
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 20);
  std::int64_t i = 0;
  for (auto _ : state) {
    if (recorder.recorded() > (1 << 19)) {
      state.PauseTiming();
      recorder.clear();
      state.ResumeTiming();
    }
    recorder.instant("lp", "presolve.fix", ++i);
  }
}
BENCHMARK(BM_TraceInstantEnabled);

void BM_CounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  telemetry::Counter& counter =
      registry.counter("etransform_bench_pivots_total");
  for (auto _ : state) {
    counter.add(3.0);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  telemetry::Histogram& histogram =
      registry.histogram("etransform_bench_latency_ms");
  double v = 0.1;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 100000.0 ? v * 1.7 : 0.1;  // sweep across the log buckets
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramObserve);

// ---- live progress channel ------------------------------------------------

// The seqlock write itself: a handful of relaxed stores bracketed by the
// slot sequence. This is the whole cost a publication site pays.
void BM_ProgressPublish(benchmark::State& state) {
  SolveProgress progress(/*capacity=*/256);
  long long nodes = 0;
  double bound = 1000.0;
  for (auto _ : state) {
    ++nodes;
    progress.publish(/*time_ms=*/static_cast<double>(nodes), nodes,
                     /*incumbent=*/500.0, /*has_incumbent=*/true,
                     bound *= 0.999999, /*has_bound=*/true);
  }
  benchmark::DoNotOptimize(progress.published());
}
BENCHMARK(BM_ProgressPublish);

// A reader draining a full ring — what one GET /progress costs the daemon.
void BM_ProgressSnapshot(benchmark::State& state) {
  SolveProgress progress(/*capacity=*/256);
  for (int i = 0; i < 512; ++i) {
    progress.publish(i, i, 500.0, true, 1000.0 - i, true);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(progress.snapshot().timeline.size());
  }
}
BENCHMARK(BM_ProgressSnapshot);

// End to end: the same knapsack branch-and-bound with the progress ring
// detached (ring:0) and attached (ring:1). B&B publishes a sample every 64
// nodes plus on every incumbent/bound improvement; the ring:1/ring:0 delta
// is the full-system overhead and must stay under 1%.
void BM_BranchAndBoundProgressRing(benchmark::State& state) {
  Rng rng(11);
  lp::Model model;
  std::vector<lp::Term> objective;
  std::vector<lp::Term> cap;
  double total = 0.0;
  for (int j = 0; j < 26; ++j) {
    const int b = model.add_binary("take" + std::to_string(j));
    const double w = rng.uniform(1.0, 10.0);
    objective.push_back({b, rng.uniform(1.0, 20.0)});
    total += w;
    cap.push_back({b, w});
  }
  model.set_objective(lp::Sense::kMaximize, objective);
  model.add_constraint("cap", cap, lp::Relation::kLessEqual, 0.4 * total);
  const milp::BranchAndBoundSolver solver;
  const bool attach_ring = state.range(0) != 0;
  SolveProgress progress(/*capacity=*/256);
  long long nodes = 0;
  for (auto _ : state) {
    SolveContext ctx;
    if (attach_ring) ctx.set_progress(&progress);
    const auto result = solver.solve(model, ctx);
    nodes += result.nodes;
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
  if (attach_ring) {
    state.counters["published"] =
        benchmark::Counter(static_cast<double>(progress.published()));
  }
}
BENCHMARK(BM_BranchAndBoundProgressRing)->Arg(0)->Arg(1)->ArgNames({"ring"});

}  // namespace
}  // namespace etransform

BENCHMARK_MAIN();
