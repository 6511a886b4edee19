// enterprise1-exact, multiperiod-t4 and federal-heuristic: repeated
// identical EtransformPlanner::plan() calls on a fixed instance, one
// measuring thread per allowed CPU (at most kMaxThreads). The instances are
// the paper's fixed datasets, so plan cost, bound and the solver's counters
// repeat exactly on every run and every seed; the seed is recorded only.
#include <barrier>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "baselines/baselines.h"
#include "cost/cost_model.h"
#include "datagen/generators.h"
#include "model/horizon.h"
#include "model/instance_io.h"
#include "model/plan.h"
#include "planner/etransform_planner.h"
#include "planner/lagrangian.h"
#include "planner/local_search.h"
#include "workloads.h"

namespace perfbench {
namespace {

using etransform::ConsolidationInstance;
using etransform::CostModel;
using etransform::PlannerOptions;
using etransform::PlannerReport;
using etransform::PlanningHorizon;
using etransform::SolveStats;

enum class Kind { kEnterprise1, kMultiPeriod, kFederal };

/// The multi-period optimum proven at the repository's re-anchor
/// (EXPERIMENTS E13); any correct exact solve must reproduce it.
constexpr double kMultiPeriodOptimum = 546.0;

Kind kind_of(const std::string& name) {
  if (name == "enterprise1-exact") return Kind::kEnterprise1;
  if (name == "multiperiod-t4") return Kind::kMultiPeriod;
  if (name == "federal-heuristic") return Kind::kFederal;
  throw std::invalid_argument("unknown solver workload " + name);
}

/// Set-ups repeated per run (their median is setup_s), and how many run
/// between two probe readings: a block is a few milliseconds of work, so
/// even the ~80 us multiperiod-t4 set-up is paired with nearby readings.
struct SetupPlan {
  int reps;
  int block;
};

SetupPlan setup_plan(Kind kind) {
  switch (kind) {
    case Kind::kEnterprise1: return {31, 2};
    case Kind::kMultiPeriod: return {1001, 50};
    case Kind::kFederal: return {7, 1};
  }
  return {1, 1};
}

PlannerOptions planner_options(Kind kind) {
  PlannerOptions options;
  switch (kind) {
    case Kind::kEnterprise1:
      // A node budget instead of a time limit: the tree, plan and bound are
      // then identical on any host.
      options.engine = PlannerOptions::Engine::kExact;
      options.milp.search.max_nodes = 1000;
      options.milp.search.time_limit_ms = 0;
      break;
    case Kind::kMultiPeriod:
      options.engine = PlannerOptions::Engine::kExact;
      break;
    case Kind::kFederal:
      options.engine = PlannerOptions::Engine::kHeuristic;
      options.compute_lower_bound = true;
      break;
  }
  return options;
}

etransform::TrafficCurveSpec multi_period_curve() {
  etransform::TrafficCurveSpec spec;
  spec.shape = etransform::TrafficCurveSpec::Shape::kDiurnal;
  spec.num_periods = 4;
  spec.trough_multiplier = 0.25;
  spec.migration_cost_per_server = 0.5;
  return spec;
}

/// What one set-up produces. Not movable: the CostModel points into
/// `instance`.
struct Prepared {
  ConsolidationInstance instance;
  PlanningHorizon horizon;
  std::unique_ptr<CostModel> model;
  /// apply_period(instance, horizon, t) per period, for the checks.
  std::vector<ConsolidationInstance> periods;
};

/// The user's path to a plannable model: generate the estate, round-trip it
/// through the .etf text format, price it, and (multi-period) build the
/// demand horizon through its .etfh text format.
std::unique_ptr<Prepared> prepare(Kind kind, SpanRecorder& spans) {
  auto p = std::make_unique<Prepared>();
  ConsolidationInstance generated;
  {
    const ScopedSpan span(spans, "datagen.generate");
    switch (kind) {
      case Kind::kEnterprise1:
        generated = etransform::make_enterprise1();
        break;
      case Kind::kMultiPeriod:
        generated = etransform::make_rightsizing_estate({});
        break;
      case Kind::kFederal:
        generated = etransform::make_federal();
        break;
    }
  }
  std::string text;
  {
    const ScopedSpan span(spans, "model.etf_write");
    text = etransform::write_instance(generated);
  }
  {
    const ScopedSpan span(spans, "model.etf_parse");
    p->instance = etransform::parse_instance(text);
  }
  {
    const ScopedSpan span(spans, "cost.model_build");
    p->model = std::make_unique<CostModel>(p->instance);
  }
  if (kind == Kind::kMultiPeriod) {
    const ScopedSpan span(spans, "model.horizon_build");
    const PlanningHorizon curve =
        etransform::make_traffic_curve(multi_period_curve());
    p->horizon = etransform::parse_horizon(
        etransform::write_horizon(curve, p->instance), p->instance);
  }
  return p;
}

/// The numbers that must repeat exactly on every call.
struct Signature {
  double objective = 0.0;
  double lower_bound = 0.0;
  double nodes = 0.0;
  double pivots = 0.0;
  double refactorizations = 0.0;
  double seeds_raced = 0.0;

  bool operator==(const Signature& o) const {
    const auto same = [](double a, double b) {
      return a == b || (std::isnan(a) && std::isnan(b));
    };
    return same(objective, o.objective) && same(lower_bound, o.lower_bound) &&
           nodes == o.nodes && pivots == o.pivots &&
           refactorizations == o.refactorizations &&
           seeds_raced == o.seeds_raced;
  }
};

Signature signature_of(const PlannerReport& report) {
  Signature s;
  s.objective = report.objective();
  s.lower_bound = report.lower_bound;
  s.nodes = report.milp_nodes;
  s.pivots = report.stats.deep_metric("pivots");
  s.refactorizations = report.stats.deep_metric("refactorizations");
  s.seeds_raced = report.stats.deep_metric("seeds_raced");
  return s;
}

/// Layer counters of one plan() call, read from its stats tree.
json::Value layer_counters(const PlannerReport& report) {
  const SolveStats& st = report.stats;
  const auto metric_at = [&st](const char* path, const char* key) {
    const SolveStats* node = st.find(path);
    return node == nullptr ? 0.0 : node->metric(key);
  };
  json::Value out = json::Value::object();
  out.set("planner.variables", num(st.deep_metric("variables")));
  out.set("planner.rows", num(st.deep_metric("rows")));
  out.set("planner.seeds_raced", num(st.deep_metric("seeds_raced")));
  out.set("lp.calls", num(st.deep_metric("calls")));
  out.set("lp.pivots", num(st.deep_metric("pivots")));
  out.set("lp.dual_pivots", num(st.deep_metric("dual_pivots")));
  out.set("lp.bound_flips", num(st.deep_metric("bound_flips")));
  out.set("lp.refactorizations", num(st.deep_metric("refactorizations")));
  out.set("lp.eta_entries", num(st.deep_metric("eta_entries")));
  out.set("lp.degenerate_pivots", num(st.deep_metric("degenerate_pivots")));
  out.set("lp.pricing_full_scans", num(st.deep_metric("pricing_full_scans")));
  out.set("lp.node_pivots", num(metric_at("branch_and_bound.simplex",
                                          "pivots")));
  out.set("milp.nodes", num(report.milp_nodes));
  out.set("milp.incumbents", num(metric_at("branch_and_bound",
                                           "incumbents")));
  out.set("milp.strong_branch_probes",
          num(st.deep_metric("strong_branch_probes")));
  out.set("milp.numerical_nodes", num(st.deep_metric("numerical_nodes")));
  out.set("milp.cuts_generated", num(metric_at("branch_and_bound.cuts",
                                               "generated")));
  out.set("milp.cuts_applied", num(metric_at("branch_and_bound.cuts",
                                             "applied")));
  return out;
}

/// Lays the stats tree out as spans under the plan() span. The tree holds
/// durations, not start times, so children are placed back to back from
/// their parent's start; self times are unaffected by the placement.
void add_stats_spans(SpanRecorder& spans, const SolveStats& node,
                     const std::string& path, std::uint64_t parent,
                     double start_us, std::uint64_t request) {
  double cursor = start_us;
  for (const SolveStats& child : node.children) {
    Span span;
    span.id = spans.next_id();
    span.parent = parent;
    span.request = request;
    span.name = path + "/" + child.name;
    span.start_us = cursor;
    span.end_us = cursor + child.wall_ms * 1000.0;
    add_stats_spans(spans, child, span.name, span.id, cursor, request);
    cursor = span.end_us;
    spans.add(std::move(span));
  }
}

/// Everything a correct plan must satisfy, as a list of violations.
std::vector<std::string> problems_of(Kind kind, const Prepared& p,
                                     const PlannerReport& report) {
  std::vector<std::string> out;
  const double cost = report.objective();
  if (!(report.lower_bound <= cost * (1.0 + 1e-9))) {
    out.push_back("lower bound missing or above plan cost");
  }
  if (kind == Kind::kMultiPeriod) {
    if (!report.proven_optimal) out.push_back("not proven optimal");
    if (std::abs(cost - kMultiPeriodOptimum) > 1e-6 * kMultiPeriodOptimum) {
      out.push_back("plan cost " + std::to_string(cost) + " != 546");
    }
    if (report.multi.periods.size() != p.periods.size()) {
      out.push_back("wrong number of periods");
      return out;
    }
    for (std::size_t t = 0; t < p.periods.size(); ++t) {
      const auto v = etransform::check_plan(p.periods[t],
                                            report.multi.periods[t]);
      if (!v.empty()) out.push_back("period " + std::to_string(t) + ": " + v[0]);
    }
    return out;
  }
  const auto v = etransform::check_plan(p.instance, report.plan);
  if (!v.empty()) out.push_back("check_plan: " + v[0]);
  etransform::Plan repriced = report.plan;
  p.model->price_plan(repriced);
  if (std::abs(repriced.cost.total() - cost) >
      1e-6 * std::max(1.0, std::abs(cost))) {
    out.push_back("re-priced cost differs from plan_cost");
  }
  return out;
}

struct CallRecord {
  int thread = 0;
  double start_us = 0.0;
  double wall_ms = 0.0;
  double probe_ms = 0.0;
  bool traced = false;
  json::Value counters;
};

/// Shared state of the measuring threads.
struct Measurement {
  std::mutex mu;
  std::vector<CallRecord> calls;
  bool have_reference = false;
  Signature reference;
  json::Value quality;
};

/// Records one finished call and checks its answer.
/// A traced call's stats tree goes under its plan() span `plan_span`.
void record_call(Kind kind, const Prepared& p, const RunArgs& args,
                 const PlannerReport& report, CallRecord record,
                 std::uint64_t plan_span, std::uint64_t request,
                 SpanRecorder& spans, Checks& checks, Measurement& m) {
  if (record.traced) {
    record.counters = layer_counters(report);
    add_stats_spans(spans, report.stats, "plan", plan_span, record.start_us,
                    request);
  }

  std::vector<std::string> problems = problems_of(kind, p, report);
  const Signature sig = signature_of(report);
  {
    const std::lock_guard<std::mutex> lock(m.mu);
    if (!m.have_reference) {
      m.have_reference = true;
      m.reference = sig;
      m.quality = json::Value::object();
      m.quality.set("plan_cost", num(report.objective()));
      m.quality.set("lower_bound", num(report.lower_bound));
      m.quality.set("proven_optimal",
                    json::Value::boolean(report.proven_optimal));
    } else if (!(sig == m.reference)) {
      problems.push_back("cost, bound or solver counters differ between "
                         "identical calls");
    }
    m.calls.push_back(std::move(record));
  }
  checks.expect(problems.empty(),
                problems.empty() ? "" : args.workload + ": " + problems[0]);
}

/// Lock-step rounds of the measuring threads: all threads probe, meet, run
/// one plan() each, and meet again. Probes therefore never overlap the
/// program's work, so nothing the program does (its memory traffic, say)
/// can move them. The completion step decides whether another round starts.
class Rounds {
 public:
  Rounds(int threads, double deadline_us)
      : deadline_us_(deadline_us), sync_(threads, Decide{this}) {}

  /// Waits for every thread; returns whether the run goes on.
  bool meet() {
    sync_.arrive_and_wait();
    return go_.load();
  }

 private:
  struct Decide {
    Rounds* rounds;
    void operator()() noexcept {
      rounds->go_.store(now_us() < rounds->deadline_us_);
    }
  };

  const double deadline_us_;
  std::atomic<bool> go_{true};
  std::barrier<Decide> sync_;
};

void measure_thread(Kind kind, const Prepared& p, const RunArgs& args,
                    int index, int cpu, Rounds& rounds,
                    std::atomic<std::uint64_t>& next_request,
                    SpanRecorder& spans, Checks& checks, Measurement& m) {
  pin_current_thread(cpu);
  HostProbe probe;
  const etransform::EtransformPlanner planner(planner_options(kind));
  const etransform::PlanInput input(*p.model, p.horizon);
  double probe_before = probe.run_ms();
  for (int iter = 0; rounds.meet(); ++iter) {
    // The traced run alternates traced and untraced calls on every thread,
    // so trace.overhead_pct compares the two under the same host regime.
    const bool traced = args.trace && (iter + index) % 2 == 0;
    const std::uint64_t request = ++next_request;
    etransform::SolveContext ctx;
    PlannerReport report;
    std::string error;
    std::uint64_t plan_span = 0;
    double t0 = now_us();
    try {
      if (traced) {
        const ScopedSpan span(spans, "plan", 0, request);
        plan_span = span.id();
        t0 = span.start_us();
        report = planner.plan(input, ctx);
      } else {
        report = planner.plan(input, ctx);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double t1 = now_us();
    (void)rounds.meet();  // every call of the round has ended
    const double probe_after = probe.run_ms();
    if (error.empty()) {
      try {
        CallRecord record;
        record.thread = index;
        record.start_us = t0;
        record.wall_ms = (t1 - t0) / 1000.0;
        record.probe_ms = 0.5 * (probe_before + probe_after);
        record.traced = traced;
        record_call(kind, p, args, report, std::move(record), plan_span,
                    request, spans, checks, m);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (!error.empty()) checks.expect(false, args.workload + ": " + error);
    probe_before = probe_after;
  }
}

/// Direct calls into the heuristic layers the Federal plan() races
/// internally, so the traced run can attribute its unattributed time.
void trace_federal_layers(const Prepared& p, SpanRecorder& spans) {
  const CostModel& model = *p.model;
  etransform::LocalSearchOptions light;  // the planner's seed-race polish
  light.enable_swaps = false;
  light.max_passes = 8;
  for (int rep = 0; rep < 3; ++rep) {
    etransform::Plan greedy;
    {
      const ScopedSpan span(spans, "baselines.plan_greedy");
      etransform::GreedyOptions options;
      options.volume_aware = true;
      greedy = etransform::plan_greedy(model, false, options);
    }
    {
      const ScopedSpan span(spans, "baselines.plan_manual");
      (void)etransform::plan_manual(model, false);
    }
    {
      const ScopedSpan span(spans, "planner.improve_plan");
      etransform::improve_plan(model, greedy, light);
    }
    {
      const ScopedSpan span(spans, "planner.lagrangian_lower_bound");
      (void)etransform::lagrangian_lower_bound(model);
    }
  }
}

}  // namespace

bool is_solver_workload(const std::string& name) {
  return name == "enterprise1-exact" || name == "multiperiod-t4" ||
         name == "federal-heuristic";
}

json::Value run_solver_workload(const RunArgs& args) {
  const Kind kind = kind_of(args.workload);
  const std::vector<int> cpus = allowed_cpus();
  const int threads =
      std::min<int>(kMaxThreads, static_cast<int>(cpus.size()));
  SpanRecorder spans(args.trace);
  Checks checks;
  HostProbe probe;
  json::Value out = json::Value::object();
  json::Value context = base_context(args, threads);
  context.set("engine", str(kind == Kind::kFederal ? "heuristic" : "exact"));
  context.set("bnb_threads", num(1));
  out.set("probe_start_ms", num(probe.run_ms()));

  // Set-up, repeated on one pinned CPU; the last one is kept for the
  // measurement.
  pin_current_thread(cpus.front());
  std::unique_ptr<Prepared> prepared;
  const SetupPlan plan = setup_plan(kind);
  out.set("setup", timed_setup(probe, plan.reps, plan.block, [&] {
            prepared = prepare(kind, spans);
          }));
  for (int t = 0; t < prepared->horizon.num_periods(); ++t) {
    prepared->periods.push_back(
        etransform::apply_period(prepared->instance, prepared->horizon, t));
  }

  Measurement m;
  std::atomic<std::uint64_t> next_request{0};
  Rounds rounds(threads, now_us() + args.seconds * 1e6);
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        measure_thread(kind, *prepared, args, i,
                       cpus[static_cast<std::size_t>(i)], rounds, next_request,
                       spans, checks, m);
      });
    }
  }
  if (args.trace && kind == Kind::kFederal) {
    trace_federal_layers(*prepared, spans);
  }

  json::Value calls = json::Value::array();
  for (CallRecord& c : m.calls) {
    json::Value row = json::Value::object();
    row.set("thread", num(c.thread));
    row.set("start_us", num(c.start_us));
    row.set("wall_ms", num(c.wall_ms));
    row.set("probe_ms", num(c.probe_ms));
    row.set("traced", json::Value::boolean(c.traced));
    if (c.traced) row.set("counters", std::move(c.counters));
    calls.push(std::move(row));
  }
  out.set("calls", std::move(calls));
  out.set("quality", m.have_reference ? m.quality : json::Value::object());
  out.set("probe_end_ms", num(probe.run_ms()));
  out.set("peak_rss_mb", num(peak_rss_mb()));
  out.set("checks", checks.to_json());
  out.set("context", std::move(context));
  out.set("spans", spans.to_json());
  return out;
}

}  // namespace perfbench
