// etransform_cli — the complete Fig. 5 pipeline as a command-line tool.
//
//   etransform_cli generate <enterprise1|florida|federal|rightsizing> [-o out.etf]
//       Export one of the paper's datasets as an .etf instance file.
//   etransform_cli validate <in.etf>
//       Parse + validate an instance; print its Table II-style summary.
//   etransform_cli asis <in.etf>
//       Price the current ("as-is") estate.
//   etransform_cli plan <in.etf> [--dr] [--omega X] [--engine auto|exact|
//       heuristic] [--no-economies] [--lp-out model.lp] [--time-limit ms]
//       [--cuts on|off|gomory|cover] [--cut-rounds N]
//       [--branching pseudocost|most-fractional]
//       [--lp-algorithm primal|dual|auto] [--no-presolve]
//       [--trace] [--stats-json stats.json]
//       Compute the "to-be" plan and print the full report. --lp-out also
//       writes the MILP in CPLEX LP format (feed it to lp_tool, or to an
//       actual CPLEX, to audit the optimization engine), over the same
//       horizon and placement lock as the plan; under --dr the file holds
//       the joint shared-sizing model. --cuts / --cut-rounds / --branching
//       / --lp-algorithm tune the exact engine's root cutting-plane loop,
//       branching rule, and LP pivoting algorithm (milp::SolverOptions).
//       --trace streams solver events (presolve reductions, simplex phases,
//       B&B incumbents and bound moves) to stderr as they happen;
//       --stats-json dumps the hierarchical SolveStats tree (per-phase wall
//       times, pivot/node counters, incumbent/bound trace) as JSON.
//
//   Concurrency (SolveFarm):
//       --jobs N           solve on N worker threads: scenario sweeps and
//                          the sensitivity scan fan out across a SolveService
//       --threads N        in-solve parallelism: run each exact solve's
//                          strong-branching probes on N pool threads
//                          (composes with --jobs; 0 = hardware); the
//                          explored tree is identical at every value
//       --sweep key=v1,v2  run a what-if sweep instead of a single plan; keys
//                          are omega, dr-cost, latency-penalty, cuts
//                          (races the four cut configurations) and horizon
//                          (period counts; repeatable, scenarios run in the
//                          order given)
//       --race             race the exact and heuristic engines; the first
//                          finisher cancels the other
//
//   Multi-period planning (time-expanded formulation, wire api_version 2):
//       --horizon N        plan over N demand periods instead of the single
//                          static snapshot
//       --traffic-curve S  diurnal|seasonal demand cycle between --trough
//                          and --peak multipliers (default 0.4 .. 1.0)
//       --migration-cost R charge R per server moved between periods
//       --static-horizon   lock one placement across all periods (the "best
//                          static plan over the horizon" competitor)
//       --online V         also play the Albers-Quedenfeld online
//                          right-sizing game (lazy|prob) and report its
//                          total against the offline plan
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "baselines/online_rightsizing.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "lp/lp_format.h"
#include "model/instance_io.h"
#include "planner/etransform_planner.h"
#include "planner/formulation.h"
#include "planner/migration.h"
#include "report/report.h"
#include "report/sensitivity.h"
#include "server/api_json.h"
#include "service/scenario_set.h"
#include "service/solve_farm.h"
#include "telemetry/artifacts.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

using namespace etransform;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  etransform_cli generate <enterprise1|florida|federal|rightsizing> [-o out.etf]\n"
      "  etransform_cli validate <in.etf>\n"
      "  etransform_cli asis <in.etf>\n"
      "  etransform_cli plan <in.etf> [--dr] [--omega X] [--sensitivity]\n"
      "      [--engine auto|exact|heuristic] [--no-economies]\n"
      "      [--lp-out model.lp] [--time-limit ms]\n"
      "      [--cuts on|off|gomory|cover] [--cut-rounds N]\n"
      "      [--branching pseudocost|most-fractional]\n"
      "      [--lp-algorithm primal|dual|auto] [--no-presolve]\n"
      "      [--trace] [--stats-json stats.json] [--result-json out.json]\n"
      "      [--telemetry-dir DIR]\n"
      "      [--migrate] [--wan-budget megabits] [--max-moves N]\n"
      "      [--horizon N] [--traffic-curve diurnal|seasonal]\n"
      "      [--peak X] [--trough X] [--migration-cost R]\n"
      "      [--static-horizon] [--online lazy|prob]\n"
      "      [--jobs N] [--threads N]\n"
      "      [--sweep omega|dr-cost|latency-penalty|cuts|horizon=...]\n"
      "      [--race]\n"
      "  --cuts selects the root cutting-plane configuration for exact\n"
      "  solves (default on = Gomory + cover); --cut-rounds caps separation\n"
      "  rounds; --branching picks the variable-selection rule (default\n"
      "  pseudocost, reliability-initialized by strong branching);\n"
      "  --lp-algorithm picks the LP engine's pivoting rule (default auto:\n"
      "  dual simplex on dual-feasible warm restarts — node re-solves and\n"
      "  cut rounds — primal otherwise; primal/dual force one algorithm).\n"
      "  --jobs runs N *solves* concurrently (SolveFarm: sweeps, races, the\n"
      "  sensitivity scan); --threads runs each exact solve's\n"
      "  strong-branching probes on N pool threads (they compose: 4 jobs x\n"
      "  8 threads = up to 32 LPs in flight); the explored tree, node count,\n"
      "  and iterations are identical at any --threads, and --threads 0 uses\n"
      "  one thread per hardware thread.\n"
      "  --lp-out writes the MILP over the planned horizon (and\n"
      "  --static-horizon lock) in CPLEX LP format; under --dr the file\n"
      "  holds the joint shared-sizing model, which the planner replaces\n"
      "  with the two-stage method on large instances.\n"
      "  --no-presolve solves the raw formulation. --sweep cuts=all races\n"
      "  the four cut configurations as scenarios (the value list is\n"
      "  ignored). Multi-period planning: --horizon N plans over N demand\n"
      "  periods (uniform at multiplier 1, or following a --traffic-curve\n"
      "  cycle between --trough and --peak); --migration-cost charges R per\n"
      "  server moved between consecutive periods; --static-horizon locks\n"
      "  one placement across every period (the best-static competitor);\n"
      "  --online additionally plays the online right-sizing game (lazy =\n"
      "  deterministic hysteresis, prob = randomized thresholds) and reports\n"
      "  its total against the offline plan. --sweep horizon=4,8 sweeps\n"
      "  period counts, each with a /locked companion scenario.\n"
      "  --telemetry-dir writes trace.json (Chrome Trace Event\n"
      "  Format, open in Perfetto), metrics.prom (Prometheus text\n"
      "  exposition), and stats.json into DIR after the run.\n");
  return 1;
}

ConsolidationInstance load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInputError("cannot open '" + path + "'");
  return parse_instance(in);
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string which = argv[2];
  ConsolidationInstance instance;
  if (which == "enterprise1") instance = make_enterprise1();
  else if (which == "florida") instance = make_florida();
  else if (which == "federal") instance = make_federal();
  else if (which == "rightsizing") instance = make_rightsizing_estate({});
  else return usage();
  std::string out_path = which + ".etf";
  for (int a = 3; a + 1 < argc; ++a) {
    if (std::strcmp(argv[a], "-o") == 0) out_path = argv[a + 1];
  }
  std::ofstream out(out_path);
  if (!out) throw InvalidInputError("cannot write '" + out_path + "'");
  write_instance(instance, out);
  std::printf("wrote %s (%d groups, %d sites, %d servers)\n",
              out_path.c_str(), instance.num_groups(), instance.num_sites(),
              instance.total_servers());
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 3) return usage();
  const ConsolidationInstance instance = load(argv[2]);
  std::printf("%s\nOK\n", render_instance_summary(instance).c_str());
  return 0;
}

int cmd_asis(int argc, char** argv) {
  if (argc < 3) return usage();
  const ConsolidationInstance instance = load(argv[2]);
  const CostModel model(instance);
  std::printf("as-is monthly cost (%d latency violations):\n%s",
              model.as_is_latency_violations(),
              render_cost_breakdown(model.as_is_cost()).c_str());
  return 0;
}

/// The multi-period flags, shared by the plan and sweep paths.
struct HorizonCli {
  int periods = 0;             // --horizon (0 = static unless a curve is set)
  std::string curve_shape;     // --traffic-curve (empty = uniform periods)
  double peak = 1.0;           // --peak
  double trough = 0.4;         // --trough
  Money migration_cost = 0.0;  // --migration-cost

  /// The horizon the flags describe; `periods_override` (the horizon= sweep
  /// values) wins over --horizon when nonzero. Static when neither a period
  /// count nor a curve was requested.
  [[nodiscard]] PlanningHorizon build(const ConsolidationInstance& instance,
                                      int periods_override = 0) const {
    const int num_periods = periods_override > 0 ? periods_override : periods;
    if (curve_shape.empty()) {
      if (num_periods <= 0) return {};
      return PlanningHorizon::uniform(num_periods, migration_cost);
    }
    TrafficCurveSpec spec;
    spec.shape = curve_shape == "seasonal"
                     ? TrafficCurveSpec::Shape::kSeasonal
                     : TrafficCurveSpec::Shape::kDiurnal;
    if (num_periods > 0) spec.num_periods = num_periods;
    spec.peak_multiplier = peak;
    spec.trough_multiplier = trough;
    spec.migration_cost_per_server = migration_cost;
    spec.num_groups = instance.num_groups();
    return make_traffic_curve(spec);
  }
};

std::vector<double> parse_value_list(const std::string& csv) {
  std::vector<double> values;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) values.push_back(std::stod(item));
  if (values.empty()) throw InvalidInputError("empty sweep value list");
  return values;
}

/// Builds the ScenarioSet for the --sweep specs, in the order given.
ScenarioSet build_sweep_set(const ConsolidationInstance& instance,
                            const PlannerOptions& base,
                            const std::vector<std::string>& specs,
                            const HorizonCli& horizon_flags) {
  ScenarioSet set(instance);
  for (const std::string& spec : specs) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      throw InvalidInputError("--sweep expects key=v1,v2,... (got '" + spec +
                              "')");
    }
    const std::string key = spec.substr(0, eq);
    if (key == "cuts") {
      // The cut sweep enumerates the four fixed configurations; the value
      // list only marks the spec as present.
      set.add_cut_config_sweep(base);
      continue;
    }
    const std::vector<double> values = parse_value_list(spec.substr(eq + 1));
    if (key == "omega") {
      set.add_omega_sweep(values, base);
    } else if (key == "dr-cost") {
      set.add_dr_cost_sweep(values, base);
    } else if (key == "latency-penalty") {
      set.add_latency_penalty_sweep(values, base);
    } else if (key == "horizon") {
      // Values are period counts; each expands the --traffic-curve flags (or
      // a uniform timeline) at that length, plus a /locked companion so the
      // sweep reports the right-sizing payoff directly.
      ScenarioSpec horizon_spec;
      horizon_spec.base = base;
      horizon_spec.locked_horizon_variants = true;
      for (const double value : values) {
        const int num_periods = static_cast<int>(value);
        if (num_periods < 1 || value != static_cast<double>(num_periods)) {
          throw InvalidInputError(
              "--sweep horizon= values must be positive period counts");
        }
        ScenarioSpec::HorizonCase horizon_case;
        horizon_case.name =
            (horizon_flags.curve_shape.empty()
                 ? "T"
                 : horizon_flags.curve_shape + "-T") +
            std::to_string(num_periods);
        horizon_case.horizon = horizon_flags.build(instance, num_periods);
        horizon_spec.horizons.push_back(std::move(horizon_case));
      }
      set.add_spec(horizon_spec);
    } else {
      throw InvalidInputError(
          "unknown sweep key '" + key +
          "' (expected omega, dr-cost, latency-penalty, cuts, or horizon)");
    }
  }
  return set;
}

/// Flushes telemetry to `dir` and reports where it went (run epilogue shared
/// by the plan/sweep/race paths). No-op when `dir` is empty.
void flush_telemetry(const std::string& dir,
                     const telemetry::TraceRecorder* recorder,
                     const telemetry::MetricsRegistry* registry,
                     const std::string& stats_json) {
  if (dir.empty()) return;
  telemetry::ArtifactPaths paths;
  std::string error;
  if (!telemetry::write_run_artifacts(dir, recorder, registry, stats_json,
                                      &paths, &error)) {
    throw InvalidInputError("--telemetry-dir: " + error);
  }
  std::fprintf(stderr, "telemetry written to %s (%zu spans, %llu dropped)\n",
               dir.c_str(), recorder != nullptr ? recorder->recorded() : 0,
               static_cast<unsigned long long>(
                   recorder != nullptr ? recorder->dropped() : 0));
}

int run_sweep(const ConsolidationInstance& instance,
              const PlannerOptions& options,
              const std::vector<std::string>& specs,
              const HorizonCli& horizon_flags, int jobs, double time_limit_ms,
              const std::string& telemetry_dir) {
  const ScenarioSet set =
      build_sweep_set(instance, options, specs, horizon_flags);
  // Declared before the service: workers may still touch the recorder while
  // the service drains in its destructor.
  telemetry::TraceRecorder recorder;
  telemetry::MetricsRegistry registry;
  SolveService service(jobs);
  // A signal cancels every queued and running scenario; the farm drains and
  // partial results are reported rather than dying mid-solve.
  ShutdownSignal shutdown;
  shutdown.on_signal([&service] { service.cancel_all(); });
  if (!telemetry_dir.empty()) {
    recorder.set_current_thread_name("main");
    service.attach_telemetry(&recorder, &registry);
  }
  std::printf("sweeping %zu scenarios on %d worker thread%s...\n", set.size(),
              service.num_threads(), service.num_threads() == 1 ? "" : "s");
  const auto results = run_scenarios(set, service, time_limit_ms);
  std::printf("%s", render_scenario_results(results).c_str());
  if (!telemetry_dir.empty()) {
    // stats.json: one entry per scenario, in scenario order.
    std::string stats_json = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) stats_json += ',';
      stats_json += results[i].failed ? "null" : results[i].report.stats.to_json();
    }
    stats_json += ']';
    flush_telemetry(telemetry_dir, &recorder, &registry, stats_json);
  }
  return 0;
}

int run_race(const ConsolidationInstance& instance,
             const PlannerOptions& options, int jobs, double time_limit_ms,
             const std::string& telemetry_dir) {
  telemetry::TraceRecorder recorder;
  telemetry::MetricsRegistry registry;
  SolveService service(jobs);
  ShutdownSignal shutdown;
  shutdown.on_signal([&service] { service.cancel_all(); });
  if (!telemetry_dir.empty()) {
    recorder.set_current_thread_name("main");
    service.attach_telemetry(&recorder, &registry);
  }
  const RaceOutcome outcome =
      race_portfolio(service, instance, options, time_limit_ms);
  std::printf("portfolio race: %s wins (first finisher: %s)\n",
              outcome.winner_engine.c_str(), outcome.first_finisher.c_str());
  std::printf("  exact leg    : %-9s %8.1f ms\n",
              to_string(outcome.exact_state), outcome.exact_ms);
  std::printf("  heuristic leg: %-9s %8.1f ms\n",
              to_string(outcome.heuristic_state), outcome.heuristic_ms);
  std::printf("%s", render_plan_summary(instance, outcome.best.plan).c_str());
  if (!telemetry_dir.empty()) {
    flush_telemetry(telemetry_dir, &recorder, &registry,
                    outcome.best.stats.to_json());
  }
  return 0;
}

int cmd_plan(int argc, char** argv) {
  if (argc < 3) return usage();
  const ConsolidationInstance instance = load(argv[2]);

  PlannerOptions options;
  std::string lp_out;
  std::string stats_json_out;
  std::string result_json_out;
  std::string telemetry_dir;
  bool trace = false;
  bool sensitivity = false;
  bool migrate = false;
  bool race = false;
  bool lock_placement = false;
  int jobs = 1;
  double time_limit_ms = 0.0;
  std::string online;
  std::vector<std::string> sweep_specs;
  MigrationLimits migration_limits;
  HorizonCli horizon_flags;
  for (int a = 3; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--sensitivity") {
      sensitivity = true;
    } else if (flag == "--jobs" && a + 1 < argc) {
      jobs = std::stoi(argv[++a]);
      if (jobs < 1) return usage();
    } else if (flag == "--threads" && a + 1 < argc) {
      options.milp.search.threads = std::stoi(argv[++a]);
    } else if (flag == "--sweep" && a + 1 < argc) {
      sweep_specs.push_back(argv[++a]);
    } else if (flag == "--race") {
      race = true;
    } else if (flag == "--migrate") {
      migrate = true;
    } else if (flag == "--wan-budget" && a + 1 < argc) {
      migration_limits.wan_budget_megabits = std::stod(argv[++a]);
      migrate = true;
    } else if (flag == "--max-moves" && a + 1 < argc) {
      migration_limits.max_moves = std::stoi(argv[++a]);
      migrate = true;
    } else if (flag == "--horizon" && a + 1 < argc) {
      horizon_flags.periods = std::stoi(argv[++a]);
      if (horizon_flags.periods < 1) return usage();
    } else if (flag == "--traffic-curve" && a + 1 < argc) {
      horizon_flags.curve_shape = argv[++a];
      if (horizon_flags.curve_shape != "diurnal" &&
          horizon_flags.curve_shape != "seasonal") {
        return usage();
      }
    } else if (flag == "--peak" && a + 1 < argc) {
      horizon_flags.peak = std::stod(argv[++a]);
    } else if (flag == "--trough" && a + 1 < argc) {
      horizon_flags.trough = std::stod(argv[++a]);
    } else if (flag == "--migration-cost" && a + 1 < argc) {
      horizon_flags.migration_cost = std::stod(argv[++a]);
    } else if (flag == "--static-horizon") {
      lock_placement = true;
    } else if (flag == "--online" && a + 1 < argc) {
      online = argv[++a];
      if (online != "lazy" && online != "prob") return usage();
    } else if (flag == "--dr") {
      options.enable_dr = true;
    } else if (flag == "--no-economies") {
      options.economies_of_scale = false;
    } else if (flag == "--omega" && a + 1 < argc) {
      options.business_impact_omega = std::stod(argv[++a]);
    } else if (flag == "--engine" && a + 1 < argc) {
      const std::string engine = argv[++a];
      if (engine == "exact") {
        options.engine = PlannerOptions::Engine::kExact;
      } else if (engine == "heuristic") {
        options.engine = PlannerOptions::Engine::kHeuristic;
      } else if (engine != "auto") {
        return usage();
      }
    } else if (flag == "--lp-out" && a + 1 < argc) {
      lp_out = argv[++a];
    } else if (flag == "--time-limit" && a + 1 < argc) {
      time_limit_ms = std::stod(argv[++a]);
      // The MILP-internal budget too, so a plain `plan` (no SolveFarm job
      // wrapping it in a deadline context) still honors the flag.
      options.milp.search.time_limit_ms = static_cast<int>(time_limit_ms);
    } else if (flag == "--cuts" && a + 1 < argc) {
      const std::string mode = argv[++a];
      if (mode == "on") {
        options.milp.cuts.enable = true;
        options.milp.cuts.gomory = true;
        options.milp.cuts.cover = true;
      } else if (mode == "off") {
        options.milp.cuts.enable = false;
      } else if (mode == "gomory") {
        options.milp.cuts.enable = true;
        options.milp.cuts.gomory = true;
        options.milp.cuts.cover = false;
      } else if (mode == "cover") {
        options.milp.cuts.enable = true;
        options.milp.cuts.gomory = false;
        options.milp.cuts.cover = true;
      } else {
        return usage();
      }
    } else if (flag == "--cut-rounds" && a + 1 < argc) {
      options.milp.cuts.max_rounds = std::stoi(argv[++a]);
    } else if (flag == "--branching" && a + 1 < argc) {
      const std::string rule = argv[++a];
      if (rule == "pseudocost") {
        options.milp.branching.rule =
            milp::BranchingOptions::Rule::kPseudocost;
      } else if (rule == "most-fractional") {
        options.milp.branching.rule =
            milp::BranchingOptions::Rule::kMostFractional;
      } else {
        return usage();
      }
    } else if (flag == "--lp-algorithm" && a + 1 < argc) {
      const std::string algorithm = argv[++a];
      if (algorithm == "primal") {
        options.milp.lp.mode = lp::SolveMode::kPrimal;
      } else if (algorithm == "dual") {
        options.milp.lp.mode = lp::SolveMode::kDual;
      } else if (algorithm == "auto") {
        options.milp.lp.mode = lp::SolveMode::kAuto;
      } else {
        return usage();
      }
    } else if (flag == "--no-presolve") {
      options.milp.presolve.enable = false;
    } else if (flag == "--trace") {
      trace = true;
    } else if (flag == "--stats-json" && a + 1 < argc) {
      stats_json_out = argv[++a];
    } else if (flag == "--result-json" && a + 1 < argc) {
      result_json_out = argv[++a];
    } else if (flag == "--telemetry-dir" && a + 1 < argc) {
      telemetry_dir = argv[++a];
    } else {
      return usage();
    }
  }

  // Solver events go through the logging layer (serialized, thread-tagged)
  // rather than raw stderr, so traced concurrent runs stay line-atomic.
  if (trace && log_level() > LogLevel::kInfo) set_log_level(LogLevel::kInfo);

  if (!sweep_specs.empty()) {
    return run_sweep(instance, options, sweep_specs, horizon_flags, jobs,
                     time_limit_ms, telemetry_dir);
  }
  if (race) {
    return run_race(instance, options, jobs, time_limit_ms, telemetry_dir);
  }

  const PlanningHorizon horizon = horizon_flags.build(instance);
  if (horizon.is_static()) {
    if (lock_placement) {
      throw InvalidInputError(
          "--static-horizon requires --horizon or --traffic-curve");
    }
    if (!online.empty()) {
      throw InvalidInputError(
          "--online requires --horizon or --traffic-curve");
    }
  }
  if (!online.empty() && options.enable_dr) {
    throw InvalidInputError(
        "--online is a non-DR right-sizing baseline (drop --dr)");
  }

  const CostModel model(instance);
  if (!lp_out.empty()) {
    FormulationOptions formulation_options;
    formulation_options.enable_dr = options.enable_dr;
    formulation_options.business_impact_omega =
        options.business_impact_omega;
    formulation_options.economies_of_scale = options.economies_of_scale;
    formulation_options.backup_sizing = BackupSizing::kSharedJoint;
    formulation_options.horizon = &horizon;
    formulation_options.lock_placement = lock_placement;
    const Formulation formulation =
        build_formulation(model, formulation_options);
    std::ofstream out(lp_out);
    if (!out) throw InvalidInputError("cannot write '" + lp_out + "'");
    lp::write_lp(formulation.model, out);
    std::fprintf(stderr, "MILP written to %s (%d vars, %d rows)\n",
                 lp_out.c_str(), formulation.model.num_variables(),
                 formulation.model.num_constraints());
  }

  SolveContext ctx;
  telemetry::TraceRecorder recorder;
  telemetry::MetricsRegistry registry;
  if (!telemetry_dir.empty()) {
    recorder.set_current_thread_name("main");
    ctx.set_trace(&recorder);
    ctx.set_metrics(&registry);
  }
  if (trace) {
    ctx.events.on_presolve_reduction = [](const PresolveReductionEvent& e) {
      ET_LOG(kInfo) << "[trace] presolve " << e.rule << ": -" << e.rows_removed
                    << " rows -" << e.vars_removed << " vars";
    };
    ctx.events.on_simplex_phase = [](const SimplexPhaseEvent& e) {
      ET_LOG(kInfo) << "[trace] simplex phase " << e.phase << " done: "
                    << e.pivots << " pivots, obj " << e.objective;
    };
    ctx.events.on_incumbent = [](const IncumbentEvent& e) {
      ET_LOG(kInfo) << "[trace] incumbent " << e.objective << " at node "
                    << e.node << " (" << e.time_ms << " ms)";
    };
    ctx.events.on_bound_improvement = [](const BoundEvent& e) {
      ET_LOG(kInfo) << "[trace] bound " << e.bound << " (incumbent "
                    << e.incumbent << ") at node " << e.node;
    };
    ctx.events.on_node = [](const NodeEvent& e) {
      if (e.node % 1000 != 0) return;  // keep the stream readable
      ET_LOG(kInfo) << "[trace] node " << e.node << " depth " << e.depth
                    << " relax " << e.relaxation << " bound " << e.best_bound
                    << " open " << e.open_nodes;
    };
  }

  // SIGINT/SIGTERM cancels the SolveContext instead of killing the process
  // mid-solve: the stack unwinds at its next cancellation poll and the
  // best-so-far plan is reported, flagged interrupted. A second signal
  // force-kills.
  ShutdownSignal shutdown;
  shutdown.on_signal([&ctx] { ctx.request_cancel(); });

  const EtransformPlanner planner(options);
  PlanInput input(model);
  input.horizon = horizon;
  input.lock_placement = lock_placement;
  const Stopwatch solve_watch;
  const PlannerReport report = planner.plan(input, ctx);
  const double solve_ms = solve_watch.elapsed_ms();
  flush_telemetry(telemetry_dir, &recorder, &registry,
                  report.stats.to_json());
  if (!stats_json_out.empty()) {
    std::ofstream out(stats_json_out);
    if (!out) {
      throw InvalidInputError("cannot write '" + stats_json_out + "'");
    }
    out << report.stats.to_json() << "\n";
    std::fprintf(stderr, "solve stats written to %s\n",
                 stats_json_out.c_str());
  }
  if (!result_json_out.empty()) {
    // The same result document etransformd serves for this solve — the
    // server e2e check diffs the two.
    std::ofstream out(result_json_out);
    if (!out) {
      throw InvalidInputError("cannot write '" + result_json_out + "'");
    }
    out << server::plan_result_json(instance, report, solve_ms).dump() << "\n";
    std::fprintf(stderr, "result written to %s\n", result_json_out.c_str());
  }
  if (report.is_multi_period()) {
    std::printf("%s", render_multi_period_summary(horizon, report.multi)
                          .c_str());
  } else {
    std::printf("%s", render_plan_summary(instance, report.plan).c_str());
    if (!instance.as_is_placement.empty()) {
      const Money as_is = model.as_is_cost().total();
      std::printf("\nas-is total: %s  ->  to-be total: %s (%.1f%%)\n",
                  format_money_compact(as_is).c_str(),
                  format_money_compact(report.plan.cost.total()).c_str(),
                  (report.plan.cost.total() - as_is) / as_is * 100.0);
    }
  }
  std::printf("solver: %s%s%s\n",
              report.used_exact_solver ? "exact MILP" : "heuristic",
              report.proven_optimal ? " (proven optimal)" : "",
              report.interrupted ? " (interrupted)" : "");
  if (!online.empty()) {
    // The online game never sees period t+1 when placing t — its total is
    // the price of planning without the demand forecast the offline
    // time-expanded solve enjoys.
    OnlineRightSizingOptions online_options;
    online_options.variant =
        online == "prob" ? OnlineRightSizingOptions::Variant::kProbabilistic
                         : OnlineRightSizingOptions::Variant::kLazy;
    const MultiPeriodPlan online_plan =
        plan_online_rightsizing(model, horizon, online_options);
    const Money offline = report.objective();
    std::printf(
        "\nonline right-sizing (%s): total %s vs offline %s (%+.1f%%), "
        "%d group moves (%lld servers)\n",
        to_string(online_options.variant),
        format_money_compact(online_plan.cost.total()).c_str(),
        format_money_compact(offline).c_str(),
        offline > 0.0
            ? (online_plan.cost.total() - offline) / offline * 100.0
            : 0.0,
        online_plan.total_moves,
        static_cast<long long>(online_plan.moved_servers));
  }
  if (trace) {
    std::printf("\n%s", render_solve_stats(report.stats).c_str());
  }
  if (sensitivity) {
    SensitivityReport sensitivity_report;
    if (jobs > 1) {
      ThreadPool pool(jobs);
      sensitivity_report = analyze_sensitivity(model, report.plan, pool);
    } else {
      sensitivity_report = analyze_sensitivity(model, report.plan);
    }
    std::printf("\n%s",
                render_sensitivity(instance, sensitivity_report).c_str());
  }
  if (migrate) {
    const MigrationSchedule schedule =
        schedule_migration(instance, report.plan, migration_limits);
    std::printf("\nmigration: %d waves (lower bound %d)\n",
                schedule.wave_count(), schedule.lower_bound_waves);
    for (std::size_t w = 0; w < schedule.waves.size(); ++w) {
      const auto& wave = schedule.waves[w];
      std::printf("  wave %zu: %zu moves, %.2f Tb", w + 1,
                  wave.groups.size(), wave.data_megabits / 1e6);
      if (!wave.provisioned_sites.empty()) {
        std::printf(", provisions %zu DR pools",
                    wave.provisioned_sites.size());
      }
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarning);
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "validate") return cmd_validate(argc, argv);
    if (command == "asis") return cmd_asis(argc, argv);
    if (command == "plan") return cmd_plan(argc, argv);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
