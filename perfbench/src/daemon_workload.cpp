// daemon-mixed: an in-process etransformd (server::PlannerDaemon) on
// loopback with kWorkers solver workers, driven as a closed loop by
// kClients client threads. The request sequence is a pure function of the
// workload seed:
//   60% cache hits over a working set of kHitSet enterprise1-shaped
//       instances (~44 KB .etf bodies), warmed during set-up;
//   30% misses: heuristic solves of fresh enterprise1-shaped instances, one
//       generated instance per request;
//   10% one-pin /v1/replan deltas (from a fixed pool, see kReplanPins)
//       against an exact base job warmed during set-up, sent with caching
//       off so every replan solves.
// Set-up fills the result cache to its byte budget, so misses evict from
// the first measured request and the run is stationary.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "datagen/generators.h"
#include "model/instance_io.h"
#include "planner/etransform_planner.h"
#include "server/api_json.h"
#include "server/daemon.h"
#include "server/http.h"
#include "server/instance_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using etransform::ConsolidationInstance;
namespace server = etransform::server;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kHitSet = 8;
constexpr double kHitShare = 0.6;
constexpr double kMissShare = 0.3;
/// Result-cache budget beyond the hit set and the base, in miss-sized
/// entries. With 30% misses a hit entry is evicted only when more than this
/// many misses fall between two touches of it: about 0.02% of hits.
constexpr int kMissSlots = 32;
constexpr int kSetupReps = 3;
/// Jobs the daemon retains. Below the default (1024) so the registry, and
/// with it resident memory, reaches its steady state within the first
/// seconds of a run. The replan base is re-submitted (an untimed cache hit
/// or re-solve) before it can age out.
constexpr int kRetainedJobs = 64;
constexpr long long kBaseRefreshRequests = 32;
/// Probe cadence during the measured window. Both clients probe together
/// between requests, while no request is in flight, so the daemon's own
/// work never overlaps (and cannot move) a probe reading.
constexpr double kProbeEveryUs = 500e3;
/// Request bodies replayed through the server's parse/serialize functions
/// in the traced run.
constexpr int kReplaySamples = 24;

enum class Cls { kHit, kMiss, kReplan };

const char* cls_name(Cls c) {
  switch (c) {
    case Cls::kHit: return "hit";
    case Cls::kMiss: return "miss";
    case Cls::kReplan: return "replan";
  }
  return "?";
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Pin {
  int group = 0;
  int site = 0;
};

/// The replan deltas: one-pin moves on the replan base, each re-solved
/// warm through the daemon in 55-75 ms on a 4-CPU guest. The seed picks
/// which of them each replan request carries. The pool is fixed, and its
/// pins alike, because pin difficulty varies widely: across all 120 single
/// pins of this base a warm replan takes 9-290 ms, and three (group 1 to
/// site 1 and group 12 to site 2 cold, group 8 to site 0 warm) run
/// branch-and-bound to its 20,000-node limit (about 5 s). Seeded pins would
/// make the tail latency a property of the seed rather than of the daemon.
constexpr Pin kReplanPins[] = {{3, 0},  {7, 0},  {9, 2},  {11, 0},
                               {12, 0}, {18, 2}, {19, 0}, {23, 0}};
constexpr int kNumReplanPins =
    static_cast<int>(sizeof(kReplanPins) / sizeof(kReplanPins[0]));

/// Request k of the seeded sequence.
struct Planned {
  Cls cls = Cls::kHit;
  int index = 0;              // hit-set entry or replan pin
  std::uint64_t miss_seed = 0;
};

Planned planned_request(std::uint64_t seed, std::uint64_t k) {
  const std::uint64_t h = mix(seed, k);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  Planned p;
  p.cls = u < kHitShare ? Cls::kHit
          : u < kHitShare + kMissShare ? Cls::kMiss
                                       : Cls::kReplan;
  const std::uint64_t h2 = mix(h, 1);
  p.index = static_cast<int>(h2 % (p.cls == Cls::kHit ? kHitSet : kNumReplanPins));
  p.miss_seed = 1'000'000 + mix(h, 2) % 1'000'000'000;
  return p;
}

std::string plan_body(const std::string& etf, const char* engine) {
  json::Value body = json::Value::object();
  body.set("instance", str(etf));
  json::Value options = json::Value::object();
  options.set("engine", str(engine));
  body.set("options", std::move(options));
  return body.dump();
}

/// The fixed exact base of the replan deltas: a 24-group estate that the
/// exact engine proves optimal in about 60 ms. Not seeded, so the base plan
/// reported as plan_cost is the same on every run.
ConsolidationInstance replan_base_instance() {
  etransform::EnterpriseSpec spec;
  spec.name = "replan-base";
  spec.num_groups = 24;
  spec.total_servers = 140;
  spec.num_as_is_centers = 8;
  spec.num_target_sites = 5;
  spec.total_users = 2400.0;
  spec.seed = 42;
  return etransform::make_enterprise(spec);
}

std::string replan_body(long long base_job, const Pin& pin) {
  json::Value entry = json::Value::object();
  entry.set("group", num(pin.group));
  entry.set("site", num(pin.site));
  json::Value pins = json::Value::array();
  pins.push(std::move(entry));
  json::Value delta = json::Value::object();
  delta.set("pin", std::move(pins));
  json::Value body = json::Value::object();
  body.set("base_job", num(static_cast<double>(base_job)));
  body.set("delta", std::move(delta));
  body.set("cache", json::Value::boolean(false));
  return body.dump();
}

/// Outcome of one plan/replan request: the final job document.
struct Outcome {
  bool ok = false;
  std::string error;
  json::Value doc;
  long long job = -1;
};

bool exchange(int port, const std::string& method, const std::string& target,
              const std::string& body, server::ClientResponse& response,
              std::string& error, SpanRecorder& spans, const char* span_name,
              std::uint64_t parent, std::uint64_t request) {
  const ScopedSpan span(spans, span_name, parent, request);
  return server::http_request(port, method, target, body, &response, &error);
}

/// POST, then (unless the answer was a cache hit) follow the job's event
/// stream to its terminal line and GET the result document. No polling
/// sleeps, so latency is not quantized.
Outcome submit_and_wait(int port, const std::string& target,
                        const std::string& body, SpanRecorder& spans,
                        std::uint64_t parent, std::uint64_t request) {
  Outcome out;
  server::ClientResponse response;
  if (!exchange(port, "POST", target, body, response, out.error, spans,
                "http.post", parent, request)) {
    return out;
  }
  if (response.status != 200 && response.status != 202) {
    out.error = "POST " + target + " -> " + std::to_string(response.status);
    return out;
  }
  json::Value doc;
  if (!json::parse(response.body, doc, &out.error) || doc.get("job") == nullptr) {
    out.error = "malformed submit response";
    return out;
  }
  out.job = static_cast<long long>(doc.get("job")->num);
  if (response.status == 202) {
    const std::string job_target = "/v1/jobs/" + std::to_string(out.job);
    server::ClientResponse events;
    if (!exchange(port, "GET", job_target + "/events", "", events, out.error,
                  spans, "http.events", parent, request) ||
        events.status != 200) {
      out.error = "events stream failed";
      return out;
    }
    server::ClientResponse final_doc;
    if (!exchange(port, "GET", job_target, "", final_doc, out.error, spans,
                  "http.get", parent, request) ||
        final_doc.status != 200 || !json::parse(final_doc.body, doc)) {
      out.error = "GET " + job_target + " failed";
      return out;
    }
  }
  const json::Value* state = doc.get("state");
  if (state == nullptr || state->str != "done" || doc.get("result") == nullptr) {
    out.error = "job " + std::to_string(out.job) + " did not finish done";
    return out;
  }
  out.doc = std::move(doc);
  out.ok = true;
  return out;
}

double result_total(const json::Value& doc) {
  const json::Value* result = doc.get("result");
  const json::Value* cost = result == nullptr ? nullptr : result->get("cost");
  const json::Value* total = cost == nullptr ? nullptr : cost->get("total");
  return total == nullptr ? std::nan("") : total->num;
}

double result_number(const json::Value& doc, const char* key) {
  const json::Value* result = doc.get("result");
  const json::Value* v = result == nullptr ? nullptr : result->get(key);
  return v == nullptr ? std::nan("") : v->num;
}

bool same_cost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// A miss answer is a complete plan: every group assigned to a site, and
/// the cost breakdown sums to its total.
std::string miss_problem(const json::Value& doc, int groups) {
  const json::Value* result = doc.get("result");
  const json::Value* rows = result->get("assignments");
  if (rows == nullptr || static_cast<int>(rows->arr.size()) != groups) {
    return "miss: not every group assigned";
  }
  for (const json::Value& row : rows->arr) {
    const json::Value* site = row.get("site");
    if (site == nullptr || site->str.empty()) return "miss: group without site";
  }
  const json::Value* cost = result->get("cost");
  double sum = 0.0;
  for (const char* part : {"space", "power", "labor", "wan", "latency_penalty",
                           "backup_capex", "migration"}) {
    const json::Value* v = cost == nullptr ? nullptr : cost->get(part);
    if (v == nullptr) return std::string("miss: cost lacks ") + part;
    sum += v->num;
  }
  if (!same_cost(sum, result_total(doc))) {
    return "miss: cost breakdown does not sum to total";
  }
  return "";
}

/// Counter or gauge value from a Prometheus text exposition (0 if absent).
double prom_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return 0.0;
}

std::string scrape_metrics(int port) {
  server::ClientResponse response;
  std::string error;
  if (!server::http_request(port, "GET", "/metrics", "", &response, &error)) {
    return "";
  }
  return response.body;
}

/// The workload's inputs, all derived from the seed before set-up starts.
struct Inputs {
  std::vector<ConsolidationInstance> hit_instances;
  std::vector<std::string> hit_bodies;
  std::vector<std::string> filler_bodies;
  ConsolidationInstance base_instance;
  std::string base_body;
  std::size_t cache_bytes = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  std::size_t entry_bytes = 0;
  for (int i = 0; i < kHitSet; ++i) {
    in.hit_instances.push_back(etransform::make_enterprise1(mix(seed, 100 + i)));
    const std::string etf = etransform::write_instance(in.hit_instances.back());
    // Cache entry = canonical text + result document + fixed overhead; the
    // result document is under half the size of the instance text.
    entry_bytes = std::max(entry_bytes, 2 * etf.size());
    in.hit_bodies.push_back(plan_body(etf, "heuristic"));
  }
  for (int i = 0; i < kMissSlots; ++i) {
    in.filler_bodies.push_back(plan_body(
        etransform::write_instance(etransform::make_enterprise1(
            mix(seed, 10'000 + i))),
        "heuristic"));
  }
  in.base_instance = replan_base_instance();
  in.base_body = plan_body(etransform::write_instance(in.base_instance), "exact");
  in.cache_bytes = entry_bytes * (kHitSet + 1 + kMissSlots);
  return in;
}

/// A booted and warmed daemon plus the answers set-up recorded.
struct Warmed {
  std::unique_ptr<server::PlannerDaemon> daemon;
  int port = 0;
  std::vector<double> hit_costs;
  long long base_job = -1;
  double base_cost = 0.0;
  double base_bound = 0.0;
  std::vector<double> pin_costs;
};

/// Boots the daemon and warms it: the hit set and the exact base are
/// solved and cached, each replan pin is solved once (recording the cost
/// every later replan must return), and filler misses top the cache up to
/// its budget before the hit set is touched again so it is the most
/// recently used.
Warmed boot_and_warm(const Inputs& in, SpanRecorder& spans, Checks& checks) {
  Warmed w;
  server::DaemonOptions options;
  options.workers = kWorkers;
  options.cache_bytes = in.cache_bytes;
  options.max_jobs = kRetainedJobs;
  w.daemon = std::make_unique<server::PlannerDaemon>(options);
  w.daemon->start();
  w.port = w.daemon->port();
  const auto warm = [&](const std::string& target, const std::string& body,
                        const char* what) {
    Outcome o = submit_and_wait(w.port, target, body, spans, 0, 0);
    checks.expect(o.ok, std::string("daemon set-up: ") + what + ": " + o.error);
    return o;
  };
  for (const std::string& body : in.hit_bodies) {
    w.hit_costs.push_back(result_total(warm("/v1/plan", body, "hit").doc));
  }
  const Outcome base = warm("/v1/plan", in.base_body, "replan base");
  w.base_job = base.job;
  w.base_cost = result_total(base.doc);
  w.base_bound = result_number(base.doc, "lower_bound");
  for (const Pin& pin : kReplanPins) {
    w.pin_costs.push_back(result_total(
        warm("/v1/replan", replan_body(w.base_job, pin), "replan pin").doc));
  }
  for (const std::string& body : in.filler_bodies) {
    (void)warm("/v1/plan", body, "cache filler");
  }
  for (std::size_t i = 0; i < in.hit_bodies.size(); ++i) {
    const Outcome o = warm("/v1/plan", in.hit_bodies[i], "hit refresh");
    checks.expect(same_cost(result_total(o.doc), w.hit_costs[i]),
                  "daemon set-up: hit refresh changed cost");
  }
  return w;
}

struct RequestRecord {
  Cls cls = Cls::kHit;
  bool ok = false;
  bool traced = false;
  double start_us = 0.0;
  double latency_ms = 0.0;
  double lp_iters = 0.0;
};

/// Shared state of the client threads.
struct Load {
  std::atomic<std::uint64_t> next{0};
  /// Probe rendezvous of the clients; a client leaving the run drops out.
  std::barrier<> probe_sync{kClients};
  double start_us = 0.0;
  std::mutex mu;
  std::vector<RequestRecord> records;
  std::vector<double> probes_ms;
  std::vector<std::string> replay_bodies;  // traced run: sampled misses
  std::mutex base_mu;
  long long base_job = -1;
  std::uint64_t base_refreshed_at = 0;
};

/// The replan base id to use for request k. The base is re-submitted on
/// the first replan and whenever the registry could have aged it out since.
long long current_base(Load& load, const Inputs& in, int port,
                       std::uint64_t k, SpanRecorder& spans, Checks& checks) {
  const std::lock_guard<std::mutex> lock(load.base_mu);
  if (load.base_job < 0 || k >= load.base_refreshed_at + kBaseRefreshRequests) {
    const Outcome o = submit_and_wait(port, "/v1/plan", in.base_body, spans,
                                      0, 0);
    checks.expect(o.ok, "replan base refresh: " + o.error);
    load.base_job = o.ok ? o.job : -1;
    load.base_refreshed_at = k;
  }
  return load.base_job;
}

void client_thread(const RunArgs& args, const Inputs& in, const Warmed& w,
                   int index, int cpu, double deadline_us, Load& load,
                   SpanRecorder& spans, Checks& checks) {
  // Leaving (or failing) drops this client from the probe rendezvous, so
  // the other never waits for it.
  struct DropOnExit {
    std::barrier<>& sync;
    ~DropOnExit() { sync.arrive_and_drop(); }
  } drop{load.probe_sync};
  pin_current_thread(cpu);
  HostProbe probe;
  int probes = 0;
  int iter = 0;
  while (now_us() < deadline_us) {
    if (now_us() >= load.start_us + probes * kProbeEveryUs) {
      load.probe_sync.arrive_and_wait();
      const double p = probe.run_ms();
      load.probe_sync.arrive_and_wait();
      ++probes;
      const std::lock_guard<std::mutex> lock(load.mu);
      load.probes_ms.push_back(p);
    }
    const std::uint64_t k = load.next.fetch_add(1);
    const Planned planned = planned_request(args.seed, k);
    // Bodies are built before the clock starts: a miss generates its
    // instance here, the client's think time.
    std::string target = "/v1/plan";
    std::string body;
    switch (planned.cls) {
      case Cls::kHit:
        body = in.hit_bodies[static_cast<std::size_t>(planned.index)];
        break;
      case Cls::kMiss:
        body = plan_body(etransform::write_instance(
                             etransform::make_enterprise1(planned.miss_seed)),
                         "heuristic");
        break;
      case Cls::kReplan:
        target = "/v1/replan";
        body = replan_body(current_base(load, in, w.port, k, spans, checks),
                           kReplanPins[planned.index]);
        break;
    }
    // The traced run records spans on every other request so that
    // trace.overhead_pct compares traced and untraced requests.
    const bool traced = args.trace && (iter++ + index) % 2 == 0;
    RequestRecord record;
    record.cls = planned.cls;
    record.traced = traced;
    Outcome o;
    record.start_us = now_us();
    if (traced) {
      const ScopedSpan span(spans, std::string("request.") +
                                       cls_name(planned.cls),
                            0, k + 1);
      o = submit_and_wait(w.port, target, body, spans, span.id(), k + 1);
    } else {
      SpanRecorder off(false);
      o = submit_and_wait(w.port, target, body, off, 0, 0);
    }
    record.latency_ms = (now_us() - record.start_us) / 1000.0;

    std::string problem = o.ok ? "" : o.error;
    if (o.ok) {
      const double total = result_total(o.doc);
      if (planned.cls == Cls::kHit) {
        const json::Value* hit = o.doc.get("cache_hit");
        if (hit == nullptr || !hit->b) problem = "hit: served without cache";
        if (!same_cost(total, w.hit_costs[static_cast<std::size_t>(planned.index)])) {
          problem = "hit: cost differs from set-up";
        }
      } else if (planned.cls == Cls::kReplan) {
        record.lp_iters = result_number(o.doc, "lp_iters");
        if (!same_cost(total, w.pin_costs[static_cast<std::size_t>(planned.index)])) {
          problem = "replan: cost differs from set-up";
        }
      } else {
        problem = miss_problem(o.doc, etransform::enterprise1_spec().num_groups);
      }
    }
    record.ok = problem.empty();
    checks.expect(record.ok, std::string(cls_name(planned.cls)) + ": " + problem);
    const std::lock_guard<std::mutex> lock(load.mu);
    if (args.trace && planned.cls == Cls::kMiss &&
        static_cast<int>(load.replay_bodies.size()) < kReplaySamples) {
      load.replay_bodies.push_back(body);
    }
    load.records.push_back(record);
  }
}

/// Traced run only: replays sampled request bodies through the server's
/// request-path functions, one span per call, so the time a cache hit
/// spends in parse, canonicalization, fingerprinting, lookup and result
/// serialization can be read off one by one.
void replay_request_path(const Inputs& in,
                         const std::vector<std::string>& miss_bodies,
                         SpanRecorder& spans, Checks& checks) {
  etransform::PlannerOptions heuristic;
  heuristic.engine = etransform::PlannerOptions::Engine::kHeuristic;
  const etransform::EtransformPlanner planner(heuristic);
  server::InstanceCache cache(in.cache_bytes);
  std::vector<etransform::PlannerReport> reports;
  for (const ConsolidationInstance& instance : in.hit_instances) {
    const etransform::CostModel model(instance);
    etransform::SolveContext ctx;
    reports.push_back(planner.plan(etransform::PlanInput(model), ctx));
  }
  std::vector<std::string> bodies = in.hit_bodies;
  bodies.insert(bodies.end(), miss_bodies.begin(), miss_bodies.end());
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const bool hit = i < in.hit_bodies.size();
      json::Value doc;
      bool parsed = false;
      {
        const ScopedSpan span(spans, "server.json_parse");
        parsed = json::parse(bodies[i], doc);
      }
      const json::Value* text = parsed ? doc.get("instance") : nullptr;
      if (text == nullptr) {
        checks.expect(false, "replay: request body did not parse");
        continue;
      }
      ConsolidationInstance instance;
      {
        const ScopedSpan span(spans, "server.etf_parse");
        instance = etransform::parse_instance(text->str);
      }
      std::string canonical;
      {
        const ScopedSpan span(spans, "server.canonicalize");
        canonical = etransform::write_instance(instance);
      }
      std::string key;
      {
        const ScopedSpan span(spans, "server.fingerprint");
        const etransform::PlannerOptions options =
            server::parse_options_json(doc.get("options"));
        const etransform::PlanningHorizon horizon =
            server::parse_horizon_json(doc, instance);
        key = server::cache_key(
            canonical, server::options_fingerprint(options, 0.0, horizon));
      }
      if (!hit) continue;
      const etransform::PlannerReport& report = reports[i];
      if (pass == 0) {
        auto cached = std::make_shared<server::CachedResult>();
        cached->report = report;
        cached->result_json =
            server::plan_result_json(instance, report, 0.0).dump();
        (void)cache.insert(key, canonical, std::move(cached));
        continue;
      }
      std::shared_ptr<const server::CachedResult> found;
      {
        const ScopedSpan span(spans, "server.cache_lookup");
        found = cache.lookup(key, canonical);
      }
      checks.expect(found != nullptr, "replay: hit-set entry not in cache");
      {
        const ScopedSpan span(spans, "server.result_json");
        (void)server::plan_result_json(instance, report, 0.0).dump();
      }
    }
  }
}

}  // namespace

json::Value run_daemon_workload(const RunArgs& args) {
  const std::vector<int> cpus = allowed_cpus();
  SpanRecorder spans(args.trace);
  Checks checks;
  HostProbe probe;
  json::Value out = json::Value::object();
  json::Value context = base_context(args, kClients);
  context.set("clients", num(kClients));
  context.set("workers", num(kWorkers));
  context.set("loop", str("closed"));
  out.set("probe_start_ms", num(probe.run_ms()));

  const Inputs in = make_inputs(args.seed);
  context.set("cache_bytes", num(static_cast<double>(in.cache_bytes)));

  // Set-up (boot + warm), repeated; the last daemon serves the run.
  // Earlier set-ups' daemons are retired untimed, after the last set-up.
  Warmed w;
  std::vector<std::unique_ptr<server::PlannerDaemon>> retired;
  int rep = 0;
  out.set("setup", timed_setup(probe, kSetupReps, 1, [&] {
            if (w.daemon != nullptr) retired.push_back(std::move(w.daemon));
            const std::vector<double> previous_hits = w.hit_costs;
            const std::vector<double> previous_pins = w.pin_costs;
            w = boot_and_warm(in, spans, checks);
            if (rep++ > 0) {
              checks.expect(previous_hits == w.hit_costs &&
                                previous_pins == w.pin_costs,
                            "daemon set-up: answers differ between set-ups");
            }
          }));
  for (const auto& daemon : retired) daemon->stop();
  retired.clear();

  Load load;
  const std::string metrics_before = scrape_metrics(w.port);
  load.start_us = now_us();
  const double deadline_us = load.start_us + args.seconds * 1e6;
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        try {
          client_thread(args, in, w, i,
                        cpus[static_cast<std::size_t>(i) % cpus.size()],
                        deadline_us, load, spans, checks);
        } catch (const std::exception& e) {
          checks.expect(false, std::string("client threw: ") + e.what());
        }
      });
    }
  }
  const std::string metrics_after = scrape_metrics(w.port);
  const auto delta = [&](const char* name) {
    return prom_value(metrics_after, name) - prom_value(metrics_before, name);
  };
  json::Value daemon = json::Value::object();
  daemon.set("cache_hits", num(delta("etransform_server_cache_hits_total")));
  daemon.set("cache_misses",
             num(delta("etransform_server_cache_misses_total")));
  daemon.set("evictions",
             num(delta("etransform_server_cache_evictions_total")));
  daemon.set("rejected", num(delta("etransform_server_rejected_total")));
  daemon.set("queue_wait_ms_p50",
             num(prom_value(metrics_after, "etransform_farm_job_wait_ms_p50")));
  daemon.set("solve_ms_p50",
             num(prom_value(metrics_after, "etransform_farm_job_solve_ms_p50")));
  out.set("daemon", std::move(daemon));

  if (args.trace) replay_request_path(in, load.replay_bodies, spans, checks);
  w.daemon->stop();

  json::Value requests = json::Value::array();
  for (const RequestRecord& r : load.records) {
    json::Value row = json::Value::object();
    row.set("class", str(cls_name(r.cls)));
    row.set("ok", json::Value::boolean(r.ok));
    row.set("traced", json::Value::boolean(r.traced));
    row.set("start_us", num(r.start_us));
    row.set("latency_ms", num(r.latency_ms));
    if (r.cls == Cls::kReplan) row.set("lp_iters", num(r.lp_iters));
    requests.push(std::move(row));
  }
  out.set("requests", std::move(requests));
  out.set("probes_ms", num_array(load.probes_ms));
  json::Value quality = json::Value::object();
  quality.set("plan_cost", num(w.base_cost));
  quality.set("lower_bound", num(w.base_bound));
  out.set("quality", std::move(quality));
  out.set("probe_end_ms", num(probe.run_ms()));
  out.set("peak_rss_mb", num(peak_rss_mb()));
  out.set("checks", checks.to_json());
  out.set("context", std::move(context));
  out.set("spans", spans.to_json());
  return out;
}

}  // namespace perfbench
