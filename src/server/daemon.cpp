#include "server/daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/progress.h"
#include "common/stopwatch.h"
#include "model/instance_io.h"
#include "planner/admin.h"
#include "server/api_json.h"
#include "server/instance_cache.h"
#include "telemetry/artifacts.h"

namespace etransform::server {

namespace {

/// Daemon-side record of one submitted job. The farm's SolveJob owns the
/// solve; this owns everything the protocol needs: the instance (replan
/// base material), the event lines for the stream endpoint, and the
/// finalized result document. `handle` is set by the submitting handler
/// right after SolveService::submit() returns; the completion hook waits
/// for it (the hook can fire before submit() even returns).
struct ServerJob {
  long long id = 0;
  std::string name;
  std::string key;             // cache key ("" when caching disabled)
  /// Shared with the cache entry that parsed (or will keep) it.
  std::shared_ptr<const ConsolidationInstance> instance;
  /// Canonical .etf of `instance`, held only until it is used: a hit drops
  /// it after the probe, a miss moves it into the cache insert at finalize.
  std::string canonical_text;
  /// A /v1/plan upload that was its own canonical text: the cache entry
  /// keeps `instance` and indexes it for find_upload().
  bool canonical_upload = false;
  PlannerOptions options;      // as parsed; replan deltas inherit these
  PlanningHorizon horizon;     // static unless the request carried v2 members
  bool lock_placement = false;
  double time_limit_ms = 0.0;
  bool cache_enabled = true;
  long long base_job = -1;     // replan: the job this delta derives from
  bool warm_started = false;   // replan: base root basis was available

  std::mutex mu;
  std::condition_variable cv;
  JobHandle handle;            // null until the submitter stores it
  bool terminal = false;
  std::string state = "queued";
  std::string error;
  std::string result_json;     // non-empty iff a report was produced
  std::shared_ptr<const lp::NamedBasis> root_basis;
  double solve_ms = 0.0;
  bool cache_hit = false;
  std::vector<std::string> events;  // progress lines, append-only
  /// Flight recorder: the job's spans (filtered by trace id, bounded per
  /// thread), captured at finalize when the job tripped an anomaly. Empty
  /// for healthy jobs — /trace drains the live rings for those.
  std::string flight_trace;
  /// Why the flight recorder fired: "slo", "cancelled", "failed",
  /// "numerical" (any subset, in that order).
  std::vector<std::string> anomalies;
};

using ServerJobPtr = std::shared_ptr<ServerJob>;

/// Flight-recorder depth: the tail of each thread's ring kept when an
/// anomalous job's trace is captured. Bounds the retained JSON per job
/// (~100 bytes/event) while keeping the interesting part — the end of the
/// solve, where deadlines fire and numerical trouble shows up.
constexpr std::size_t kFlightRecorderEventsPerThread = 512;

void push_event(const ServerJobPtr& job, std::string line) {
  const std::lock_guard<std::mutex> lock(job->mu);
  job->events.push_back(std::move(line));
  job->cv.notify_all();
}

std::string format_double(double v) {
  std::string out;
  json::append_number(out, v);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Core: all mutable daemon state, shared_ptr-held so completion hooks that
// outlive a handler (or fire during shutdown) keep it alive.

struct PlannerDaemon::Core {
  explicit Core(const DaemonOptions& options)
      : cache(options.cache_bytes),
        max_queue_depth(options.max_queue_depth),
        max_jobs(static_cast<std::size_t>(std::max(1, options.max_jobs))),
        default_time_limit_ms(options.default_time_limit_ms),
        slo_ms(options.slo_ms),
        telemetry_dir(options.telemetry_dir),
        started_at(std::chrono::steady_clock::now()) {
    requests = &metrics.counter("etransform_server_requests_total",
                                "HTTP requests served");
    cache_hits = &metrics.counter("etransform_server_cache_hits_total",
                                  "Plan requests answered from the cache");
    cache_misses = &metrics.counter("etransform_server_cache_misses_total",
                                    "Plan requests that required a solve");
    upload_reuses = &metrics.counter(
        "etransform_server_upload_reuses_total",
        "Plan uploads byte-equal to a cached canonical upload, served "
        "without re-parsing");
    cache_evictions =
        &metrics.counter("etransform_server_cache_evictions_total",
                         "Cache entries evicted by the byte budget");
    rejected = &metrics.counter("etransform_server_rejected_total",
                                "Requests rejected by backpressure or drain");
    queue_depth = &metrics.gauge("etransform_server_queue_depth",
                                 "Farm queue depth as last observed");
    jobs_inflight = &metrics.gauge("etransform_server_jobs_inflight",
                                   "Jobs admitted and not yet terminal");
    request_ms = &metrics.histogram("etransform_server_request_ms",
                                    "HTTP request handling time in ms");
    errors = &metrics.counter("etransform_server_errors_total",
                              "Requests that ended in a 5xx response");
    anomalies_total = &metrics.counter(
        "etransform_server_job_anomalies_total",
        "Jobs flagged by the flight recorder (SLO, cancel, failure, "
        "numerical trouble)");
    slo_violations = &metrics.counter(
        "etransform_server_slo_violations_total",
        "Jobs whose solve wall time exceeded the configured SLO");
    // The conventional info pair: a constant-1 gauge whose HELP line carries
    // the build identity, plus an uptime gauge refreshed at scrape time.
    build_info = &metrics.gauge(
        "etransform_build_info",
        std::string("Build info: compiled ") + __DATE__ + ", C++ standard " +
            std::to_string(__cplusplus));
    build_info->set(1.0);
    uptime_seconds = &metrics.gauge("etransform_uptime_seconds",
                                    "Seconds since the daemon constructed");
  }

  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  InstanceCache cache;
  const int max_queue_depth;
  const std::size_t max_jobs;
  const double default_time_limit_ms;
  const double slo_ms;
  const std::string telemetry_dir;
  const std::chrono::steady_clock::time_point started_at;

  std::mutex mu;
  std::map<long long, ServerJobPtr> jobs;
  long long next_id = 1;
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> next_request{1};

  telemetry::Counter* requests;
  telemetry::Counter* cache_hits;
  telemetry::Counter* cache_misses;
  telemetry::Counter* upload_reuses;
  telemetry::Counter* cache_evictions;
  telemetry::Counter* rejected;
  telemetry::Gauge* queue_depth;
  telemetry::Gauge* jobs_inflight;
  telemetry::Histogram* request_ms;
  telemetry::Counter* errors;
  telemetry::Counter* anomalies_total;
  telemetry::Counter* slo_violations;
  telemetry::Gauge* build_info;
  telemetry::Gauge* uptime_seconds;

  ServerJobPtr find_job(long long id) {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(id);
    return it == jobs.end() ? nullptr : it->second;
  }

  /// Assigns an id and publishes the job. Fill every immutable field first:
  /// the job becomes visible to GET handlers here.
  long long register_job(const ServerJobPtr& job) {
    const std::lock_guard<std::mutex> lock(mu);
    job->id = next_id++;
    jobs.emplace(job->id, job);
    // Retention cap: without it every request (cache hits included) grows
    // the registry forever. Ids are monotonic, so map order is age order —
    // drop the oldest terminal jobs until back under max_jobs. In-flight
    // jobs are skipped; aged-out ids 404, including as replan bases.
    for (auto it = jobs.begin(); jobs.size() > max_jobs && it != jobs.end();) {
      bool terminal = false;
      {
        const std::lock_guard<std::mutex> job_lock(it->second->mu);
        terminal = it->second->terminal;
      }
      if (terminal && it->second != job) {
        it = jobs.erase(it);
      } else {
        ++it;
      }
    }
    return job->id;
  }

  /// The completion hook body: runs on the worker thread (or the canceller
  /// for queued-cancel) after the farm job went terminal.
  void finalize(const ServerJobPtr& job) {
    JobHandle handle;
    {
      std::unique_lock<std::mutex> lock(job->mu);
      job->cv.wait(lock, [&job] { return job->handle != nullptr; });
      handle = job->handle;
    }
    const JobState state = handle->state();
    // Nothing reads the canonical text after this hook: move it out so the
    // job record releases it whether or not it is cached.
    std::string canonical_text = std::move(job->canonical_text);
    std::string result_json;
    std::shared_ptr<const lp::NamedBasis> basis;
    double solve_ms = handle->solve_ms();
    if (handle->has_report()) {
      const PlannerReport& report = handle->report();
      result_json = plan_result_json(*job->instance, report, solve_ms).dump();
      basis = report.root_basis;
    }
    const bool cacheable = state == JobState::kDone &&
                           handle->has_report() &&
                           !handle->report().interrupted &&
                           job->cache_enabled && !job->key.empty();
    if (cacheable) {
      auto cached = std::make_shared<CachedResult>();
      cached->report = handle->report();
      cached->result_json = result_json;
      cached->solve_ms = solve_ms;
      const std::size_t evicted = cache.insert(
          job->key, std::move(canonical_text), std::move(cached),
          job->canonical_upload ? job->instance : nullptr);
      if (evicted > 0) {
        cache_evictions->add(static_cast<double>(evicted));
      }
    }
    // Close the request-level async span before any capture below: the
    // flight trace must contain the balanced begin/end pair, not a
    // still-open begin.
    {
      const telemetry::TraceBindScope bind(
          &trace, static_cast<std::uint64_t>(job->id));
      trace.async_end("server", "server.job", job->id);
    }
    // Anomaly matrix (see DESIGN.md §13): any hit arms the flight recorder.
    std::vector<std::string> anomalies;
    if (state == JobState::kCancelled) anomalies.emplace_back("cancelled");
    if (state == JobState::kFailed) anomalies.emplace_back("failed");
    if (slo_ms > 0.0 && solve_ms > slo_ms) {
      anomalies.emplace_back("slo");
      slo_violations->increment();
    }
    if (handle->has_report() &&
        handle->report().stats.deep_metric("numerical_nodes") > 0.0) {
      anomalies.emplace_back("numerical");
    }
    std::string flight_trace;
    if (!anomalies.empty()) {
      // Capture before the terminal flip: /trace served after this point
      // returns the frozen capture, not a view that other jobs keep
      // appending around.
      flight_trace = trace.to_chrome_json_for_trace(
          static_cast<std::uint64_t>(job->id), kFlightRecorderEventsPerThread);
      anomalies_total->increment();
      std::string reasons;
      for (const std::string& a : anomalies) {
        if (!reasons.empty()) reasons += ",";
        reasons += a;
      }
      ET_LOG(kWarning) << "etransformd: job " << job->id
                       << " flagged anomalous (" << reasons << ") after "
                       << solve_ms << " ms; flight trace retained";
      if (!telemetry_dir.empty()) {
        std::string error;
        if (!telemetry::write_text_file(telemetry_dir + "/job-" +
                                            std::to_string(job->id) +
                                            "-trace.json",
                                        flight_trace, &error)) {
          ET_LOG(kWarning) << "etransformd: flight trace dump failed: "
                           << error;
        }
      }
    }
    {
      const std::lock_guard<std::mutex> lock(job->mu);
      job->state = to_string(state);
      job->error = handle->error();
      job->result_json = std::move(result_json);
      job->root_basis = std::move(basis);
      job->solve_ms = solve_ms;
      job->flight_trace = std::move(flight_trace);
      job->anomalies = std::move(anomalies);
      job->events.push_back("state " + job->state);
      job->terminal = true;
      job->cv.notify_all();
    }
    jobs_inflight->add(-1.0);
  }
};

// ---------------------------------------------------------------------------
// Construction / lifecycle

PlannerDaemon::PlannerDaemon(DaemonOptions options)
    : options_(options),
      core_(std::make_shared<Core>(options)),
      service_(std::make_unique<SolveService>(options.workers)) {
  service_->attach_telemetry(&core_->trace, &core_->metrics);
}

PlannerDaemon::~PlannerDaemon() {
  // Abrupt teardown: refuse new work, cancel what is in flight, then stop
  // HTTP (streamers observe the terminal state set by the cancellations and
  // unwind, letting stop() join their threads), then sweep anything a
  // handler admitted in the gap.
  core_->draining.store(true);
  cancel_jobs();
  if (http_ != nullptr) http_->stop();
  cancel_jobs();
  service_->wait_all();
}

void PlannerDaemon::start() {
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request, ResponseWriter& writer) {
        handle(request, writer);
      });
  http_->start(options_.port);
  ET_LOG(kInfo) << "etransformd: listening on 127.0.0.1:" << http_->port()
                << " (" << service_->num_threads() << " workers, queue cap "
                << options_.max_queue_depth << ")";
}

int PlannerDaemon::port() const { return http_ != nullptr ? http_->port() : 0; }

void PlannerDaemon::request_drain() {
  if (!core_->draining.exchange(true)) {
    ET_LOG(kInfo) << "etransformd: draining (no new work admitted)";
  }
}

void PlannerDaemon::stop() {
  service_->wait_all();
  if (http_ != nullptr) http_->stop();
  // Final artifact export, mirroring the CLI's --telemetry-dir behavior:
  // the full (unfiltered) trace plus the metrics exposition at shutdown.
  if (!options_.telemetry_dir.empty()) {
    std::string error;
    if (!telemetry::write_run_artifacts(options_.telemetry_dir, &core_->trace,
                                        &core_->metrics, "", nullptr,
                                        &error)) {
      ET_LOG(kWarning) << "etransformd: telemetry export failed: " << error;
    } else {
      ET_LOG(kInfo) << "etransformd: run artifacts written to "
                    << options_.telemetry_dir;
    }
  }
}

void PlannerDaemon::cancel_jobs() { service_->cancel_all(); }

bool PlannerDaemon::draining() const { return core_->draining.load(); }

telemetry::MetricsRegistry& PlannerDaemon::metrics() { return core_->metrics; }

telemetry::TraceRecorder& PlannerDaemon::trace() { return core_->trace; }

// ---------------------------------------------------------------------------
// Request handling

namespace {

/// Parses "/v1/jobs/<id>" and "/v1/jobs/<id>/<verb>". Returns -1 on
/// malformed ids.
long long parse_job_id(std::string_view path, std::string* verb) {
  constexpr std::string_view kPrefix = "/v1/jobs/";
  if (path.substr(0, kPrefix.size()) != kPrefix) return -1;
  path.remove_prefix(kPrefix.size());
  const std::size_t slash = path.find('/');
  std::string_view id_part = path;
  if (slash != std::string_view::npos) {
    id_part = path.substr(0, slash);
    *verb = std::string(path.substr(slash + 1));
  }
  if (id_part.empty()) return -1;
  long long id = 0;
  for (const char c : id_part) {
    if (c < '0' || c > '9') return -1;
    id = id * 10 + (c - '0');
    if (id > (1ll << 60)) return -1;
  }
  return id;
}

double number_or(const json::Value& body, const char* key, double fallback) {
  const json::Value* v = body.get(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number()) {
    throw InvalidInputError(std::string(key) + " must be a number");
  }
  return v->num;
}

bool bool_or(const json::Value& body, const char* key, bool fallback) {
  const json::Value* v = body.get(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool()) {
    throw InvalidInputError(std::string(key) + " must be a bool");
  }
  return v->b;
}

JobPriority parse_priority(const json::Value& body) {
  const json::Value* v = body.get("priority");
  if (v == nullptr || v->is_null()) return JobPriority::kNormal;
  if (v->is_string()) {
    if (v->str == "high") return JobPriority::kHigh;
    if (v->str == "normal") return JobPriority::kNormal;
    if (v->str == "low") return JobPriority::kLow;
  }
  throw InvalidInputError("priority must be \"high\", \"normal\", or \"low\"");
}

/// Validates a request-supplied numeric reference before the int cast:
/// static_cast of a double outside int's range (1e300, NaN) is undefined
/// behavior, and these values arrive straight off the wire, before
/// ScenarioSession's own bounds checks can run.
int checked_index(const json::Value& ref, const char* what) {
  const double v = ref.num;
  if (!(v >= 0.0) || v > static_cast<double>(std::numeric_limits<int>::max()) ||
      v != std::floor(v)) {
    throw InvalidInputError(std::string(what) +
                            " index must be a non-negative integer");
  }
  return static_cast<int>(v);
}

/// Resolves a group reference (name string or index number) in `instance`.
int resolve_group(const ConsolidationInstance& instance,
                  const json::Value& ref) {
  if (ref.is_number()) return checked_index(ref, "group");
  if (ref.is_string()) {
    for (int i = 0; i < instance.num_groups(); ++i) {
      if (instance.groups[i].name == ref.str) return i;
    }
    throw InvalidInputError("unknown group '" + ref.str + "'");
  }
  throw InvalidInputError("group reference must be a name or an index");
}

int resolve_site(const ConsolidationInstance& instance,
                 const json::Value& ref) {
  if (ref.is_number()) return checked_index(ref, "site");
  if (ref.is_string()) {
    for (int i = 0; i < instance.num_sites(); ++i) {
      if (instance.sites[i].name == ref.str) return i;
    }
    throw InvalidInputError("unknown site '" + ref.str + "'");
  }
  throw InvalidInputError("site reference must be a name or an index");
}

/// The GET /v1/jobs/<id> body (and a cache hit's POST body). The stored
/// result document is spliced in as the last member, "result", as text:
/// it is already the dump() of a DOM, and dump(parse(text)) == text, so
/// re-parsing it per request would only cost time.
std::string job_status_body(const ServerJobPtr& job) {
  json::Value out = json::Value::object();
  std::lock_guard<std::mutex> lock(job->mu);
  out.set("job", json::Value::number(static_cast<double>(job->id)));
  if (!job->name.empty()) out.set("name", json::Value::string(job->name));
  // Until the completion hook lands, the farm handle is the live source of
  // truth — it is what flips "queued" to "running" when a worker claims it.
  std::string state = job->state;
  if (!job->terminal && job->handle != nullptr &&
      job->handle->state() == JobState::kRunning) {
    state = "running";
  }
  out.set("state", json::Value::string(state));
  out.set("cache_hit", json::Value::boolean(job->cache_hit));
  if (job->base_job >= 0) {
    out.set("base_job", json::Value::number(static_cast<double>(job->base_job)));
    out.set("warm_started", json::Value::boolean(job->warm_started));
  }
  if (job->terminal) {
    out.set("solve_ms", json::Value::number(job->solve_ms));
    if (!job->error.empty()) out.set("error", json::Value::string(job->error));
  }
  std::string body = out.dump();
  if (job->terminal && !job->result_json.empty()) {
    body.pop_back();  // the object's closing brace
    body += ",\"result\":";
    body += job->result_json;
    body += '}';
  }
  return body;
}

/// The /v1/jobs/<id>/progress body: a wait-free snapshot of the job's
/// SolveProgress ring. NaN incumbent/bound and infinite gap are omitted
/// rather than serialized (JSON has no spelling for either); `published`
/// counts every sample ever published, so a client can tell "no progress
/// yet" (0) from "ring wrapped past what I saw" (> timeline length).
json::Value job_progress_json(const ServerJobPtr& job) {
  json::Value out = json::Value::object();
  JobHandle handle;
  std::string state;
  {
    const std::lock_guard<std::mutex> lock(job->mu);
    out.set("job", json::Value::number(static_cast<double>(job->id)));
    handle = job->handle;
    state = job->state;
    if (!job->terminal && handle != nullptr &&
        handle->state() == JobState::kRunning) {
      state = "running";
    }
  }
  out.set("state", json::Value::string(state));
  json::Value timeline = json::Value::array();
  std::uint64_t published = 0;
  if (handle != nullptr) {  // cache hits and failed submits never solved
    const SolveProgress::Snapshot snap = handle->progress().snapshot();
    published = snap.published;
    for (const ProgressSample& s : snap.timeline) {
      json::Value entry = json::Value::object();
      entry.set("time_ms", json::Value::number(s.time_ms));
      entry.set("nodes", json::Value::number(static_cast<double>(s.nodes)));
      if (!std::isnan(s.incumbent)) {
        entry.set("incumbent", json::Value::number(s.incumbent));
      }
      if (!std::isnan(s.bound)) {
        entry.set("bound", json::Value::number(s.bound));
      }
      if (std::isfinite(s.gap)) {
        entry.set("gap", json::Value::number(s.gap));
      }
      timeline.arr.push_back(std::move(entry));
    }
  }
  out.set("published", json::Value::number(static_cast<double>(published)));
  out.set("timeline", std::move(timeline));
  return out;
}

/// The /v1/jobs/<id>/events body: one chunk per batch of progress lines,
/// blank-line keepalives while idle (so a dead peer or a stopping server is
/// noticed within a second), final line "state <terminal>".
void stream_events(const ServerJobPtr& job, ResponseWriter& writer) {
  writer.begin_stream(200, "text/plain");
  std::size_t cursor = 0;
  while (true) {
    std::string chunk;
    bool finished = false;
    {
      std::unique_lock<std::mutex> lock(job->mu);
      job->cv.wait_for(lock, std::chrono::seconds(1), [&job, cursor] {
        return job->events.size() > cursor || job->terminal;
      });
      while (cursor < job->events.size()) {
        chunk += job->events[cursor++];
        chunk += '\n';
      }
      finished = job->terminal && cursor == job->events.size();
    }
    if (chunk.empty() && !finished) chunk = "\n";  // keepalive
    if (!chunk.empty() && !writer.write_chunk(chunk)) return;  // peer gone
    if (finished) break;
  }
  writer.end_stream();
}

}  // namespace

void PlannerDaemon::handle(const HttpRequest& request, ResponseWriter& writer) {
  const Stopwatch watch;
  // Connection threads come and go; releasing this thread's trace buffer on
  // the way out lets the next connection adopt it instead of growing the
  // recorder by one ring per connection ever accepted. Declared before the
  // span so the release runs after the span closes.
  struct ThreadReleaser {
    telemetry::TraceRecorder* recorder;
    ~ThreadReleaser() { recorder->release_current_thread(); }
  } releaser{&core_->trace};
  // Request-id log tag: every line this handler (and anything it calls on
  // this thread) emits is joinable back to one HTTP exchange.
  const LogTagScope request_tag(
      "req-" + std::to_string(
                   core_->next_request.fetch_add(1, std::memory_order_relaxed)));
  const telemetry::TraceSpan span(&core_->trace, "server", "server.request");
  core_->requests->increment();

  const auto done = [&] {
    core_->request_ms->observe(watch.elapsed_ms());
  };

  try {
    if (request.path == "/healthz" && request.method == "GET") {
      json::Value health = json::Value::object();
      health.set("status", json::Value::string(
                               core_->draining.load() ? "draining" : "ok"));
      health.set("queue_depth", json::Value::number(
                                    static_cast<double>(service_->queue_depth())));
      writer.send_json(core_->draining.load() ? 503 : 200, health.dump());
      return done();
    }
    if (request.path == "/metrics" && request.method == "GET") {
      core_->queue_depth->set(static_cast<double>(service_->queue_depth()));
      core_->uptime_seconds->set(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        core_->started_at)
              .count());
      writer.send(200, "text/plain; version=0.0.4",
                  core_->metrics.render_prometheus());
      return done();
    }
    if (request.path == "/v1/plan" && request.method == "POST") {
      handle_plan(request, writer, /*replan=*/false);
      return done();
    }
    if (request.path == "/v1/replan" && request.method == "POST") {
      handle_plan(request, writer, /*replan=*/true);
      return done();
    }
    std::string verb;
    const long long id = parse_job_id(request.path, &verb);
    if (id >= 0) {
      const ServerJobPtr job = core_->find_job(id);
      if (job == nullptr) {
        writer.send_error(404, "no such job");
        return done();
      }
      if (verb.empty() && request.method == "GET") {
        writer.send_json(200, job_status_body(job));
        return done();
      }
      if (verb == "events" && request.method == "GET") {
        stream_events(job, writer);
        return done();
      }
      if (verb == "progress" && request.method == "GET") {
        writer.send_json(200, job_progress_json(job).dump());
        return done();
      }
      if (verb == "trace" && request.method == "GET") {
        std::string body;
        {
          const std::lock_guard<std::mutex> lock(job->mu);
          body = job->flight_trace;
        }
        if (body.empty()) {
          // Healthy (or still-running) job: drain the live rings filtered
          // to this job's spans. Rings never wrap, so the view is complete
          // up to the flight-recorder tail cap.
          body = core_->trace.to_chrome_json_for_trace(
              static_cast<std::uint64_t>(id), kFlightRecorderEventsPerThread);
        }
        writer.send(200, "application/json", body);
        return done();
      }
      if (verb == "cancel" && request.method == "POST") {
        JobHandle handle;
        {
          const std::lock_guard<std::mutex> lock(job->mu);
          handle = job->handle;
        }
        if (handle != nullptr) handle->cancel();
        json::Value out = json::Value::object();
        out.set("job", json::Value::number(static_cast<double>(id)));
        out.set("cancel_requested", json::Value::boolean(true));
        writer.send_json(200, out.dump());
        return done();
      }
    }
    writer.send_error(404, "unknown endpoint " + request.method + " " +
                               request.path);
  } catch (const InvalidInputError& e) {
    if (!writer.responded()) writer.send_error(400, e.what());
  } catch (const ParseError& e) {
    if (!writer.responded()) writer.send_error(400, e.what());
  } catch (const std::exception& e) {
    // No job exists for request-level failures, so there is no per-job
    // flight recorder to arm — count and log instead so the 5xx rate is
    // still observable.
    core_->errors->increment();
    ET_LOG(kError) << "etransformd: 500 on " << request.method << " "
                   << request.path << ": " << e.what();
    if (!writer.responded()) writer.send_error(500, e.what());
  }
  done();
}

void PlannerDaemon::handle_plan(const HttpRequest& request,
                                ResponseWriter& writer, bool replan) {
  if (core_->draining.load()) {
    core_->rejected->increment();
    writer.send(503, "application/json", "{\"error\":\"draining\"}",
                {"Retry-After: 5"});
    return;
  }
  json::Value body;
  std::string parse_error;
  if (!json::parse(request.body, body, &parse_error)) {
    writer.send_error(400, "request body is not valid JSON: " + parse_error);
    return;
  }
  if (!body.is_object()) {
    writer.send_error(400, "request body must be a JSON object");
    return;
  }

  auto job = std::make_shared<ServerJob>();
  std::shared_ptr<const lp::NamedBasis> root_warm;

  if (replan) {
    const json::Value* base_ref = body.get("base_job");
    if (base_ref == nullptr || !base_ref->is_number()) {
      writer.send_error(400, "replan requires a numeric base_job");
      return;
    }
    // Same wire-to-int hazard as checked_index: ids are capped at 2^60 by
    // parse_job_id, so anything outside that is malformed, not a miss.
    const double base_num = base_ref->num;
    if (!(base_num >= 0.0) || base_num != std::floor(base_num) ||
        base_num > static_cast<double>(1ll << 60)) {
      writer.send_error(400, "base_job must be a non-negative integral id");
      return;
    }
    const ServerJobPtr base =
        core_->find_job(static_cast<long long>(base_num));
    if (base == nullptr) {
      writer.send_error(404, "no such base_job");
      return;
    }
    std::shared_ptr<const ConsolidationInstance> base_instance;
    PlannerOptions base_options;
    PlanningHorizon base_horizon;
    bool base_lock = false;
    {
      const std::lock_guard<std::mutex> lock(base->mu);
      if (!base->terminal || base->state != "done") {
        writer.send_error(409, "base_job is not in state done");
        return;
      }
      base_instance = base->instance;
      base_options = base->options;
      base_horizon = base->horizon;
      base_lock = base->lock_placement;
      root_warm = base->root_basis;
    }
    job->options = body.get("options") != nullptr
                       ? parse_options_json(body.get("options"))
                       : base_options;
    // ScenarioSession validates every delta against the base instance and
    // applies it the same way the interactive admin path does.
    ScenarioSession session(*base_instance, job->options);
    if (const json::Value* delta = body.get("delta")) {
      if (!delta->is_object()) {
        writer.send_error(400, "delta must be an object");
        return;
      }
      const auto member = [](const json::Value& entry,
                             const char* key) -> const json::Value& {
        const json::Value* m = entry.get(key);
        if (m == nullptr) {
          throw InvalidInputError(std::string("delta entry missing '") + key +
                                  "'");
        }
        return *m;
      };
      for (const auto& [key, value] : delta->obj) {
        if (!value.is_array()) {
          throw InvalidInputError("delta." + key + " must be an array");
        }
        if (key == "pin") {
          for (const json::Value& pin : value.arr) {
            session.pin_group(
                resolve_group(session.instance(), member(pin, "group")),
                resolve_site(session.instance(), member(pin, "site")));
          }
        } else if (key == "unpin") {
          for (const json::Value& ref : value.arr) {
            session.unpin_group(resolve_group(session.instance(), ref));
          }
        } else if (key == "forbid") {
          for (const json::Value& forbid : value.arr) {
            session.forbid_site(
                resolve_group(session.instance(), member(forbid, "group")),
                resolve_site(session.instance(), member(forbid, "site")));
          }
        } else if (key == "separate") {
          for (const json::Value& pair : value.arr) {
            if (!pair.is_array() || pair.arr.size() != 2) {
              throw InvalidInputError(
                  "delta.separate entries must be [groupA, groupB] pairs");
            }
            session.require_separation(
                resolve_group(session.instance(), pair.arr[0]),
                resolve_group(session.instance(), pair.arr[1]));
          }
        } else {
          throw InvalidInputError("delta: unknown key '" + key + "'");
        }
      }
    }
    // A replan inherits the base job's horizon unless the delta body carries
    // its own v2 members; set_horizon re-validates either way (a delta could
    // have made an inherited horizon inconsistent).
    const bool has_horizon_members =
        body.get("periods") != nullptr || body.get("traffic_curve") != nullptr ||
        body.get("migration_cost_per_server") != nullptr;
    session.set_horizon(has_horizon_members
                            ? parse_horizon_json(body, session.instance())
                            : std::move(base_horizon));
    job->horizon = session.horizon();
    job->lock_placement = bool_or(body, "lock_placement", base_lock);
    job->instance =
        std::make_shared<const ConsolidationInstance>(session.instance());
    job->canonical_text = write_instance(*job->instance);
    job->base_job = base->id;
    job->warm_started = root_warm != nullptr;
  } else {
    const json::Value* instance_text = body.get("instance");
    if (instance_text == nullptr || !instance_text->is_string()) {
      writer.send_error(400, "plan requires an \"instance\" string (.etf)");
      return;
    }
    const std::string& text = instance_text->str;
    // Upload index: text byte-equal to a cached canonical upload parses to
    // that entry's instance and is its own canonical text, so skip both.
    if (std::shared_ptr<const ConsolidationInstance> parsed =
            core_->cache.find_upload(text)) {
      core_->upload_reuses->increment();
      job->instance = std::move(parsed);
      job->canonical_text = text;
    } else {
      job->instance =
          std::make_shared<const ConsolidationInstance>(parse_instance(text));
      job->canonical_text = write_instance(*job->instance);
    }
    job->canonical_upload = job->canonical_text == text;
    job->options = parse_options_json(body.get("options"));
    job->horizon = parse_horizon_json(body, *job->instance);
    job->lock_placement = bool_or(body, "lock_placement", false);
  }
  if (job->lock_placement && job->horizon.is_static()) {
    writer.send_error(400, "lock_placement requires a multi-period horizon");
    return;
  }

  if (const json::Value* name = body.get("name");
      name != nullptr && name->is_string()) {
    job->name = name->str;
  }
  job->time_limit_ms =
      number_or(body, "time_limit_ms", core_->default_time_limit_ms);
  job->cache_enabled = bool_or(body, "cache", true);
  const JobPriority priority = parse_priority(body);

  const std::string fingerprint = options_fingerprint(
      job->options, job->time_limit_ms, job->horizon, job->lock_placement);
  job->key = cache_key(job->canonical_text, fingerprint);

  // Cache probe: a hit births the job terminal — no farm round trip.
  if (job->cache_enabled) {
    if (const std::shared_ptr<const CachedResult> hit =
            core_->cache.lookup(job->key, job->canonical_text)) {
      core_->cache_hits->increment();
      std::string().swap(job->canonical_text);  // the entry keeps its own
      job->terminal = true;
      job->state = "done";
      job->cache_hit = true;
      job->result_json = hit->result_json;
      job->root_basis = hit->report.root_basis;
      job->solve_ms = 0.0;  // served from cache; cold time is in the result
      job->events.push_back("cache hit " + job->key);
      job->events.push_back("state done");
      core_->register_job(job);
      writer.send_json(200, job_status_body(job));
      return;
    }
    core_->cache_misses->increment();
  }

  // Backpressure: bound the queue, not the client's patience.
  const std::size_t depth = service_->queue_depth();
  if (depth >= static_cast<std::size_t>(core_->max_queue_depth)) {
    core_->rejected->increment();
    core_->queue_depth->set(static_cast<double>(depth));
    writer.send(429, "application/json",
                "{\"error\":\"queue full\",\"queue_depth\":" +
                    std::to_string(depth) + "}",
                {"Retry-After: 1"});
    return;
  }

  const long long id = core_->register_job(job);

  SolveRequest solve;
  solve.name = job->name.empty() ? ("http-" + std::to_string(id)) : job->name;
  solve.instance = *job->instance;
  solve.options = job->options;
  solve.horizon = job->horizon;
  solve.lock_placement = job->lock_placement;
  solve.time_limit_ms = job->time_limit_ms;
  solve.priority = priority;
  // The server-side job id is the trace id: every span the solve records —
  // farm worker, B&B pool workers, LP engines — carries it, so /trace can
  // filter the shared rings back to this one request.
  solve.trace_id = static_cast<std::uint64_t>(id);
  solve.root_warm = std::move(root_warm);
  // Progress lines for the events stream. Weak captures: the SolveContext
  // (and thus these callbacks) lives inside the farm job, which the server
  // job holds a handle to — a strong capture would be a reference cycle.
  const std::weak_ptr<ServerJob> weak = job;
  solve.events.on_incumbent = [weak](const IncumbentEvent& e) {
    if (const ServerJobPtr sp = weak.lock()) {
      push_event(sp, "incumbent " + format_double(e.objective) + " node " +
                         std::to_string(e.node));
    }
  };
  solve.events.on_bound_improvement = [weak](const BoundEvent& e) {
    if (const ServerJobPtr sp = weak.lock()) {
      push_event(sp, "bound " + format_double(e.bound) + " node " +
                         std::to_string(e.node));
    }
  };
  solve.events.on_simplex_phase = [weak](const SimplexPhaseEvent& e) {
    if (const ServerJobPtr sp = weak.lock()) {
      push_event(sp, "simplex phase " + std::to_string(e.phase) + " " +
                         std::to_string(e.pivots) + " pivots");
    }
  };
  // Sampled node progress merged into the /events stream: one line every
  // ~256 nodes, so a streaming client sees the bound/incumbent/gap move
  // without per-node chatter. The counter is shared with the callback, not
  // the handler — the handler returns long before the solve ends.
  const auto next_node = std::make_shared<std::atomic<long long>>(0);
  solve.events.on_node = [weak, next_node](const NodeEvent& e) {
    // Atomic rather than relying on the solver's emission locks: the
    // callback contract only promises "on a worker thread".
    long long due = next_node->load(std::memory_order_relaxed);
    if (e.node < due ||
        !next_node->compare_exchange_strong(due, e.node + 256,
                                            std::memory_order_relaxed)) {
      return;
    }
    if (const ServerJobPtr sp = weak.lock()) {
      std::string line = "progress node " + std::to_string(e.node) +
                         " bound " + format_double(e.best_bound);
      if (!std::isnan(e.incumbent)) {
        line += " incumbent " + format_double(e.incumbent);
        const double denom = std::max(std::abs(e.incumbent), 1e-9);
        line += " gap " +
                format_double(std::abs(e.incumbent - e.best_bound) / denom);
      }
      push_event(sp, std::move(line));
    }
  };
  const std::shared_ptr<Core> core = core_;
  solve.on_complete = [core, job] { core->finalize(job); };

  core_->jobs_inflight->add(1.0);
  {
    const telemetry::TraceBindScope bind(&core_->trace,
                                         static_cast<std::uint64_t>(id));
    core_->trace.async_begin("server", "server.job", id);
  }
  push_event(job, replan ? "queued (replan of job " +
                               std::to_string(job->base_job) +
                               (job->warm_started ? ", warm basis)" : ")")
                         : "queued");

  JobHandle handle;
  try {
    handle = service_->submit(std::move(solve));
  } catch (const std::exception& e) {
    // Submission raced shutdown. Mark the job failed so pollers see a
    // terminal state.
    {
      const std::lock_guard<std::mutex> lock(job->mu);
      job->terminal = true;
      job->state = "failed";
      job->error = e.what();
      job->events.push_back("state failed");
      job->cv.notify_all();
    }
    core_->jobs_inflight->add(-1.0);
    {
      const telemetry::TraceBindScope bind(&core_->trace,
                                           static_cast<std::uint64_t>(id));
      core_->trace.async_end("server", "server.job", id);
    }
    writer.send_error(503, e.what());
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(job->mu);
    job->handle = std::move(handle);
    job->cv.notify_all();
  }
  core_->queue_depth->set(static_cast<double>(service_->queue_depth()));

  json::Value out = json::Value::object();
  out.set("job", json::Value::number(static_cast<double>(id)));
  out.set("state", json::Value::string("queued"));
  if (replan) {
    out.set("base_job",
            json::Value::number(static_cast<double>(job->base_job)));
    out.set("warm_started", json::Value::boolean(job->warm_started));
  }
  writer.send_json(202, out.dump());
}

}  // namespace etransform::server
