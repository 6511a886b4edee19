// Tests for the etransformd server subsystem: the instance-hash result
// cache (hit/miss/eviction/collision determinism), the wire schema
// (options parsing, fingerprints), and the daemon end to end over real
// HTTP — submit/poll, cache-hit jobs, queued-job cancellation,
// backpressure 429, replan-equals-fresh differential, the event stream,
// drain, and a concurrent submission hammer (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "model/instance_io.h"
#include "planner/admin.h"
#include "server/api_json.h"
#include "server/daemon.h"
#include "server/http.h"
#include "server/instance_cache.h"

namespace etransform {
namespace {

using server::ClientResponse;
using server::DaemonOptions;
using server::InstanceCache;
using server::PlannerDaemon;

ConsolidationInstance small_instance(std::uint64_t seed = 7) {
  Rng rng(seed);
  return make_random_instance(rng, 8, 3, 2);
}

// ---- cache ---------------------------------------------------------------

TEST(InstanceCacheTest, DigestIsDeterministicAndTextSensitive) {
  EXPECT_EQ(server::digest_hex("abc"), server::digest_hex("abc"));
  EXPECT_NE(server::digest_hex("abc"), server::digest_hex("abd"));
  EXPECT_EQ(server::cache_key("inst", "opts"),
            server::cache_key("inst", "opts"));
  EXPECT_NE(server::cache_key("inst", "opts"),
            server::cache_key("inst", "other"));
  EXPECT_NE(server::cache_key("inst", "opts"),
            server::cache_key("insto", "pts"));  // split must matter
}

TEST(InstanceCacheTest, CanonicalTextKeepsItsGoldenBytes) {
  // The cache key hashes write_instance's text, so its bytes are a
  // contract: these digests were taken from the printf-based writer.
  const auto golden = [](const std::string& text, std::size_t bytes,
                         const char* digest) {
    EXPECT_EQ(text.size(), bytes);
    EXPECT_EQ(server::digest_hex(text), digest);
  };
  golden(write_instance(make_enterprise1()), 43'693, "2b943792a89c4033");
  golden(write_instance(make_federal()), 671'406, "7181c21e10576440");
  const ConsolidationInstance estate = make_rightsizing_estate({});
  golden(write_instance(estate), 957, "59e2ec7b9ecda836");
  TrafficCurveSpec spec;
  spec.shape = TrafficCurveSpec::Shape::kDiurnal;
  spec.num_periods = 4;
  spec.trough_multiplier = 0.25;
  spec.migration_cost_per_server = 0.5;
  golden(write_horizon(make_traffic_curve(spec), estate), 126,
         "f2017c2614be3d7b");
}

std::shared_ptr<server::CachedResult> make_result(const std::string& payload) {
  auto result = std::make_shared<server::CachedResult>();
  result->result_json = payload;
  result->solve_ms = 1.0;
  return result;
}

TEST(InstanceCacheTest, HitMissAndCollisionGuard) {
  InstanceCache cache(1 << 20);
  EXPECT_EQ(cache.lookup("k1", "text-a"), nullptr);  // miss
  cache.insert("k1", "text-a", make_result("r1"));
  const auto hit = cache.lookup("k1", "text-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result_json, "r1");
  // Same key, different canonical text: a digest collision must be a miss.
  EXPECT_EQ(cache.lookup("k1", "text-b"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(InstanceCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits exactly two entries (each costs ~1024 overhead + payload).
  InstanceCache cache(2 * 1100);
  cache.insert("a", "aaaa", make_result("ra"));
  cache.insert("b", "bbbb", make_result("rb"));
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(cache.lookup("a", "aaaa"), nullptr);
  EXPECT_EQ(cache.insert("c", "cccc", make_result("rc")), 1u);
  EXPECT_NE(cache.lookup("a", "aaaa"), nullptr);
  EXPECT_EQ(cache.lookup("b", "bbbb"), nullptr);  // evicted
  EXPECT_NE(cache.lookup("c", "cccc"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(InstanceCacheTest, OversizedEntryIsNotCachedAndZeroBudgetDisables) {
  InstanceCache tiny(8);
  tiny.insert("k", "text", make_result("r"));
  EXPECT_EQ(tiny.lookup("k", "text"), nullptr);
  EXPECT_EQ(tiny.stats().entries, 0u);
}

TEST(InstanceCacheTest, ReplacingAKeyKeepsByteAccountingConsistent) {
  InstanceCache cache(1 << 20);
  cache.insert("k", "text", make_result(std::string(1000, 'x')));
  const std::size_t bytes_first = cache.stats().bytes;
  cache.insert("k", "text", make_result("small"));
  EXPECT_LT(cache.stats().bytes, bytes_first);
  EXPECT_EQ(cache.stats().entries, 1u);
}

std::shared_ptr<const ConsolidationInstance> parsed_instance() {
  return std::make_shared<const ConsolidationInstance>(small_instance());
}

TEST(InstanceCacheTest, ParsedInstanceIsNotCharged) {
  const std::string canonical(3000, 'c');
  InstanceCache bare(1 << 20);
  bare.insert("k", canonical, make_result("r"));
  InstanceCache indexed(1 << 20);
  indexed.insert("k", canonical, make_result("r"), parsed_instance());
  EXPECT_EQ(indexed.stats().bytes, bare.stats().bytes);
  EXPECT_EQ(bare.stats().indexed_uploads, 0u);
  EXPECT_EQ(indexed.stats().indexed_uploads, 1u);
}

TEST(InstanceCacheTest, UploadIndexFollowsReplacementAndEviction) {
  const std::string canonical(1000, 'c');
  InstanceCache cache(2 * 2100);  // two ~2 KB entries
  const auto instance = parsed_instance();
  cache.insert("a", canonical, make_result("ra"), instance);
  // Same text under new options: a second entry, indexed too.
  cache.insert("b", canonical, make_result("rb"), instance);
  EXPECT_EQ(cache.stats().indexed_uploads, 2u);
  EXPECT_EQ(cache.find_upload(canonical), instance);
  EXPECT_EQ(cache.find_upload(canonical.substr(1)), nullptr);
  EXPECT_EQ(cache.find_upload(canonical + "c"), nullptr);
  // find_upload is not a lookup: no hit, no recency change.
  EXPECT_EQ(cache.stats().hits, 0);

  // Replacing "a" with an entry that keeps no instance (a replan, or a
  // non-canonical upload) unindexes it.
  cache.insert("a", canonical, make_result("ra2"));
  EXPECT_EQ(cache.stats().indexed_uploads, 1u);
  EXPECT_EQ(cache.find_upload(canonical), instance);  // still via "b"

  // "b" is least recent, so inserting "c" evicts it, and the index forgets
  // the text with it.
  EXPECT_NE(cache.lookup("a", canonical), nullptr);
  const std::string other(1000, 'o');
  cache.insert("c", other, make_result("rc"), instance);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.lookup("b", canonical), nullptr);
  EXPECT_EQ(cache.find_upload(canonical), nullptr);
  EXPECT_EQ(cache.find_upload(other), instance);
  EXPECT_EQ(cache.stats().indexed_uploads, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

// ---- wire schema ---------------------------------------------------------

TEST(ApiJsonTest, ParsesOptionsAndRejectsUnknownKeys) {
  json::Value options = json::Value::object();
  options.set("engine", json::Value::string("exact"));
  options.set("dr", json::Value::boolean(true));
  options.set("omega", json::Value::number(0.5));
  options.set("cuts", json::Value::string("gomory"));
  options.set("lp_algorithm", json::Value::string("dual"));
  options.set("max_nodes", json::Value::number(123));
  const PlannerOptions parsed = server::parse_options_json(&options);
  EXPECT_EQ(parsed.engine, PlannerOptions::Engine::kExact);
  EXPECT_TRUE(parsed.enable_dr);
  EXPECT_EQ(parsed.business_impact_omega, 0.5);
  EXPECT_TRUE(parsed.milp.cuts.gomory);
  EXPECT_FALSE(parsed.milp.cuts.cover);
  EXPECT_EQ(parsed.milp.lp.mode, lp::SolveMode::kDual);
  EXPECT_EQ(parsed.milp.search.max_nodes, 123);

  json::Value bad = json::Value::object();
  bad.set("engne", json::Value::string("exact"));
  EXPECT_THROW((void)server::parse_options_json(&bad), InvalidInputError);
  json::Value bad_value = json::Value::object();
  bad_value.set("engine", json::Value::string("cplex"));
  EXPECT_THROW((void)server::parse_options_json(&bad_value), InvalidInputError);
}

TEST(ApiJsonTest, FingerprintSeparatesResultAffectingOptions) {
  PlannerOptions a;
  PlannerOptions b;
  EXPECT_EQ(server::options_fingerprint(a, 0.0),
            server::options_fingerprint(b, 0.0));
  b.enable_dr = true;
  EXPECT_NE(server::options_fingerprint(a, 0.0),
            server::options_fingerprint(b, 0.0));
  EXPECT_NE(server::options_fingerprint(a, 0.0),
            server::options_fingerprint(a, 1000.0));
}

TEST(ApiJsonTest, ParseHorizonJsonAcceptsPeriodsAndTrafficCurve) {
  const ConsolidationInstance instance = small_instance();

  // Explicit "periods": names, weights, a per-group multiplier vector, and
  // failed sites referenced by name and by index.
  json::Value body = json::Value::object();
  body.set("api_version", json::Value::number(2));
  json::Value periods = json::Value::array();
  json::Value peak = json::Value::object();
  peak.set("name", json::Value::string("peak"));
  peak.set("weight", json::Value::number(2.0));
  peak.set("multiplier", json::Value::number(1.0));
  periods.push(std::move(peak));
  json::Value trough = json::Value::object();
  trough.set("weight", json::Value::number(1.0));
  json::Value per_group = json::Value::array();
  for (int g = 0; g < instance.num_groups(); ++g) {
    per_group.push(json::Value::number(0.5));
  }
  trough.set("group_multipliers", std::move(per_group));
  json::Value failed = json::Value::array();
  failed.push(json::Value::string(instance.sites[0].name));  // by name
  failed.push(json::Value::number(1));                       // by index
  trough.set("failed_sites", std::move(failed));
  periods.push(std::move(trough));
  body.set("periods", std::move(periods));
  body.set("migration_cost_per_server", json::Value::number(4.0));

  const PlanningHorizon horizon = server::parse_horizon_json(body, instance);
  ASSERT_EQ(horizon.num_periods(), 2);
  EXPECT_EQ(horizon.period_name(0), "peak");
  EXPECT_DOUBLE_EQ(horizon.period_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(horizon.multiplier(1, 0), 0.5);
  ASSERT_EQ(horizon.periods[1].failed_sites.size(), 2u);
  EXPECT_EQ(horizon.periods[1].failed_sites[0], 0);
  EXPECT_EQ(horizon.periods[1].failed_sites[1], 1);
  EXPECT_DOUBLE_EQ(horizon.migration_cost_per_server, 4.0);

  // A declarative curve expands through make_traffic_curve.
  json::Value curve_body = json::Value::object();
  curve_body.set("api_version", json::Value::number(2));
  json::Value curve = json::Value::object();
  curve.set("shape", json::Value::string("seasonal"));
  curve.set("num_periods", json::Value::number(6));
  curve.set("peak", json::Value::number(1.2));
  curve.set("trough", json::Value::number(0.3));
  curve_body.set("traffic_curve", std::move(curve));
  const PlanningHorizon expanded =
      server::parse_horizon_json(curve_body, instance);
  EXPECT_EQ(expanded.num_periods(), 6);
  for (int t = 0; t < expanded.num_periods(); ++t) {
    EXPECT_GE(expanded.multiplier(t, 0), 0.3 - 1e-9);
    EXPECT_LE(expanded.multiplier(t, 0), 1.2 + 1e-9);
  }

  // A body with no v2 members is the static horizon (every v1 request).
  EXPECT_TRUE(
      server::parse_horizon_json(json::Value::object(), instance).is_static());
}

TEST(ApiJsonTest, ParseHorizonJsonRejectsV2MembersInV1Bodies) {
  const ConsolidationInstance instance = small_instance();
  const auto rejects = [&](const json::Value& body) {
    EXPECT_THROW((void)server::parse_horizon_json(body, instance),
                 InvalidInputError);
  };

  // Multi-period members without "api_version": 2 must not silently work.
  json::Value v1_with_periods = json::Value::object();
  v1_with_periods.set("periods", json::Value::array());
  rejects(v1_with_periods);
  json::Value v1_with_migration = json::Value::object();
  v1_with_migration.set("migration_cost_per_server", json::Value::number(1.0));
  rejects(v1_with_migration);

  json::Value future = json::Value::object();
  future.set("api_version", json::Value::number(3));
  rejects(future);

  json::Value both = json::Value::object();
  both.set("api_version", json::Value::number(2));
  both.set("periods", json::Value::array());
  both.set("traffic_curve", json::Value::object());
  rejects(both);  // mutually exclusive

  json::Value unknown_key = json::Value::object();
  unknown_key.set("api_version", json::Value::number(2));
  json::Value typo_periods = json::Value::array();
  json::Value typo_period = json::Value::object();
  typo_period.set("multipler", json::Value::number(1.0));
  typo_periods.push(std::move(typo_period));
  unknown_key.set("periods", std::move(typo_periods));
  rejects(unknown_key);

  json::Value bad_site = json::Value::object();
  bad_site.set("api_version", json::Value::number(2));
  json::Value failing_periods = json::Value::array();
  json::Value failing = json::Value::object();
  json::Value failed = json::Value::array();
  failed.push(json::Value::string("no-such-site"));
  failing.set("failed_sites", std::move(failed));
  failing_periods.push(std::move(failing));
  bad_site.set("periods", std::move(failing_periods));
  rejects(bad_site);
}

TEST(ApiJsonTest, FingerprintSeparatesHorizonAndPlacementLock) {
  const PlannerOptions options;
  const PlanningHorizon two = PlanningHorizon::uniform(2);
  const std::string fp_static = server::options_fingerprint(options, 0.0);
  const std::string fp_two = server::options_fingerprint(options, 0.0, two);
  EXPECT_NE(fp_static, fp_two);
  EXPECT_NE(fp_two, server::options_fingerprint(options, 0.0,
                                                PlanningHorizon::uniform(3)));
  EXPECT_NE(fp_two, server::options_fingerprint(
                        options, 0.0, PlanningHorizon::uniform(2, 5.0)));
  EXPECT_NE(fp_two, server::options_fingerprint(options, 0.0, two, true));
  EXPECT_EQ(fp_two, server::options_fingerprint(options, 0.0,
                                                PlanningHorizon::uniform(2)));
}

// ---- daemon over HTTP ----------------------------------------------------

/// Boots a daemon on an ephemeral port and tears it down on scope exit.
struct DaemonFixture {
  explicit DaemonFixture(DaemonOptions options = {}) : daemon(prepare(options)) {
    daemon.start();
  }
  static DaemonOptions prepare(DaemonOptions options) {
    options.port = 0;  // ephemeral
    return options;
  }

  ClientResponse request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
    ClientResponse response;
    std::string error;
    if (!server::http_request(daemon.port(), method, target, body, &response,
                              &error)) {
      ADD_FAILURE() << "http_request failed: " << error;
    }
    return response;
  }

  json::Value request_json(const std::string& method,
                           const std::string& target,
                           const std::string& body = "",
                           int expected_status = -1) {
    const ClientResponse response = request(method, target, body);
    if (expected_status >= 0) {
      EXPECT_EQ(response.status, expected_status) << response.body;
    }
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(response.body, doc, &error))
        << error << ": " << response.body;
    return doc;
  }

  /// POSTs a plan request for `instance`; returns the response document.
  json::Value submit(const ConsolidationInstance& instance,
                     const std::string& engine = "heuristic",
                     bool cache = true, double time_limit_ms = 0.0,
                     bool dr = false) {
    json::Value body = json::Value::object();
    body.set("instance", json::Value::string(write_instance(instance)));
    json::Value options = json::Value::object();
    options.set("engine", json::Value::string(engine));
    if (dr) options.set("dr", json::Value::boolean(true));
    body.set("options", std::move(options));
    if (!cache) body.set("cache", json::Value::boolean(false));
    if (time_limit_ms > 0.0) {
      body.set("time_limit_ms", json::Value::number(time_limit_ms));
    }
    return request_json("POST", "/v1/plan", body.dump());
  }

  /// POSTs an api_version 2 plan request: a T-period peak/trough horizon
  /// with a unit migration rate, solved by the heuristic engine.
  /// `weight` > 0 gives every period that duration (0 = the auto 1/T).
  json::Value submit_v2(const ConsolidationInstance& instance, int num_periods,
                        bool cache = true, double weight = 0.0) {
    json::Value body = json::Value::object();
    body.set("instance", json::Value::string(write_instance(instance)));
    body.set("api_version", json::Value::number(2));
    json::Value periods = json::Value::array();
    for (int t = 0; t < num_periods; ++t) {
      json::Value period = json::Value::object();
      period.set("multiplier", json::Value::number(t % 2 == 0 ? 1.0 : 0.5));
      if (weight > 0.0) period.set("weight", json::Value::number(weight));
      periods.push(std::move(period));
    }
    body.set("periods", std::move(periods));
    body.set("migration_cost_per_server", json::Value::number(1.0));
    json::Value options = json::Value::object();
    options.set("engine", json::Value::string("heuristic"));
    body.set("options", std::move(options));
    if (!cache) body.set("cache", json::Value::boolean(false));
    return request_json("POST", "/v1/plan", body.dump());
  }

  /// Polls a job to a terminal state; returns the final status document.
  json::Value await(long long job) {
    while (true) {
      json::Value doc =
          request_json("GET", "/v1/jobs/" + std::to_string(job), "", 200);
      const std::string state = doc.get("state")->str;
      if (state == "done" || state == "cancelled" || state == "failed") {
        return doc;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  PlannerDaemon daemon;
};

long long job_id(const json::Value& doc) {
  const json::Value* id = doc.get("job");
  EXPECT_NE(id, nullptr);
  return id != nullptr ? static_cast<long long>(id->num) : -1;
}

TEST(ServerTest, PlanSubmitPollAndResultDocument) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  const json::Value submitted = fixture.submit(instance);
  const json::Value done = fixture.await(job_id(submitted));
  EXPECT_EQ(done.get("state")->str, "done");
  EXPECT_FALSE(done.get("cache_hit")->b);
  const json::Value* result = done.get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->get("cost")->get("total")->num, 0.0);
  EXPECT_EQ(result->get("assignments")->arr.size(),
            static_cast<std::size_t>(instance.num_groups()));
  EXPECT_FALSE(result->get("algorithm")->str.empty());
  EXPECT_GT(result->get("solve_ms")->num, 0.0);
}

TEST(ServerTest, SecondIdenticalSubmissionIsACacheHit) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  const json::Value first = fixture.submit(instance);
  const json::Value cold = fixture.await(job_id(first));

  const json::Value second = fixture.submit(instance);
  // A hit is terminal in the submission response itself.
  EXPECT_EQ(second.get("state")->str, "done");
  EXPECT_TRUE(second.get("cache_hit")->b);
  EXPECT_EQ(second.get("result")->get("cost")->get("total")->num,
            cold.get("result")->get("cost")->get("total")->num);

  // Different options -> different fingerprint -> miss.
  const json::Value third = fixture.submit(instance, "heuristic", true, 5000);
  EXPECT_EQ(third.get("state")->str, "queued");
  fixture.await(job_id(third));

  // cache=false bypasses the probe even for an identical request.
  const json::Value fourth = fixture.submit(instance, "heuristic", false);
  EXPECT_EQ(fourth.get("state")->str, "queued");
  fixture.await(job_id(fourth));
}

double upload_reuses(PlannerDaemon& daemon) {
  return daemon.metrics().counter("etransform_server_upload_reuses_total")
      .value();
}

std::string plan_body_for(const std::string& etf,
                          const std::string& engine = "heuristic") {
  json::Value body = json::Value::object();
  body.set("instance", json::Value::string(etf));
  json::Value options = json::Value::object();
  options.set("engine", json::Value::string(engine));
  body.set("options", std::move(options));
  return body.dump();
}

TEST(ServerTest, ResubmittedUploadIsServedWithoutReparsing) {
  DaemonFixture fixture;
  const std::string body = plan_body_for(write_instance(small_instance()));
  const json::Value first = fixture.request_json("POST", "/v1/plan", body, 202);
  const json::Value cold = fixture.await(job_id(first));
  EXPECT_EQ(upload_reuses(fixture.daemon), 0.0);

  const json::Value second = fixture.request_json("POST", "/v1/plan", body, 200);
  EXPECT_TRUE(second.get("cache_hit")->b);
  EXPECT_EQ(upload_reuses(fixture.daemon), 1.0);
  EXPECT_EQ(second.get("result")->dump(), cold.get("result")->dump());

  // New options reuse the upload too, and still solve: the key misses.
  const json::Value exact = fixture.request_json(
      "POST", "/v1/plan", plan_body_for(write_instance(small_instance()), "exact"),
      202);
  EXPECT_EQ(upload_reuses(fixture.daemon), 2.0);
  EXPECT_EQ(fixture.await(job_id(exact)).get("state")->str, "done");
}

/// A hand-written estate: comments, the as-is center before the groups,
/// runs of spaces and numbers like 1e6, so write_instance() spells it
/// differently. (Whitespace separates fields, so no name holds a space.)
constexpr const char* kHandWrittenEstate = R"(# exported estate
etransform-instance v1
name   north-campus
params 0.35 130 1e6 1000 730
location east 0 0
location west 100 0
site colo-a 10 0 50
site.space colo-a 20 100 inf 80
site.power colo-a inf 0.1
site.labor colo-a inf 6000
site.wan colo-a inf 1.5e-5
site.latency colo-a 5 30
site colo-b 90 0 50
site.space colo-b inf 120
site.power colo-b inf 0.12
site.labor colo-b inf 7000
site.wan colo-b inf 1.5e-5
site.latency colo-b 30 5
asis room 0 0 250 3e-5 0.2 9000   # the current machine room
asis.latency room 6 28
group crm 8 1e6 100 0
group.penalty crm 10 100
group erp 12 2e6 50 50
group.allow erp colo-a colo-b
place crm room
place erp room
end
)";

TEST(ServerTest, NonCanonicalUploadsStillHitThroughCanonicalization) {
  DaemonFixture fixture;
  const std::string text = kHandWrittenEstate;
  ASSERT_NE(write_instance(parse_instance(text)), text);
  const json::Value first =
      fixture.request_json("POST", "/v1/plan", plan_body_for(text), 202);
  const json::Value cold = fixture.await(job_id(first));
  ASSERT_EQ(cold.get("state")->str, "done");

  // Verbatim, with another comment, and in the canonical spelling: each is
  // parsed and canonicalized as before, and the canonical key hits. The
  // entry kept no instance (its upload was not canonical), so none of
  // these is an upload reuse.
  for (const std::string& variant :
       {text, "# re-exported\n" + text, write_instance(parse_instance(text))}) {
    const json::Value hit =
        fixture.request_json("POST", "/v1/plan", plan_body_for(variant), 200);
    EXPECT_TRUE(hit.get("cache_hit")->b);
    EXPECT_EQ(hit.get("result")->dump(), cold.get("result")->dump());
  }
  EXPECT_EQ(upload_reuses(fixture.daemon), 0.0);
}

TEST(ServerTest, HitJobIsTheSameReplanBaseAsTheOriginalEvenAfterEviction) {
  DaemonOptions options;
  options.cache_bytes = 24 << 10;  // a few small entries
  DaemonFixture fixture(options);
  Rng rng(17);
  const ConsolidationInstance instance = make_random_instance(rng, 10, 4, 2);
  const long long original = job_id(fixture.submit(instance, "exact"));
  ASSERT_EQ(fixture.await(original).get("state")->str, "done");
  const json::Value hit = fixture.submit(instance, "exact");
  ASSERT_TRUE(hit.get("cache_hit")->b);
  const long long hit_job = job_id(hit);

  const auto replan_result = [&](long long base) {
    json::Value replan = json::Value::object();
    replan.set("base_job", json::Value::number(static_cast<double>(base)));
    json::Value pin = json::Value::object();
    pin.set("group", json::Value::number(0));
    pin.set("site", json::Value::number(1));
    json::Value pins = json::Value::array();
    pins.push(std::move(pin));
    json::Value delta = json::Value::object();
    delta.set("pin", std::move(pins));
    replan.set("delta", std::move(delta));
    replan.set("cache", json::Value::boolean(false));
    const json::Value submitted =
        fixture.request_json("POST", "/v1/replan", replan.dump(), 202);
    EXPECT_TRUE(submitted.get("warm_started")->b);
    const json::Value done = fixture.await(job_id(submitted));
    EXPECT_EQ(done.get("state")->str, "done");
    json::Value result = *done.get("result");
    result.set("solve_ms", json::Value::number(0.0));  // wall time differs
    return result.dump();
  };
  const std::string from_original = replan_result(original);
  EXPECT_EQ(replan_result(hit_job), from_original);

  // Push the entry out of the cache; the hit job keeps its instance.
  const double evictions_before =
      fixture.daemon.metrics().counter("etransform_server_cache_evictions_total")
          .value();
  for (std::uint64_t seed = 100;
       fixture.daemon.metrics()
               .counter("etransform_server_cache_evictions_total")
               .value() == evictions_before && seed < 140;
       ++seed) {
    fixture.await(job_id(fixture.submit(small_instance(seed))));
  }
  const json::Value resubmitted = fixture.submit(instance, "exact");
  EXPECT_EQ(resubmitted.get("state")->str, "queued");  // evicted: a miss
  fixture.await(job_id(resubmitted));
  EXPECT_EQ(replan_result(hit_job), from_original);
}

/// The status document must keep the bytes a DOM round trip would write:
/// the stored result text is spliced in, not re-serialized.
void expect_dom_bytes(const std::string& body) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(body, doc, &error)) << error;
  EXPECT_EQ(doc.dump(), body);
  ASSERT_FALSE(doc.obj.empty());
  EXPECT_EQ(doc.obj.back().first, "result");
}

TEST(ServerTest, StatusBodiesAreByteEqualToTheirDomRoundTrip) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  const auto get_body = [&](long long id) {
    const ClientResponse response =
        fixture.request("GET", "/v1/jobs/" + std::to_string(id));
    EXPECT_EQ(response.status, 200);
    return response.body;
  };

  // Miss: the POST is a bare 202; the terminal GET carries the result.
  const long long miss = job_id(fixture.submit(instance, "exact"));
  fixture.await(miss);
  expect_dom_bytes(get_body(miss));

  // Hit: the POST answer is the job's status document itself.
  const ClientResponse hit_post = fixture.request(
      "POST", "/v1/plan", plan_body_for(write_instance(instance), "exact"));
  ASSERT_EQ(hit_post.status, 200);
  expect_dom_bytes(hit_post.body);
  json::Value hit_doc;
  ASSERT_TRUE(json::parse(hit_post.body, hit_doc));
  EXPECT_EQ(get_body(job_id(hit_doc)), hit_post.body);

  // Replan: base_job/warm_started precede the result.
  json::Value replan = json::Value::object();
  replan.set("base_job", json::Value::number(static_cast<double>(miss)));
  replan.set("cache", json::Value::boolean(false));
  const long long replanned = job_id(
      fixture.request_json("POST", "/v1/replan", replan.dump(), 202));
  fixture.await(replanned);
  const std::string replan_body = get_body(replanned);
  expect_dom_bytes(replan_body);
  EXPECT_NE(replan_body.find("\"warm_started\":true,\"solve_ms\":"),
            std::string::npos)
      << replan_body;
}

TEST(ServerTest, MultiPeriodPlanCarriesTheHorizonSubtree) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  const json::Value done =
      fixture.await(job_id(fixture.submit_v2(instance, 2)));
  ASSERT_EQ(done.get("state")->str, "done");
  const json::Value* result = done.get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get("api_version")->num, 2);
  const json::Value* horizon = result->get("horizon");
  ASSERT_NE(horizon, nullptr);
  ASSERT_EQ(horizon->get("periods")->arr.size(), 2u);
  EXPECT_GT(horizon->get("cost")->get("total")->num, 0.0);
  EXPECT_FALSE(horizon->get("algorithm")->str.empty());
  // v1 consumers read the first period through the top-level members.
  EXPECT_DOUBLE_EQ(
      result->get("cost")->get("total")->num,
      horizon->get("periods")->arr[0].get("cost")->get("total")->num);
  EXPECT_EQ(result->get("assignments")->arr.size(),
            static_cast<std::size_t>(instance.num_groups()));

  // A static solve of the same instance has no horizon subtree.
  const json::Value static_done =
      fixture.await(job_id(fixture.submit(instance)));
  ASSERT_EQ(static_done.get("state")->str, "done");
  EXPECT_EQ(static_done.get("result")->get("horizon"), nullptr);
}

TEST(ServerTest, V1BodiesCannotSmuggleMultiPeriodMembers) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();

  // "periods" without "api_version": 2 is a 400, not a silent upgrade.
  json::Value smuggled = json::Value::object();
  smuggled.set("instance", json::Value::string(write_instance(instance)));
  json::Value periods = json::Value::array();
  json::Value period = json::Value::object();
  period.set("multiplier", json::Value::number(0.5));
  periods.push(std::move(period));
  smuggled.set("periods", std::move(periods));
  EXPECT_EQ(fixture.request("POST", "/v1/plan", smuggled.dump()).status, 400);

  // lock_placement is meaningless without a horizon to lock across.
  json::Value lock_only = json::Value::object();
  lock_only.set("instance", json::Value::string(write_instance(instance)));
  lock_only.set("lock_placement", json::Value::boolean(true));
  EXPECT_EQ(fixture.request("POST", "/v1/plan", lock_only.dump()).status, 400);
}

TEST(ServerTest, CacheNeverMixesStaticAndMultiPeriodResults) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  fixture.await(job_id(fixture.submit(instance)));

  // Same instance and options, but a horizon: must be a fresh solve.
  const json::Value multi = fixture.submit_v2(instance, 2);
  EXPECT_EQ(multi.get("state")->str, "queued");
  fixture.await(job_id(multi));

  // Identical multi-period resubmission hits, and serves the horizon tree.
  const json::Value again = fixture.submit_v2(instance, 2);
  EXPECT_EQ(again.get("state")->str, "done");
  EXPECT_TRUE(again.get("cache_hit")->b);
  EXPECT_NE(again.get("result")->get("horizon"), nullptr);

  // A different period count is a different fingerprint.
  const json::Value longer = fixture.submit_v2(instance, 3);
  EXPECT_EQ(longer.get("state")->str, "queued");
  fixture.await(job_id(longer));

  // And the static entry is still intact.
  const json::Value static_again = fixture.submit(instance);
  EXPECT_EQ(static_again.get("state")->str, "done");
  EXPECT_TRUE(static_again.get("cache_hit")->b);
  EXPECT_EQ(static_again.get("result")->get("horizon"), nullptr);
}

TEST(ServerTest, PeriodWeightsDifferingInTheThirteenthDigitMiss) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  fixture.await(job_id(fixture.submit_v2(instance, 2, true, 1.0)));
  const json::Value again = fixture.submit_v2(instance, 2, true, 1.0);
  EXPECT_EQ(again.get("state")->str, "done");
  EXPECT_TRUE(again.get("cache_hit")->b);

  // Equal to 12 significant digits, but a different horizon: a fresh solve,
  // not the first request's result.
  const json::Value near = fixture.submit_v2(instance, 2, true, 1.0 + 1e-12);
  EXPECT_EQ(near.get("state")->str, "queued");
  fixture.await(job_id(near));
}

TEST(ServerTest, MalformedRequestsGetHttp400AndUnknownPaths404) {
  DaemonFixture fixture;
  EXPECT_EQ(fixture.request("POST", "/v1/plan", "not json").status, 400);
  EXPECT_EQ(fixture.request("POST", "/v1/plan", "{}").status, 400);
  json::Value body = json::Value::object();
  body.set("instance", json::Value::string("etransform-instance v1\ngarbage"));
  EXPECT_EQ(fixture.request("POST", "/v1/plan", body.dump()).status, 400);
  // The search has one width: the option that widened it is an unknown key.
  body.set("instance", json::Value::string(write_instance(small_instance())));
  json::Value options = json::Value::object();
  options.set("deterministic", json::Value::boolean(true));
  body.set("options", std::move(options));
  const ClientResponse widened =
      fixture.request("POST", "/v1/plan", body.dump());
  EXPECT_EQ(widened.status, 400);
  EXPECT_NE(widened.body.find("options: unknown key 'deterministic'"),
            std::string::npos)
      << widened.body;
  EXPECT_EQ(fixture.request("GET", "/v1/jobs/999").status, 404);
  EXPECT_EQ(fixture.request("GET", "/nope").status, 404);
  EXPECT_EQ(fixture.request("GET", "/healthz").status, 200);
}

TEST(ServerTest, QueuedJobCancelledOverHttpNeverRuns) {
  DaemonOptions options;
  options.workers = 1;
  DaemonFixture fixture(options);
  Rng rng(11);
  // Occupy the single worker with a capped joint-DR exact solve (runs to its
  // time limit unless cancelled; a plain exact solve here is milliseconds).
  const ConsolidationInstance big = make_random_instance(rng, 20, 6, 3);
  const json::Value blocker =
      fixture.submit(big, "exact", false, 10000.0, /*dr=*/true);
  // ...then cancel a queued job before the worker can reach it.
  const json::Value queued = fixture.submit(small_instance(), "heuristic",
                                            /*cache=*/false);
  const long long queued_id = job_id(queued);
  const json::Value cancel = fixture.request_json(
      "POST", "/v1/jobs/" + std::to_string(queued_id) + "/cancel", "", 200);
  EXPECT_TRUE(cancel.get("cancel_requested")->b);
  const json::Value final_state = fixture.await(queued_id);
  EXPECT_EQ(final_state.get("state")->str, "cancelled");
  EXPECT_EQ(final_state.get("result"), nullptr);  // never ran
  // Unblock the worker.
  fixture.request("POST", "/v1/jobs/" + std::to_string(job_id(blocker)) +
                              "/cancel");
  fixture.await(job_id(blocker));
}

TEST(ServerTest, BackpressureRejectsWith429AndRetryAfter) {
  DaemonOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  DaemonFixture fixture(options);
  Rng rng(13);
  const ConsolidationInstance big = make_random_instance(rng, 20, 6, 3);
  const json::Value running =
      fixture.submit(big, "exact", false, 10000.0, /*dr=*/true);
  // Wait until the blocker is claimed so the next submit is truly queued.
  while (fixture
             .request_json("GET",
                           "/v1/jobs/" + std::to_string(job_id(running)))
             .get("state")
             ->str == "queued") {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const json::Value queued = fixture.submit(small_instance(), "heuristic",
                                            /*cache=*/false);
  EXPECT_EQ(queued.get("state")->str, "queued");

  json::Value body = json::Value::object();
  body.set("instance",
           json::Value::string(write_instance(small_instance(99))));
  body.set("cache", json::Value::boolean(false));
  const ClientResponse rejected =
      fixture.request("POST", "/v1/plan", body.dump());
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(rejected.headers.at("retry-after"), "1");

  fixture.request("POST",
                  "/v1/jobs/" + std::to_string(job_id(running)) + "/cancel");
  fixture.await(job_id(running));
  fixture.await(job_id(queued));
}

TEST(ServerTest, ReplanWithDeltaMatchesFreshSolveOfModifiedInstance) {
  DaemonFixture fixture;
  Rng rng(17);
  const ConsolidationInstance instance = make_random_instance(rng, 10, 4, 2);
  const json::Value base = fixture.submit(instance, "exact", true, 0.0);
  const json::Value base_done = fixture.await(job_id(base));
  ASSERT_EQ(base_done.get("state")->str, "done");

  // Replan: pin group 0 to site 1 (delta path, warm-started).
  json::Value replan = json::Value::object();
  replan.set("base_job", json::Value::number(
                             static_cast<double>(job_id(base))));
  json::Value delta = json::Value::object();
  json::Value pins = json::Value::array();
  json::Value pin = json::Value::object();
  pin.set("group", json::Value::number(0));
  pin.set("site", json::Value::number(1));
  pins.push(std::move(pin));
  delta.set("pin", std::move(pins));
  replan.set("delta", std::move(delta));
  replan.set("cache", json::Value::boolean(false));
  const json::Value replan_submitted =
      fixture.request_json("POST", "/v1/replan", replan.dump(), 202);
  EXPECT_TRUE(replan_submitted.get("warm_started")->b);
  const json::Value replanned = fixture.await(job_id(replan_submitted));
  ASSERT_EQ(replanned.get("state")->str, "done");

  // Fresh solve of the identically-modified instance must cost the same.
  ScenarioSession session(instance);
  session.pin_group(0, 1);
  json::Value fresh_body = json::Value::object();
  fresh_body.set("instance",
                 json::Value::string(write_instance(session.instance())));
  json::Value fresh_options = json::Value::object();
  fresh_options.set("engine", json::Value::string("exact"));
  fresh_body.set("options", std::move(fresh_options));
  fresh_body.set("cache", json::Value::boolean(false));
  const json::Value fresh =
      fixture.request_json("POST", "/v1/plan", fresh_body.dump(), 202);
  const json::Value fresh_done = fixture.await(job_id(fresh));
  ASSERT_EQ(fresh_done.get("state")->str, "done");

  EXPECT_DOUBLE_EQ(
      replanned.get("result")->get("cost")->get("total")->num,
      fresh_done.get("result")->get("cost")->get("total")->num);
}

TEST(ServerTest, ReplanInheritsTheBaseJobsHorizon) {
  DaemonFixture fixture;
  const ConsolidationInstance instance = small_instance();
  const json::Value base = fixture.submit_v2(instance, 2, /*cache=*/false);
  const json::Value base_done = fixture.await(job_id(base));
  ASSERT_EQ(base_done.get("state")->str, "done");

  // No v2 members in the replan body: the delta solves under the base
  // job's horizon, so the result is still multi-period.
  json::Value replan = json::Value::object();
  replan.set("base_job",
             json::Value::number(static_cast<double>(job_id(base))));
  json::Value delta = json::Value::object();
  json::Value pins = json::Value::array();
  json::Value pin = json::Value::object();
  pin.set("group", json::Value::number(0));
  pin.set("site", json::Value::number(1));
  pins.push(std::move(pin));
  delta.set("pin", std::move(pins));
  replan.set("delta", std::move(delta));
  replan.set("cache", json::Value::boolean(false));
  const json::Value submitted =
      fixture.request_json("POST", "/v1/replan", replan.dump(), 202);
  const json::Value replanned = fixture.await(job_id(submitted));
  ASSERT_EQ(replanned.get("state")->str, "done");
  const json::Value* horizon = replanned.get("result")->get("horizon");
  ASSERT_NE(horizon, nullptr);
  EXPECT_EQ(horizon->get("periods")->arr.size(), 2u);
}

TEST(ServerTest, ReplanOfAReplanWarmStartsAndMatchesFreshSolve) {
  // Replan chains deeper than one hop: a completed replan job is itself a
  // valid warm-start base, so an operator can iterate deltas without ever
  // paying a cold solve.
  DaemonFixture fixture;
  Rng rng(29);
  const ConsolidationInstance instance = make_random_instance(rng, 10, 4, 2);
  const json::Value base = fixture.submit(instance, "exact", true, 0.0);
  ASSERT_EQ(fixture.await(job_id(base)).get("state")->str, "done");

  const auto replan_with_pin = [&](long long base_job, int group, int site) {
    json::Value replan = json::Value::object();
    replan.set("base_job", json::Value::number(static_cast<double>(base_job)));
    json::Value delta = json::Value::object();
    json::Value pins = json::Value::array();
    json::Value pin = json::Value::object();
    pin.set("group", json::Value::number(group));
    pin.set("site", json::Value::number(site));
    pins.push(std::move(pin));
    delta.set("pin", std::move(pins));
    replan.set("delta", std::move(delta));
    replan.set("cache", json::Value::boolean(false));
    return fixture.request_json("POST", "/v1/replan", replan.dump(), 202);
  };

  // Hop 1: pin group 0. Hop 2: replan *of the replan*, adding a pin on
  // group 1. Both hops must warm-start from their base's stored basis.
  const json::Value hop1 = replan_with_pin(job_id(base), 0, 1);
  EXPECT_TRUE(hop1.get("warm_started")->b);
  ASSERT_EQ(fixture.await(job_id(hop1)).get("state")->str, "done");

  const json::Value hop2 = replan_with_pin(job_id(hop1), 1, 0);
  EXPECT_TRUE(hop2.get("warm_started")->b);
  const json::Value hop2_done = fixture.await(job_id(hop2));
  ASSERT_EQ(hop2_done.get("state")->str, "done");

  // A fresh solve with both pins applied must land on the same cost.
  ScenarioSession session(instance);
  session.pin_group(0, 1);
  session.pin_group(1, 0);
  json::Value fresh_body = json::Value::object();
  fresh_body.set("instance",
                 json::Value::string(write_instance(session.instance())));
  json::Value fresh_options = json::Value::object();
  fresh_options.set("engine", json::Value::string("exact"));
  fresh_body.set("options", std::move(fresh_options));
  fresh_body.set("cache", json::Value::boolean(false));
  const json::Value fresh =
      fixture.request_json("POST", "/v1/plan", fresh_body.dump(), 202);
  const json::Value fresh_done = fixture.await(job_id(fresh));
  ASSERT_EQ(fresh_done.get("state")->str, "done");

  EXPECT_DOUBLE_EQ(
      hop2_done.get("result")->get("cost")->get("total")->num,
      fresh_done.get("result")->get("cost")->get("total")->num);
}

TEST(ServerTest, ReplanRequiresTerminalDoneBase) {
  DaemonFixture fixture;
  json::Value replan = json::Value::object();
  replan.set("base_job", json::Value::number(404));
  EXPECT_EQ(fixture.request("POST", "/v1/replan", replan.dump()).status, 404);
}

TEST(ServerTest, ReplanRejectsOutOfRangeNumericReferences) {
  DaemonFixture fixture;
  const json::Value base = fixture.submit(small_instance());
  fixture.await(job_id(base));

  // A group/site index that cannot survive the double->int cast (huge,
  // negative, fractional) must come back 400, not invoke UB.
  const auto pin_status = [&](double group_ref, double site_ref) {
    json::Value replan = json::Value::object();
    replan.set("base_job",
               json::Value::number(static_cast<double>(job_id(base))));
    json::Value pin = json::Value::object();
    pin.set("group", json::Value::number(group_ref));
    pin.set("site", json::Value::number(site_ref));
    json::Value pins = json::Value::array();
    pins.push(std::move(pin));
    json::Value delta = json::Value::object();
    delta.set("pin", std::move(pins));
    replan.set("delta", std::move(delta));
    return fixture.request("POST", "/v1/replan", replan.dump()).status;
  };
  EXPECT_EQ(pin_status(1e300, 0), 400);
  EXPECT_EQ(pin_status(0, 1e300), 400);
  EXPECT_EQ(pin_status(-1, 0), 400);
  EXPECT_EQ(pin_status(1.5, 0), 400);

  // base_job gets the same treatment before its long long cast.
  json::Value replan = json::Value::object();
  replan.set("base_job", json::Value::number(1e300));
  EXPECT_EQ(fixture.request("POST", "/v1/replan", replan.dump()).status, 400);
  replan.set("base_job", json::Value::number(2.5));
  EXPECT_EQ(fixture.request("POST", "/v1/replan", replan.dump()).status, 400);
}

TEST(ServerTest, OldestTerminalJobsAgeOutOfTheRegistry) {
  DaemonOptions options;
  options.max_jobs = 2;
  DaemonFixture fixture(options);
  const long long first = job_id(fixture.submit(small_instance(1)));
  fixture.await(first);
  const long long second = job_id(fixture.submit(small_instance(2)));
  fixture.await(second);
  // Registering the third job pushes the registry past the cap; the first
  // (oldest terminal) job is dropped and its id 404s from then on.
  const long long third = job_id(fixture.submit(small_instance(3)));
  fixture.await(third);
  EXPECT_EQ(
      fixture.request("GET", "/v1/jobs/" + std::to_string(first)).status, 404);
  EXPECT_EQ(
      fixture.request("GET", "/v1/jobs/" + std::to_string(third)).status, 200);
  // An aged-out id is gone as a replan base too.
  json::Value replan = json::Value::object();
  replan.set("base_job", json::Value::number(static_cast<double>(first)));
  EXPECT_EQ(fixture.request("POST", "/v1/replan", replan.dump()).status, 404);
}

TEST(ServerTest, OversizedDeclaredBodyGets413) {
  DaemonFixture fixture;
  // The client helper always sends Content-Length == body size, so speak
  // raw sockets: declare a body far past kMaxBodyBytes and send none.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(fixture.daemon.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request =
      "POST /v1/plan HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 999999999999\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("413 Payload Too Large"), std::string::npos)
      << response;
}

TEST(ServerTest, EventStreamEndsWithTerminalState) {
  DaemonFixture fixture;
  const json::Value submitted =
      fixture.submit(small_instance(), "exact", false);
  const long long id = job_id(submitted);
  // The chunked stream closes once the job is terminal; the client helper
  // de-chunks the whole body.
  const ClientResponse stream = fixture.request(
      "GET", "/v1/jobs/" + std::to_string(id) + "/events");
  EXPECT_EQ(stream.status, 200);
  const std::size_t last_line_start =
      stream.body.rfind('\n', stream.body.size() - 2);
  const std::string last_line = stream.body.substr(
      last_line_start == std::string::npos ? 0 : last_line_start + 1);
  EXPECT_EQ(last_line, "state done\n");
  EXPECT_NE(stream.body.find("queued"), std::string::npos);
}

TEST(ServerTest, DrainRejectsNewWorkAndHealthzTurns503) {
  DaemonFixture fixture;
  const json::Value before = fixture.submit(small_instance());
  fixture.await(job_id(before));
  fixture.daemon.request_drain();
  EXPECT_EQ(fixture.request("GET", "/healthz").status, 503);
  const ClientResponse rejected = fixture.request(
      "POST", "/v1/plan", "{\"instance\":\"x\"}");
  EXPECT_EQ(rejected.status, 503);
  // Existing jobs stay queryable during the drain.
  EXPECT_EQ(fixture
                .request("GET", "/v1/jobs/" + std::to_string(job_id(before)))
                .status,
            200);
  fixture.daemon.stop();
}

TEST(ServerTest, MetricsEndpointExposesServerFamilies) {
  DaemonFixture fixture;
  const json::Value submitted = fixture.submit(small_instance());
  fixture.await(job_id(submitted));
  fixture.submit(small_instance());  // cache hit
  const ClientResponse metrics = fixture.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  for (const char* family :
       {"etransform_server_requests_total", "etransform_server_cache_hits_total",
        "etransform_server_cache_misses_total",
        "etransform_server_upload_reuses_total",
        "etransform_server_rejected_total", "etransform_server_queue_depth",
        "etransform_server_jobs_inflight", "etransform_server_request_ms",
        "etransform_farm_jobs_submitted_total"}) {
    EXPECT_NE(metrics.body.find(family), std::string::npos) << family;
  }
}

TEST(ServerTest, ConcurrentSubmissionHammer) {
  DaemonOptions options;
  options.workers = 4;
  options.max_queue_depth = 256;
  DaemonFixture fixture(options);
  // Three distinct instances: submissions race each other to be the first
  // cold solve; the rest hit the cache or solve redundantly — all must
  // land terminal with consistent documents.
  std::vector<std::string> texts;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    texts.push_back(write_instance(small_instance(seed)));
  }
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &texts, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        json::Value body = json::Value::object();
        body.set("instance",
                 json::Value::string(texts[(t + i) % texts.size()]));
        ClientResponse response;
        if (!server::http_request(fixture.daemon.port(), "POST", "/v1/plan",
                                  body.dump(), &response, nullptr) ||
            (response.status != 200 && response.status != 202)) {
          ++failures;
          continue;
        }
        json::Value doc;
        if (!json::parse(response.body, doc, nullptr) ||
            doc.get("job") == nullptr) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every admitted job reaches a terminal state before stop() returns.
  fixture.daemon.stop();
  const std::string exposition = fixture.daemon.metrics().render_prometheus();
  EXPECT_NE(exposition.find("etransform_server_cache_hits_total"),
            std::string::npos);
}

// ---- request-scoped observability ----------------------------------------

/// Parses a /trace body and asserts every event belongs to `job`: the
/// Chrome trace is request-scoped, not the shared rings verbatim.
void expect_trace_scoped_to(const std::string& body, long long job,
                            std::size_t* events_out = nullptr) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(body, doc, &error)) << error;
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t events_seen = 0;
  for (const json::Value& e : events->arr) {
    if (e.get("ph")->str == "M") continue;
    const json::Value* args = e.get("args");
    ASSERT_NE(args, nullptr);
    const json::Value* trace_id = args->get("trace_id");
    ASSERT_NE(trace_id, nullptr);
    EXPECT_EQ(trace_id->num, static_cast<double>(job))
        << "foreign span leaked into job " << job << "'s trace";
    ++events_seen;
  }
  if (events_out != nullptr) *events_out = events_seen;
}

/// Asserts a /progress document's timeline is well-formed: time and nodes
/// non-decreasing, gap non-increasing (the "best proven gap" contract).
void expect_progress_monotone(const json::Value& doc) {
  const json::Value* timeline = doc.get("timeline");
  ASSERT_NE(timeline, nullptr);
  double last_time = -1.0;
  double last_nodes = -1.0;
  double last_gap = std::numeric_limits<double>::infinity();
  for (const json::Value& sample : timeline->arr) {
    const double time_ms = sample.get("time_ms")->num;
    const double nodes = sample.get("nodes")->num;
    EXPECT_GE(time_ms, last_time);
    EXPECT_GE(nodes, last_nodes);
    last_time = time_ms;
    last_nodes = nodes;
    if (const json::Value* gap = sample.get("gap")) {
      EXPECT_LE(gap->num, last_gap) << "gap must be non-increasing";
      last_gap = gap->num;
    }
  }
}

TEST(ServerTest, ProgressEndpointReportsMonotoneTimelineForLiveJob) {
  DaemonOptions options;
  options.workers = 1;
  DaemonFixture fixture(options);
  Rng rng(41);
  const ConsolidationInstance big = make_random_instance(rng, 20, 6, 3);
  const json::Value submitted =
      fixture.submit(big, "exact", false, 10000.0, /*dr=*/true);
  const long long id = job_id(submitted);
  const std::string target = "/v1/jobs/" + std::to_string(id) + "/progress";

  // Poll the live job until the solver has published something (or it
  // finished first — the timeline stays readable either way).
  json::Value doc;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    doc = fixture.request_json("GET", target, "", 200);
    const bool terminal = doc.get("state")->str == "done" ||
                          doc.get("state")->str == "cancelled" ||
                          doc.get("state")->str == "failed";
    if (!doc.get("timeline")->arr.empty() || terminal) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(doc.get("timeline")->arr.empty())
      << "a capped exact+dr solve must publish progress";
  expect_progress_monotone(doc);
  EXPECT_GE(doc.get("published")->num,
            static_cast<double>(doc.get("timeline")->arr.size()));

  fixture.request("POST", "/v1/jobs/" + std::to_string(id) + "/cancel");
  fixture.await(id);
  // Terminal jobs keep their timeline (the handle pins the ring).
  const json::Value after = fixture.request_json("GET", target, "", 200);
  expect_progress_monotone(after);
}

TEST(ServerTest, ProgressForCacheHitJobIsEmptyNotAnError) {
  DaemonFixture fixture;
  const json::Value first = fixture.submit(small_instance());
  fixture.await(job_id(first));
  const json::Value hit = fixture.submit(small_instance());
  ASSERT_TRUE(hit.get("cache_hit")->b);
  const json::Value doc = fixture.request_json(
      "GET", "/v1/jobs/" + std::to_string(job_id(hit)) + "/progress", "",
      200);
  EXPECT_EQ(doc.get("state")->str, "done");
  EXPECT_TRUE(doc.get("timeline")->arr.empty());
  EXPECT_EQ(doc.get("published")->num, 0.0);
}

TEST(ServerTest, TraceEndpointIsScopedToTheRequestedJob) {
  DaemonFixture fixture;
  Rng rng(43);
  // Two distinct exact solves, run to completion, sharing the daemon's
  // rings; each /trace must come back with only its own spans.
  const ConsolidationInstance a = make_random_instance(rng, 10, 4, 2);
  const ConsolidationInstance b = make_random_instance(rng, 10, 4, 2);
  const long long id_a = job_id(fixture.submit(a, "exact", false));
  const long long id_b = job_id(fixture.submit(b, "exact", false));
  fixture.await(id_a);
  fixture.await(id_b);
  for (const long long id : {id_a, id_b}) {
    const ClientResponse trace = fixture.request(
        "GET", "/v1/jobs/" + std::to_string(id) + "/trace");
    EXPECT_EQ(trace.status, 200);
    std::size_t events = 0;
    expect_trace_scoped_to(trace.body, id, &events);
    EXPECT_GT(events, 0u) << "job " << id << " must have recorded spans";
  }
}

TEST(ServerTest, SloViolationArmsTheFlightRecorder) {
  DaemonOptions options;
  options.slo_ms = 0.001;  // everything violates: the recorder always arms
  DaemonFixture fixture(options);
  const json::Value submitted =
      fixture.submit(small_instance(), "exact", false);
  const long long id = job_id(submitted);
  ASSERT_EQ(fixture.await(id).get("state")->str, "done");

  const ClientResponse trace = fixture.request(
      "GET", "/v1/jobs/" + std::to_string(id) + "/trace");
  EXPECT_EQ(trace.status, 200);
  std::size_t events = 0;
  expect_trace_scoped_to(trace.body, id, &events);
  EXPECT_GT(events, 0u) << "the flight recorder must have captured spans";

  const ClientResponse metrics = fixture.request("GET", "/metrics");
  EXPECT_NE(metrics.body.find("etransform_server_slo_violations_total 1"),
            std::string::npos)
      << metrics.body.substr(0, 400);
  EXPECT_NE(metrics.body.find("etransform_server_job_anomalies_total 1"),
            std::string::npos);
}

TEST(ServerTest, CancelledJobKeepsAFlightRecorderCapture) {
  DaemonOptions options;
  options.workers = 1;
  DaemonFixture fixture(options);
  Rng rng(47);
  const ConsolidationInstance big = make_random_instance(rng, 20, 6, 3);
  const json::Value submitted =
      fixture.submit(big, "exact", false, 10000.0, /*dr=*/true);
  const long long id = job_id(submitted);
  // Let it actually start solving before cancelling, so there are spans.
  while (fixture
             .request_json("GET", "/v1/jobs/" + std::to_string(id))
             .get("state")
             ->str == "queued") {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fixture.request("POST", "/v1/jobs/" + std::to_string(id) + "/cancel");
  ASSERT_EQ(fixture.await(id).get("state")->str, "cancelled");

  const ClientResponse trace = fixture.request(
      "GET", "/v1/jobs/" + std::to_string(id) + "/trace");
  EXPECT_EQ(trace.status, 200);
  std::size_t events = 0;
  expect_trace_scoped_to(trace.body, id, &events);
  EXPECT_GT(events, 0u);
  const ClientResponse metrics = fixture.request("GET", "/metrics");
  EXPECT_NE(metrics.body.find("etransform_server_job_anomalies_total 1"),
            std::string::npos);
}

TEST(ServerTest, MetricsExposeBuildInfoUptimeAndLatencySummaries) {
  DaemonFixture fixture;
  fixture.await(job_id(fixture.submit(small_instance())));
  const ClientResponse metrics = fixture.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("etransform_build_info 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("etransform_uptime_seconds "),
            std::string::npos);
  for (const char* line :
       {"etransform_server_request_ms_p50 ", "etransform_server_request_ms_p95 ",
        "etransform_server_request_ms_p99 "}) {
    EXPECT_NE(metrics.body.find(line), std::string::npos) << line;
  }
}

TEST(ServerTest, ConcurrentJobsKeepProgressAndTracesIsolated) {
  // The TSan-targeted hammer: N exact jobs in flight while pollers hit
  // /progress and /trace for every job. Each job's gap timeline must stay
  // monotone and its trace must never contain another job's spans.
  DaemonOptions options;
  options.workers = 4;
  options.max_queue_depth = 64;
  DaemonFixture fixture(options);
  constexpr int kJobs = 6;
  std::vector<long long> ids;
  for (int j = 0; j < kJobs; ++j) {
    Rng rng(100 + static_cast<std::uint64_t>(j));
    const ConsolidationInstance instance = make_random_instance(rng, 12, 4, 2);
    ids.push_back(
        job_id(fixture.submit(instance, "exact", false, 4000.0, /*dr=*/true)));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> pollers;
  for (int p = 0; p < 3; ++p) {
    pollers.emplace_back([&fixture, &ids, &stop, &violations] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const long long id : ids) {
          ClientResponse progress;
          if (server::http_request(
                  fixture.daemon.port(), "GET",
                  "/v1/jobs/" + std::to_string(id) + "/progress", "",
                  &progress, nullptr) &&
              progress.status == 200) {
            json::Value doc;
            if (!json::parse(progress.body, doc, nullptr)) {
              ++violations;
              continue;
            }
            double last_gap = std::numeric_limits<double>::infinity();
            for (const json::Value& s : doc.get("timeline")->arr) {
              if (const json::Value* gap = s.get("gap")) {
                if (gap->num > last_gap + 1e-12) ++violations;
                last_gap = gap->num;
              }
            }
          }
          ClientResponse trace;
          if (server::http_request(fixture.daemon.port(), "GET",
                                   "/v1/jobs/" + std::to_string(id) +
                                       "/trace",
                                   "", &trace, nullptr) &&
              trace.status == 200) {
            json::Value doc;
            if (!json::parse(trace.body, doc, nullptr)) {
              ++violations;
              continue;
            }
            for (const json::Value& e : doc.get("traceEvents")->arr) {
              if (e.get("ph")->str == "M") continue;
              const json::Value* args = e.get("args");
              const json::Value* trace_id =
                  args != nullptr ? args->get("trace_id") : nullptr;
              if (trace_id == nullptr ||
                  trace_id->num != static_cast<double>(id)) {
                ++violations;
              }
            }
          }
        }
      }
    });
  }
  // Let the solves and pollers overlap, then wind everything down.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const long long id : ids) {
    fixture.request("POST", "/v1/jobs/" + std::to_string(id) + "/cancel");
  }
  for (const long long id : ids) fixture.await(id);
  stop.store(true, std::memory_order_release);
  for (std::thread& poller : pollers) poller.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(ServerTest, TelemetryDirCollectsFlightTracesAndRunArtifacts) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("etransformd_server_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  long long id = -1;
  {
    DaemonOptions options;
    options.slo_ms = 0.001;  // force an anomaly so a flight trace is dumped
    options.telemetry_dir = dir.string();
    DaemonFixture fixture(options);
    id = job_id(fixture.submit(small_instance(), "exact", false));
    fixture.await(id);
    fixture.daemon.stop();  // writes trace.json / metrics.prom
  }
  EXPECT_TRUE(std::filesystem::exists(
      dir / ("job-" + std::to_string(id) + "-trace.json")));
  EXPECT_TRUE(std::filesystem::exists(dir / "trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "metrics.prom"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace etransform
