// Tests for the telemetry subsystem: trace recorder allocation discipline
// (zero-allocation hot path), drop-never-wrap semantics, Chrome JSON drain
// validity under concurrency, metrics registry math and Prometheus
// exposition, artifact writing, and end-to-end SolveFarm/SolveScope
// integration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/progress.h"
#include "common/random.h"
#include "common/solve_context.h"
#include "datagen/generators.h"
#include "common/json.h"
#include "lp/model.h"
#include "lp/lp_engine.h"
#include "service/solve_farm.h"
#include "telemetry/artifacts.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Counts every scalar/array new in the process so
// tests can assert the recorder's hot path allocates nothing.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: the library's defaults would
// allocate outside malloc (libstdc++'s std::stable_sort buffer uses them),
// and the frees below would then release memory malloc never handed out.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace etransform {
namespace {

using telemetry::MetricsRegistry;
using telemetry::TraceRecorder;
using telemetry::TraceSpan;

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Parses a drained trace and fails the test on malformed JSON.
json::Value parse_trace(const std::string& json) {
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::parse(json, doc, &error)) << error;
  return doc;
}

/// Per-tid duration balance: every "E" closes an earlier "B"; all depths
/// return to zero; timestamps never go backwards within a tid.
void expect_balanced_and_monotonic(const json::Value& doc) {
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, int> depth;
  std::map<double, double> last_ts;
  for (const json::Value& e : events->arr) {
    const std::string& ph = e.get("ph")->str;
    if (ph == "M") continue;
    const double tid = e.get("tid")->num;
    const double ts = e.get("ts")->num;
    EXPECT_GE(ts, last_ts[tid]) << "timestamps regress within tid " << tid;
    last_ts[tid] = ts;
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "E without matching B on tid " << tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

// ---- recorder basics ------------------------------------------------------

TEST(TraceRecorder, DrainsNestedSpansAsBalancedChromeJson) {
  TraceRecorder recorder;
  recorder.set_current_thread_name("main");
  recorder.begin("a", "outer");
  recorder.begin("a", "inner");
  recorder.instant("a", "tick", 42);
  recorder.end("a", "inner");
  recorder.end("a", "outer");
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.thread_count(), 1);

  const json::Value doc = parse_trace(recorder.to_chrome_json());
  EXPECT_EQ(doc.get("displayTimeUnit")->str, "ms");
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 thread_name metadata record + 5 events.
  ASSERT_EQ(events->arr.size(), 6u);
  EXPECT_EQ(events->arr[0].get("ph")->str, "M");
  EXPECT_EQ(events->arr[0].get("args")->get("name")->str, "main");
  EXPECT_EQ(events->arr[1].get("name")->str, "outer");
  EXPECT_EQ(events->arr[1].get("ph")->str, "B");
  const json::Value& instant = events->arr[3];
  EXPECT_EQ(instant.get("ph")->str, "i");
  EXPECT_EQ(instant.get("s")->str, "t");
  EXPECT_EQ(instant.get("args")->get("value")->num, 42.0);
  expect_balanced_and_monotonic(doc);
}

TEST(TraceRecorder, AsyncEventsCarryTheirIdAcrossThreads) {
  TraceRecorder recorder;
  recorder.async_begin("job", "job", 7);
  std::thread worker([&] {
    recorder.async_instant("job", "claim", 7);
    recorder.async_end("job", "job", 7);
  });
  worker.join();
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  int b = 0;
  int n = 0;
  int e = 0;
  for (const json::Value& event : doc.get("traceEvents")->arr) {
    const std::string& ph = event.get("ph")->str;
    if (ph == "M") continue;
    ASSERT_NE(event.get("id"), nullptr) << "async events must carry an id";
    EXPECT_EQ(event.get("id")->num, 7.0);
    if (ph == "b") ++b;
    if (ph == "n") ++n;
    if (ph == "e") ++e;
  }
  EXPECT_EQ(b, 1);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(e, 1);
  EXPECT_EQ(recorder.thread_count(), 2);
}

TEST(TraceRecorder, TruncatesOverlongNamesInsteadOfCorrupting) {
  TraceRecorder recorder;
  const std::string long_name(200, 'x');
  recorder.begin("category-name-far-beyond-fifteen", long_name);
  recorder.end("category-name-far-beyond-fifteen", long_name);
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  const json::Value* events = doc.get("traceEvents");
  bool saw = false;
  for (const json::Value& e : events->arr) {
    if (e.get("ph")->str != "B") continue;
    saw = true;
    EXPECT_LT(e.get("name")->str.size(), long_name.size());
    EXPECT_EQ(e.get("name")->str.substr(0, 8), "xxxxxxxx");
    EXPECT_LE(e.get("cat")->str.size(), 14u);
  }
  EXPECT_TRUE(saw);
}

TEST(TraceRecorder, OpenSpansAreSynthesizedClosedAtDrain) {
  TraceRecorder recorder;
  recorder.begin("a", "left-open");
  recorder.begin("a", "also-open");
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_balanced_and_monotonic(doc);
  int ends = 0;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    if (e.get("ph")->str == "E") ++ends;
  }
  EXPECT_EQ(ends, 2) << "drain must close both open spans synthetically";
}

TEST(TraceRecorder, FullBufferDropsNewRecordsAndStaysBalanced) {
  // 16 is the recorder's minimum per-thread capacity.
  TraceRecorder recorder(/*capacity_per_thread=*/16);
  for (int i = 0; i < 100; ++i) {
    recorder.begin("a", "span");
    recorder.instant("a", "tick");
    recorder.end("a", "span");
  }
  EXPECT_LE(recorder.recorded(), 16u);
  EXPECT_GT(recorder.dropped(), 0u);
  expect_balanced_and_monotonic(parse_trace(recorder.to_chrome_json()));
}

TEST(TraceRecorder, ClearResetsForReuse) {
  TraceRecorder recorder;
  recorder.begin("a", "x");
  recorder.end("a", "x");
  ASSERT_EQ(recorder.recorded(), 2u);
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.instant("a", "after-clear");
  EXPECT_EQ(recorder.recorded(), 1u);
  expect_balanced_and_monotonic(parse_trace(recorder.to_chrome_json()));
}

// ---- allocation discipline ------------------------------------------------

TEST(TraceRecorder, DisabledSpanIsAllocationFree) {
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    const TraceSpan span(nullptr, "lp", "simplex.factorize");
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "a null-recorder TraceSpan must be a branch, not an allocation";
}

TEST(TraceRecorder, EnabledHotPathIsAllocationFreeAfterRegistration) {
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 14);
  recorder.instant("warm", "register-thread");  // first record registers
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    const TraceSpan span(&recorder, "lp", "simplex.factorize");
    recorder.instant("lp", "tick", i);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "recording into the preallocated ring must not allocate";
  EXPECT_EQ(recorder.recorded(), 3001u);
}

// ---- concurrency (primary TSan target) ------------------------------------

TEST(TraceRecorder, ConcurrentRecordingAndDrainingIsSafe) {
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 12);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 400;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      recorder.set_current_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        const TraceSpan span(&recorder, "test", "work");
        recorder.async_instant("test", "beat", t);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Drain concurrently with the writers: must be safe (and see a prefix).
  for (int drains = 0; drains < 5; ++drains) {
    const json::Value doc = parse_trace(recorder.to_chrome_json());
    expect_balanced_and_monotonic(doc);
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 3);
  EXPECT_EQ(recorder.thread_count(), kThreads);
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_balanced_and_monotonic(doc);
  std::set<std::string> names;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    if (e.get("ph")->str == "M") names.insert(e.get("args")->get("name")->str);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
}

// ---- drain ordering (satellite: stable cross-thread merge) ----------------

/// Global (not just per-tid) timestamp monotonicity: the drained stream is
/// one merged timeline, so downstream tools can binary-search it.
void expect_globally_monotonic(const json::Value& doc) {
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  double last_ts = -1.0;
  for (const json::Value& e : events->arr) {
    if (e.get("ph")->str == "M") continue;
    const double ts = e.get("ts")->num;
    EXPECT_GE(ts, last_ts) << "drained events must be globally ts-sorted";
    last_ts = ts;
  }
}

TEST(TraceRecorder, DrainMergesThreadsInTimestampOrder) {
  // Two threads strictly alternate instants with a cv handshake and a real
  // sleep between turns, so the true global order interleaves A,B,A,B,...
  // A buffer-by-buffer drain would emit all of A then all of B and regress
  // in time at the seam; the merged drain must not.
  TraceRecorder recorder;
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // even: thread A, odd: thread B
  constexpr int kTurns = 12;
  const auto player = [&](int parity, const char* name) {
    for (int t = parity; t < kTurns; t += 2) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == t; });
      // value = turn + 1: a zero value would elide the args object entirely.
      recorder.instant("turns", name, t + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++turn;
      cv.notify_all();
    }
  };
  std::thread a([&] { player(0, "a"); });
  std::thread b([&] { player(1, "b"); });
  a.join();
  b.join();

  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_globally_monotonic(doc);
  expect_balanced_and_monotonic(doc);
  // The merged order is the handshake order: instants carry turn + 1 as
  // the arg value, which must come out 1,2,3,...
  int expected_turn = 0;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    if (e.get("ph")->str != "i") continue;
    const json::Value* args = e.get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->get("value")->num, ++expected_turn);
  }
  EXPECT_EQ(expected_turn, kTurns);
}

TEST(TraceRecorder, SyntheticClosesSortAfterTheirThreadsEvents) {
  // An open span on a thread that stopped recording early must still close
  // after every event that thread recorded, even once the global sort runs.
  TraceRecorder recorder;
  recorder.begin("a", "left-open");
  std::thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    recorder.instant("a", "later");
  }).join();
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_globally_monotonic(doc);
  expect_balanced_and_monotonic(doc);
}

// ---- request attribution (tentpole: trace ids) ----------------------------

TEST(TraceRecorder, BindScopeStampsAndRestoresTraceIds) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.current_thread_trace(), 0u);
  {
    const telemetry::TraceBindScope outer(&recorder, 5);
    EXPECT_EQ(recorder.current_thread_trace(), 5u);
    {
      const telemetry::TraceBindScope inner(&recorder, 9);
      EXPECT_EQ(recorder.current_thread_trace(), 9u);
    }
    EXPECT_EQ(recorder.current_thread_trace(), 5u);
  }
  EXPECT_EQ(recorder.current_thread_trace(), 0u);
  // A null recorder is a no-op, like a null-recorder TraceSpan.
  const telemetry::TraceBindScope noop(nullptr, 7);
}

TEST(TraceRecorder, FilteredDrainReturnsOnlyTheRequestedTrace) {
  TraceRecorder recorder;
  {
    const telemetry::TraceBindScope bind(&recorder, 7);
    const TraceSpan span(&recorder, "a", "seven");
    recorder.instant("a", "seven-tick");
  }
  {
    const telemetry::TraceBindScope bind(&recorder, 8);
    recorder.instant("a", "eight-tick");
  }
  recorder.instant("a", "unattributed");

  const json::Value doc = parse_trace(recorder.to_chrome_json_for_trace(7));
  expect_balanced_and_monotonic(doc);
  int matched = 0;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    if (e.get("ph")->str == "M") continue;
    ASSERT_NE(e.get("args"), nullptr);
    ASSERT_NE(e.get("args")->get("trace_id"), nullptr);
    EXPECT_EQ(e.get("args")->get("trace_id")->num, 7.0);
    EXPECT_EQ(e.get("name")->str.substr(0, 5), "seven");
    ++matched;
  }
  EXPECT_EQ(matched, 3) << "B + i + E of trace 7, nothing else";

  // The unfiltered drain still carries everything, ids included.
  const json::Value all = parse_trace(recorder.to_chrome_json());
  int with_id = 0;
  int without_id = 0;
  for (const json::Value& e : all.get("traceEvents")->arr) {
    if (e.get("ph")->str == "M") continue;
    const json::Value* args = e.get("args");
    if (args != nullptr && args->get("trace_id") != nullptr) {
      ++with_id;
    } else {
      ++without_id;
    }
  }
  EXPECT_EQ(with_id, 4);
  EXPECT_EQ(without_id, 1);
}

TEST(TraceRecorder, FilteredDrainTailCapsPerThreadAndStaysBalanced) {
  TraceRecorder recorder(/*capacity_per_thread=*/1 << 10);
  const telemetry::TraceBindScope bind(&recorder, 3);
  for (int i = 0; i < 200; ++i) {
    const TraceSpan span(&recorder, "a", "work");
    recorder.instant("a", "tick", i);
  }
  const json::Value doc =
      parse_trace(recorder.to_chrome_json_for_trace(3, /*max=*/50));
  expect_balanced_and_monotonic(doc);
  std::size_t events = 0;
  double newest_tick = -1.0;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    if (e.get("ph")->str == "M") continue;
    ++events;
    if (e.get("ph")->str == "i") {
      newest_tick = std::max(newest_tick, e.get("args")->get("value")->num);
    }
  }
  EXPECT_LE(events, 51u);  // 50 kept + at most one synthetic close
  EXPECT_EQ(newest_tick, 199.0) << "the cap keeps the tail, not the head";
}

TEST(TraceRecorder, ReleasedThreadBuffersAreAdoptedNotLeaked) {
  TraceRecorder recorder;
  recorder.instant("a", "main");
  ASSERT_EQ(recorder.thread_count(), 1);
  // Short-lived threads that release on exit (the daemon's connection
  // handler pattern): all of them share one adopted buffer.
  for (int i = 0; i < 8; ++i) {
    std::thread([&] {
      recorder.instant("a", "conn");
      recorder.release_current_thread();
    }).join();
  }
  EXPECT_EQ(recorder.thread_count(), 2)
      << "released buffers must be adopted by later threads, not leaked";
  // Releasing resets the binding: an adopter starts unattributed.
  std::thread([&] {
    recorder.instant("a", "probe");
    EXPECT_EQ(recorder.current_thread_trace(), 0u);
    recorder.release_current_thread();
  }).join();
  expect_balanced_and_monotonic(parse_trace(recorder.to_chrome_json()));
}

TEST(Integration, FarmJobsAreTraceFilterableByRequestId) {
  TraceRecorder recorder;
  MetricsRegistry registry;
  Rng rng(33);
  const auto instance = make_random_instance(rng, 6, 3, 2);
  {
    SolveService service(2);
    service.attach_telemetry(&recorder, &registry);
    PlannerOptions options;
    options.engine = PlannerOptions::Engine::kExact;
    SolveRequest first;
    first.instance = instance;
    first.options = options;
    first.trace_id = 101;
    SolveRequest second;
    second.instance = instance;
    second.options = options;
    second.trace_id = 102;
    const JobHandle a = service.submit(first);
    const JobHandle b = service.submit(second);
    a->wait();
    b->wait();
    EXPECT_EQ(a->trace_id(), 101u);
    EXPECT_EQ(b->trace_id(), 102u);
  }
  for (const std::uint64_t id : {101u, 102u}) {
    const json::Value doc =
        parse_trace(recorder.to_chrome_json_for_trace(id));
    expect_balanced_and_monotonic(doc);
    std::size_t events = 0;
    for (const json::Value& e : doc.get("traceEvents")->arr) {
      if (e.get("ph")->str == "M") continue;
      ASSERT_NE(e.get("args")->get("trace_id"), nullptr);
      EXPECT_EQ(e.get("args")->get("trace_id")->num,
                static_cast<double>(id));
      ++events;
    }
    EXPECT_GT(events, 0u) << "trace " << id << " must have its own spans";
  }
}

// ---- solve progress ring --------------------------------------------------

TEST(SolveProgress, TimelineKeepsOrderAndClampsGapMonotone) {
  SolveProgress progress(16);
  progress.publish(1.0, 10, 0.0, false, 90.0, true);    // bound only
  progress.publish(2.0, 20, 100.0, true, 90.0, true);   // gap 0.10
  progress.publish(3.0, 30, 100.0, true, 95.0, true);   // gap 0.05
  progress.publish(4.0, 40, 100.0, true, 94.0, true);   // regressed: clamped
  const SolveProgress::Snapshot snap = progress.snapshot();
  EXPECT_EQ(snap.published, 4u);
  ASSERT_EQ(snap.timeline.size(), 4u);
  EXPECT_TRUE(std::isnan(snap.timeline[0].incumbent));
  EXPECT_TRUE(std::isinf(snap.timeline[0].gap));
  EXPECT_NEAR(snap.timeline[1].gap, 0.10, 1e-12);
  EXPECT_NEAR(snap.timeline[2].gap, 0.05, 1e-12);
  EXPECT_NEAR(snap.timeline[3].gap, 0.05, 1e-12)
      << "a bound regression must not widen the reported gap";
  for (std::size_t i = 1; i < snap.timeline.size(); ++i) {
    EXPECT_LE(snap.timeline[i].gap, snap.timeline[i - 1].gap);
    EXPECT_GE(snap.timeline[i].time_ms, snap.timeline[i - 1].time_ms);
  }
}

TEST(SolveProgress, RingWrapsKeepingTheNewestSamples) {
  SolveProgress progress(8);
  for (int i = 0; i < 20; ++i) {
    progress.publish(static_cast<double>(i), i, 100.0, true, 50.0 + i, true);
  }
  const SolveProgress::Snapshot snap = progress.snapshot();
  EXPECT_EQ(snap.published, 20u);
  ASSERT_EQ(snap.timeline.size(), 8u);
  EXPECT_EQ(snap.timeline.front().nodes, 12);
  EXPECT_EQ(snap.timeline.back().nodes, 19);
}

TEST(SolveProgress, ConcurrentReadersSeeOnlyConsistentSamples) {
  SolveProgress progress(32);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SolveProgress::Snapshot snap = progress.snapshot();
        double last_time = -1.0;
        double last_gap = std::numeric_limits<double>::infinity();
        for (const ProgressSample& s : snap.timeline) {
          EXPECT_GE(s.time_ms, last_time) << "torn sample escaped the seqlock";
          EXPECT_LE(s.gap, last_gap);
          // The writer always publishes incumbent 100 with a tightening
          // bound, so any consistent sample satisfies this.
          EXPECT_EQ(s.incumbent, 100.0);
          last_time = s.time_ms;
          last_gap = s.gap;
        }
      }
    });
  }
  for (int i = 0; i < 50000; ++i) {
    progress.publish(static_cast<double>(i), i, 100.0, true,
                     100.0 - 100.0 / (1.0 + i), true);
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(progress.snapshot().published, 50000u);
}

// ---- metrics registry -----------------------------------------------------

TEST(Metrics, CounterIsMonotoneAndIgnoresNegativeDeltas) {
  MetricsRegistry registry;
  telemetry::Counter& c = registry.counter("etransform_test_total", "help");
  c.increment();
  c.add(4.0);
  c.add(-100.0);  // ignored: counters only go up
  c.add(0.0);     // ignored
  EXPECT_EQ(c.value(), 5.0);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("etransform_test_total"), &c);
}

TEST(Metrics, GaugeMovesBothWays) {
  MetricsRegistry registry;
  telemetry::Gauge& g = registry.gauge("etransform_depth");
  g.set(10.0);
  g.add(-3.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(Metrics, HistogramBucketsObservationsCumulatively) {
  MetricsRegistry registry;
  telemetry::Histogram& h =
      registry.histogram("etransform_lat_ms", "", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 3.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.0);
  EXPECT_EQ(h.bucket_count(0), 1u);  // <= 1
  EXPECT_EQ(h.bucket_count(1), 1u);  // (1, 2]
  EXPECT_EQ(h.bucket_count(2), 1u);  // (2, 4]
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf

  const std::string prom = registry.render_prometheus();
  EXPECT_NE(prom.find("etransform_lat_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("etransform_lat_ms_bucket{le=\"4\"} 3\n"),
            std::string::npos)
      << "buckets must be cumulative";
  EXPECT_NE(prom.find("etransform_lat_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("etransform_lat_ms_sum 105\n"), std::string::npos);
  EXPECT_NE(prom.find("etransform_lat_ms_count 4\n"), std::string::npos);
}

TEST(Metrics, LogBucketsSpanTheRequestedRange) {
  const std::vector<double> b = MetricsRegistry::log_buckets(1.0, 8.0, 2.0);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_THROW(MetricsRegistry::log_buckets(0.0, 8.0), std::invalid_argument);
  EXPECT_THROW(MetricsRegistry::log_buckets(1.0, 8.0, 1.0),
               std::invalid_argument);
  const std::vector<double> defaults =
      MetricsRegistry::default_latency_ms_buckets();
  ASSERT_FALSE(defaults.empty());
  EXPECT_LT(defaults.front(), 1.0);      // sub-ms LP solves land in a bucket
  EXPECT_GE(defaults.back(), 60000.0);   // minute-scale sweeps do too
}

TEST(Metrics, QuantileInterpolatesInsideTheTargetBucket) {
  MetricsRegistry registry;
  telemetry::Histogram& h =
      registry.histogram("etransform_q_ms", "", {1.0, 2.0, 4.0});
  EXPECT_EQ(h.quantile(0.5), 0.0) << "empty histogram reports 0";
  for (const double v : {0.5, 1.5, 3.0, 100.0}) h.observe(v);
  // target rank 2 lands at the end of the (1,2] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // rank 1 is the whole first bucket: interpolates to its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  // the +Inf bucket clamps to the highest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Metrics, ExpositionCarriesLatencySummaryGauges) {
  MetricsRegistry registry;
  telemetry::Histogram& h = registry.histogram("etransform_req_ms", "reqs");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const std::string prom = registry.render_prometheus();
  for (const char* suffix : {"_p50", "_p95", "_p99"}) {
    const std::string name = std::string("etransform_req_ms") + suffix;
    EXPECT_NE(prom.find("# TYPE " + name + " gauge\n"), std::string::npos);
    EXPECT_NE(prom.find("\n" + name + " "), std::string::npos);
  }
  // The summaries order correctly and bracket the data.
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  EXPECT_GT(h.quantile(0.50), 0.0);
}

TEST(Metrics, RejectsInvalidNamesAndKindMismatches) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("0starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  registry.counter("etransform_x_total");
  EXPECT_THROW(registry.gauge("etransform_x_total"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("etransform_x_total"),
               std::invalid_argument);
}

TEST(Metrics, ExpositionPassesALineLevelFormatLint) {
  MetricsRegistry registry;
  registry.counter("etransform_a_total", "a counter").add(3.0);
  registry.gauge("etransform_b", "a gauge").set(-2.5);
  registry.histogram("etransform_c_ms", "a histogram").observe(10.0);
  const std::string prom = registry.render_prometheus();
  // Every line is either a # HELP/# TYPE comment or `name{labels} value`.
  const std::regex comment(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9][0-9.eE+\-]*$)");
  std::istringstream lines(prom);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "no blank lines in the exposition";
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << line;
      ++samples;
    }
  }
  // counter + gauge + (buckets + Inf + sum + count).
  EXPECT_GE(samples, 2 + 4);
}

TEST(Metrics, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry registry;
  telemetry::Counter& c = registry.counter("etransform_hits_total");
  telemetry::Gauge& g = registry.gauge("etransform_level");
  telemetry::Histogram& h = registry.histogram("etransform_obs_ms");
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c.increment();
        g.add(1.0);
        h.observe(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<double>(kThreads) * kOps);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads) * kOps);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kOps);
}

// ---- artifacts ------------------------------------------------------------

TEST(Artifacts, WritesEveryRequestedFileIntoTheRunDirectory) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("etransform_telemetry_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  TraceRecorder recorder;
  recorder.instant("t", "x");
  MetricsRegistry registry;
  registry.counter("etransform_y_total").increment();

  telemetry::ArtifactPaths paths;
  std::string error;
  ASSERT_TRUE(telemetry::write_run_artifacts(dir.string(), &recorder,
                                             &registry, "{\"k\":1}", &paths,
                                             &error))
      << error;
  EXPECT_TRUE(std::filesystem::exists(paths.trace_json));
  EXPECT_TRUE(std::filesystem::exists(paths.metrics_prom));
  EXPECT_TRUE(std::filesystem::exists(paths.stats_json));

  std::ifstream trace_in(paths.trace_json);
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  parse_trace(trace_text.str());

  // Null sources are skipped, not errors.
  telemetry::ArtifactPaths partial;
  ASSERT_TRUE(telemetry::write_run_artifacts(
      (dir / "partial").string(), nullptr, nullptr, "", &partial, &error));
  EXPECT_TRUE(partial.trace_json.empty());
  EXPECT_TRUE(partial.metrics_prom.empty());
  EXPECT_TRUE(partial.stats_json.empty());
  std::filesystem::remove_all(dir);
}

// ---- solver-stack integration ---------------------------------------------

TEST(Integration, SolveScopesEmitMatchingTraceSpans) {
  TraceRecorder recorder;
  SolveContext ctx;
  ctx.set_trace(&recorder);
  {
    SolveScope outer(ctx, "planner");
    SolveScope inner(ctx, "simplex");
  }
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_balanced_and_monotonic(doc);
  std::vector<std::string> sequence;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    const std::string& ph = e.get("ph")->str;
    if (ph == "B" || ph == "E") {
      sequence.push_back(ph + ":" + e.get("name")->str);
      EXPECT_EQ(e.get("cat")->str, "solve");
    }
  }
  const std::vector<std::string> expected = {"B:planner", "B:simplex",
                                             "E:simplex", "E:planner"};
  EXPECT_EQ(sequence, expected);
}

TEST(Integration, SimplexPublishesProcessCountersWhenRegistryAttached) {
  lp::Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  const int y = m.add_continuous("y", 0.0, 10.0);
  m.set_objective(lp::Sense::kMaximize, {{x, 3.0}, {y, 2.0}});
  m.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, lp::Relation::kLessEqual, 8.0);
  m.add_constraint("c2", {{x, 2.0}, {y, 1.0}}, lp::Relation::kLessEqual, 12.0);

  MetricsRegistry registry;
  TraceRecorder recorder;
  SolveContext ctx;
  ctx.set_metrics(&registry);
  ctx.set_trace(&recorder);
  const auto solution = lp::LpEngine().solve(m, ctx);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(registry.counter("etransform_simplex_solves_total").value(), 1.0);
  EXPECT_GE(registry.counter("etransform_simplex_pivots_total").value(), 1.0);
  EXPECT_GE(
      registry.counter("etransform_simplex_refactorizations_total").value(),
      1.0);
  // The factorization shows up as an "lp" span inside the "simplex" scope.
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("simplex.factorize"), std::string::npos);
  expect_balanced_and_monotonic(parse_trace(json));
}

TEST(Integration, SolveFarmLifecycleIsFullyAccounted) {
  TraceRecorder recorder;
  MetricsRegistry registry;
  Rng rng(21);
  const auto instance = make_random_instance(rng, 6, 3, 2);

  {
    SolveService service(2);
    service.attach_telemetry(&recorder, &registry);
    PlannerOptions options;
    options.engine = PlannerOptions::Engine::kHeuristic;
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 6; ++i) {
      SolveRequest request;
      request.name = "job-" + std::to_string(i);
      request.instance = instance;
      request.options = options;
      jobs.push_back(service.submit(request));
    }
    // A burst of low-priority jobs, immediately cancelled: most are still
    // queued, so the cancel path must finish their lifecycle itself.
    std::vector<JobHandle> doomed;
    for (int i = 0; i < 4; ++i) {
      SolveRequest request;
      request.name = "doomed-" + std::to_string(i);
      request.instance = instance;
      request.options = options;
      request.priority = JobPriority::kLow;
      doomed.push_back(service.submit(request));
    }
    for (const auto& job : doomed) job->cancel();
    service.wait_all();
    for (const auto& job : jobs) EXPECT_EQ(job->state(), JobState::kDone);
  }

  const double submitted =
      registry.counter("etransform_farm_jobs_submitted_total").value();
  const double done = registry.counter("etransform_farm_jobs_done_total").value();
  const double cancelled =
      registry.counter("etransform_farm_jobs_cancelled_total").value();
  const double failed =
      registry.counter("etransform_farm_jobs_failed_total").value();
  EXPECT_EQ(submitted, 10.0);
  EXPECT_GE(done, 6.0);
  EXPECT_EQ(done + cancelled + failed, submitted)
      << "every admitted job must reach exactly one terminal counter";
  EXPECT_EQ(registry.gauge("etransform_farm_jobs_inflight").value(), 0.0);
  // Wait/solve latency is observed once per *claimed* job (jobs cancelled
  // while still queued are never claimed), so the two histograms agree with
  // each other and bracket the terminal counters.
  const std::uint64_t claimed =
      registry.histogram("etransform_farm_job_wait_ms").count();
  EXPECT_EQ(registry.histogram("etransform_farm_job_solve_ms").count(),
            claimed);
  EXPECT_GE(claimed, static_cast<std::uint64_t>(done + failed));
  EXPECT_LE(claimed, static_cast<std::uint64_t>(submitted));

  // Trace: async job lifecycles balance (b == e, same ids), and the worker
  // threads announced themselves.
  const json::Value doc = parse_trace(recorder.to_chrome_json());
  expect_balanced_and_monotonic(doc);
  int async_begin = 0;
  int async_end = 0;
  std::set<std::string> thread_names;
  for (const json::Value& e : doc.get("traceEvents")->arr) {
    const std::string& ph = e.get("ph")->str;
    if (ph == "M") thread_names.insert(e.get("args")->get("name")->str);
    if (ph == "b") ++async_begin;
    if (ph == "e") ++async_end;
  }
  EXPECT_EQ(async_begin, 10);
  EXPECT_EQ(async_end, 10);
  EXPECT_TRUE(thread_names.count("worker-0") == 1 ||
              thread_names.count("worker-1") == 1)
      << "pool workers must name their trace tracks";
}

}  // namespace
}  // namespace etransform
