// Measurement plumbing shared by the benchmark workloads: the host-speed
// probe, the in-memory span recorder, the correctness-check tally, thread
// pinning, and the raw-result document that run.py turns into
// metrics (perfbench/perf_stats.py does all of the arithmetic).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

namespace json = etransform::json;

/// Command-line arguments of one workload run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Microseconds since the process started (one epoch for every thread).
[[nodiscard]] double now_us();

/// A fixed kernel from the benchmark's own code, so no change to the
/// program under test can move it: tokenizing, hashing, number parsing and
/// formatting over a generated text, then sparse gathers over a 3.8 MB
/// matrix. Timed around every unit of measured work, it tells how fast the
/// host ran at that moment; perf_stats.py scales work times by it (see
/// perf_stats.normalized_ms and README.md, "Host regimes and normalization").
class HostProbe {
 public:
  HostProbe();
  /// Runs the kernel once and returns its wall time in milliseconds.
  double run_ms();

 private:
  std::string text_;
  std::vector<int> col_;
  std::vector<double> val_;
  std::vector<double> x_;
  std::vector<double> y_;
};

/// One recorded span. Times are now_us() values; parent 0 = top level.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span store, written out with the raw result at exit. A
/// disabled recorder drops everything, so untraced runs pay one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return ++last_id_; }
  void add(Span span);
  [[nodiscard]] json::Value to_json() const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call the benchmark makes into the program.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name,
             std::uint64_t parent = 0, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  [[nodiscard]] double start_us() const { return span_.start_us; }

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// Tally of correctness checks; every failure is kept (capped) for the log.
class Checks {
 public:
  /// Counts one checked operation; `ok == false` records `what` as failed.
  void expect(bool ok, const std::string& what);
  [[nodiscard]] json::Value to_json() const;

 private:
  mutable std::mutex mu_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

/// CPUs this process may run on, in order.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread to `cpu` (best effort: failures are ignored, the
/// run then relies on the scheduler's spread).
void pin_current_thread(int cpu);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Helpers for building the raw-result document.
[[nodiscard]] json::Value num(double v);
[[nodiscard]] json::Value str(std::string v);
[[nodiscard]] json::Value num_array(const std::vector<double>& values);

/// Runs `step` `reps` times in blocks of `block`, with a probe reading
/// before and after every block. Returns the "setup" part of the raw
/// document: samples_ms[i] is repetition i's wall time and probe_ms[i] the
/// mean of the two readings around its block.
template <typename Step>
json::Value timed_setup(HostProbe& probe, int reps, int block, Step&& step) {
  std::vector<double> samples;
  std::vector<double> probes;
  double before = probe.run_ms();
  for (int first = 0; first < reps; first += block) {
    const int count = std::min(block, reps - first);
    for (int i = 0; i < count; ++i) {
      const double t0 = now_us();
      step();
      samples.push_back((now_us() - t0) / 1000.0);
    }
    const double after = probe.run_ms();
    probes.insert(probes.end(), static_cast<std::size_t>(count),
                  0.5 * (before + after));
    before = after;
  }
  json::Value out = json::Value::object();
  out.set("samples_ms", num_array(samples));
  out.set("probe_ms", num_array(probes));
  return out;
}

/// Run context shared by every workload (the script adds the commit).
[[nodiscard]] json::Value base_context(const RunArgs& args, int threads);

}  // namespace perfbench
