// SolveProgress: the live progress channel of one solve — a lock-light
// incumbent/bound/gap/node-count timeline ring that HTTP handler threads can
// snapshot while the solve is running.
//
// Concurrency contract, chosen to keep the B&B hot loop unburdened:
//
//  * One writer at a time. Branch-and-bound publishes only from the solving
//    thread, so publish() does no CAS and takes no lock — a handful of
//    relaxed atomic stores fenced by a per-slot sequence counter.
//  * Any number of concurrent readers. snapshot() is wait-free for readers:
//    each slot is a seqlock whose sequence doubles as a write generation
//    (sample k's slot reads exactly 2 * (k / capacity + 1)), so a torn slot
//    and a slot the writer lapped after the head was read are both detected
//    and simply skipped — the timeline is a monitoring signal, not a ledger.
//  * The ring wraps. Unlike TraceRecorder's rings (where overwriting would
//    tear begin/end pairing), a progress sample is self-contained, so the
//    newest `capacity` samples are always retained and a long solve never
//    goes dark.
//
// The gap reported is the *best proven* relative gap so far — derived from
// the monotone best-incumbent/best-bound pair and clamped to be
// non-increasing — so an operator polling /progress sees a timeline that
// only tightens, never bounces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace etransform {

/// One published progress sample. incumbent/bound are NaN while unknown;
/// gap is +infinity until both exist.
struct ProgressSample {
  double time_ms = 0.0;    ///< Solve wall time at the sample.
  long long nodes = 0;     ///< B&B nodes expanded so far.
  double incumbent = 0.0;  ///< Best objective (model sense); NaN when none.
  double bound = 0.0;      ///< Best proven bound (model sense); NaN when none.
  double gap = 0.0;        ///< Relative gap, non-increasing; +inf when open.
};

class SolveProgress {
 public:
  /// `capacity` bounds the retained timeline; older samples are overwritten.
  explicit SolveProgress(std::size_t capacity = 256);

  SolveProgress(const SolveProgress&) = delete;
  SolveProgress& operator=(const SolveProgress&) = delete;

  /// Publishes one sample. Single-writer: concurrent publish() calls are the
  /// caller's bug (B&B serializes its emission sites). `incumbent`/`bound`
  /// must be the best-so-far values in model sense; pass has_* = false while
  /// unknown.
  void publish(double time_ms, long long nodes, double incumbent,
               bool has_incumbent, double bound, bool has_bound);

  /// Samples ever published (>= retained timeline length).
  [[nodiscard]] std::uint64_t published() const {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  struct Snapshot {
    std::uint64_t published = 0;          ///< Total ever published.
    std::vector<ProgressSample> timeline; ///< Oldest to newest, torn slots skipped.
  };

  /// Consistent view of the retained timeline. Safe from any thread while
  /// the writer keeps publishing; samples overwritten mid-read are dropped.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  // odd while a write is in flight
    std::atomic<double> time_ms{0.0};
    std::atomic<long long> nodes{0};
    std::atomic<double> incumbent{0.0};
    std::atomic<double> bound{0.0};
    std::atomic<double> gap{0.0};
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  // total published; next slot is head % capacity
  double last_gap_;  // writer-only: enforces the non-increasing clamp
};

}  // namespace etransform
