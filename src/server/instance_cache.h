// Instance-hash result cache for etransformd.
//
// Key = FNV-1a 64 digest of (canonical .etf serialization of the instance,
// options fingerprint). Canonicalizing through write_instance() means two
// textually different uploads of the same estate — reordered sections,
// comments, whitespace — hash to the same key, which is what makes the
// cache useful for operators re-submitting exported instances.
//
// A 64-bit digest can collide, so every entry retains its canonical text
// and a hit is confirmed by full-text comparison; a digest match with a
// text mismatch is served as a miss (and does not evict the incumbent).
//
// Upload index: an entry whose instance was parsed from its own canonical
// text (a /v1/plan upload that write_instance() spells byte for byte as
// sent) also keeps that parsed instance, and is indexed by the canonical
// text (hashed, then confirmed byte for byte). find_upload() lets the
// daemon answer a byte-equal resubmission with the stored instance
// instead of running parse_instance and write_instance again. That is
// exact because parsing is deterministic: equal text parses to an equal
// instance, and this text already wrote itself back unchanged. The key,
// fingerprint and lookup() steps still run, so reusing an upload never
// changes which entry answers. Non-canonical uploads and replans keep no
// instance and are never indexed: they parse and canonicalize as before.
//
// Eviction is LRU under a byte budget. An entry costs its canonical text +
// result JSON + a fixed overhead. The parsed instance is not charged (the
// daemon's job records share it, and were never charged for it either);
// DESIGN.md §12 gives its size next to the text's. find_upload() neither
// refreshes recency nor counts as a hit.
// Values are shared_ptr<const CachedResult> so a hit handed to a response
// (or a replan warm-start chain) stays valid after the entry is evicted.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "planner/etransform_planner.h"

namespace etransform::server {

/// A completed solve, as cached: enough to answer a /v1/plan hit without
/// touching the farm, plus the report for replan warm-start chaining.
struct CachedResult {
  PlannerReport report;
  std::string result_json;  // plan_result_json() of the original solve
  double solve_ms = 0.0;    // wall time of the original (cold) solve
};

/// FNV-1a 64 of `text`, as 16 lowercase hex chars.
[[nodiscard]] std::string digest_hex(const std::string& text);

/// The cache key for an instance/options pair.
[[nodiscard]] std::string cache_key(const std::string& canonical_etf,
                                    const std::string& options_fingerprint);

class InstanceCache {
 public:
  /// `max_bytes` caps the summed entry cost; inserting past the cap evicts
  /// least-recently-used entries first. A budget of 0 disables caching.
  explicit InstanceCache(std::size_t max_bytes);

  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t indexed_uploads = 0;  // entries reachable by find_upload
  };

  /// Looks up `key`, confirming against `canonical_text` (collision guard).
  /// A hit refreshes recency. Returns null on miss.
  [[nodiscard]] std::shared_ptr<const CachedResult> lookup(
      const std::string& key, const std::string& canonical_text);

  /// The instance of an entry indexed under `text` (any such entry: they
  /// all parsed the same text), or null.
  [[nodiscard]] std::shared_ptr<const ConsolidationInstance> find_upload(
      std::string_view text) const;

  /// Inserts (replacing any entry under the same key) and evicts LRU
  /// entries until the budget holds. Returns the number of evictions this
  /// insert caused. An entry larger than the whole budget is not cached.
  /// `parsed`, when set, must be the instance that parse_instance() made of
  /// `canonical_text` itself; the entry keeps it and is indexed for
  /// find_upload().
  std::size_t insert(
      const std::string& key, std::string canonical_text,
      std::shared_ptr<const CachedResult> result,
      std::shared_ptr<const ConsolidationInstance> parsed = nullptr);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string canonical_text;
    std::shared_ptr<const ConsolidationInstance> parsed;  // null: unindexed
    std::shared_ptr<const CachedResult> result;
    std::size_t cost = 0;
  };
  using Lru = std::list<Entry>;  // front = most recent

  /// Removes `entry` from both indexes and the list.
  void erase_locked(Lru::iterator entry);

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> index_;
  /// Canonical text -> entries that keep the instance parsed from it. The
  /// views point into the entries' own strings, so each is erased with its
  /// entry.
  std::unordered_multimap<std::string_view, Lru::iterator> uploads_;
  std::size_t bytes_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace etransform::server
