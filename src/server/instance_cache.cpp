#include "server/instance_cache.h"

#include <cstdint>
#include <cstdio>

namespace etransform::server {

namespace {

// Fixed per-entry overhead charged on top of the payload strings: list and
// hash-map nodes, the PlannerReport skeleton, the shared_ptr control block.
constexpr std::size_t kEntryOverheadBytes = 1024;

std::uint64_t fnv1a64(const std::string& text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

std::string digest_hex(const std::string& text) {
  const std::uint64_t hash = fnv1a64(text, 14695981039346656037ull);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

std::string cache_key(const std::string& canonical_etf,
                      const std::string& options_fingerprint) {
  // Chain the two digests rather than concatenating the texts: a crafted
  // instance ending with fingerprint-shaped text cannot alias a different
  // (instance, options) split.
  std::uint64_t hash = fnv1a64(canonical_etf, 14695981039346656037ull);
  hash = fnv1a64(options_fingerprint, hash ^ 0x9e3779b97f4a7c15ull);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

InstanceCache::InstanceCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::shared_ptr<const CachedResult> InstanceCache::lookup(
    const std::string& key, const std::string& canonical_text) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->canonical_text != canonical_text) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_;
  return it->second->result;
}

std::shared_ptr<const ConsolidationInstance> InstanceCache::find_upload(
    std::string_view text) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = uploads_.find(text);
  return it == uploads_.end() ? nullptr : it->second->parsed;
}

std::size_t InstanceCache::insert(
    const std::string& key, std::string canonical_text,
    std::shared_ptr<const CachedResult> result,
    std::shared_ptr<const ConsolidationInstance> parsed) {
  const std::size_t cost = canonical_text.size() +
                           (result != nullptr ? result->result_json.size() : 0) +
                           kEntryOverheadBytes;
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    erase_locked(it->second);
  }
  if (cost > max_bytes_) return 0;  // cannot fit even alone
  lru_.push_front(Entry{key, std::move(canonical_text), std::move(parsed),
                        std::move(result), cost});
  index_[key] = lru_.begin();
  if (lru_.front().parsed != nullptr) {
    uploads_.emplace(lru_.front().canonical_text, lru_.begin());
  }
  bytes_ += cost;
  std::size_t evicted = 0;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    erase_locked(std::prev(lru_.end()));
    ++evictions_;
    ++evicted;
  }
  return evicted;
}

void InstanceCache::erase_locked(Lru::iterator entry) {
  if (entry->parsed != nullptr) {
    const auto [first, last] = uploads_.equal_range(entry->canonical_text);
    for (auto it = first; it != last; ++it) {
      if (it->second == entry) {
        uploads_.erase(it);
        break;
      }
    }
  }
  bytes_ -= entry->cost;
  index_.erase(entry->key);
  lru_.erase(entry);
}

InstanceCache::Stats InstanceCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  out.indexed_uploads = uploads_.size();
  return out;
}

}  // namespace etransform::server
