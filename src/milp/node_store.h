// Open-node storage of the branch-and-bound search (branch_and_bound.cpp).
// Not part of the public MILP surface; include milp/branch_and_bound.h
// instead. Kept in a header so tests can pin the node selection order and
// the bounds a node materializes.
//
// A node does not own its variable bounds. It holds the last branching
// decision that created it, and every decision links to the one before it,
// up to the root: siblings share their parent's chain, so an open node
// costs O(1) plus one BoundChange record instead of two full bound
// vectors. materialize() replays a chain over the root bounds into
// working buffers each LP engine reuses from node to node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lp/simplex.h"

namespace etransform::milp::detail {

/// One branching decision: `var`'s lower bound (`up`) or upper bound
/// (down) set to `value`, applied after every decision in `prev`.
/// Immutable once made, so every node below it shares it.
struct BoundChange {
  std::shared_ptr<const BoundChange> prev;  // null: straight below the root
  int var = -1;
  bool up = false;
  double value = 0.0;
};

/// One open node: its branching chain plus the parent's relaxation value
/// used for best-first ordering and the parent's optimal basis used to
/// warm-start this node's LP (shared, not copied, between siblings).
/// `branch_*` records how this node was created so its LP value can feed
/// the branching variable's pseudocost.
struct Node {
  std::shared_ptr<const BoundChange> bounds;  // null at the root
  std::shared_ptr<const lp::BasisSnapshot> parent_basis;
  double parent_bound = 0.0;
  int depth = 0;
  int branch_var = -1;
  bool branch_up = false;
  double branch_frac = 0.0;  // parent fractional part of branch_var
};

/// Working bounds of one LP engine. Reused from node to node, so
/// materialize() stops allocating once the buffers have grown to the
/// model's width and the tree's depth.
struct NodeBounds {
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<const BoundChange*> path;  // materialize() scratch
};

/// Writes `node`'s bounds into `out`: the root bounds, then the node's
/// branching decisions from the root down, so a variable branched twice in
/// one direction ends at its deepest (tightest) value.
inline void materialize(const Node& node, const std::vector<double>& root_lower,
                        const std::vector<double>& root_upper,
                        NodeBounds& out) {
  out.lower.assign(root_lower.begin(), root_lower.end());
  out.upper.assign(root_upper.begin(), root_upper.end());
  out.path.clear();
  for (const BoundChange* c = node.bounds.get(); c != nullptr;
       c = c->prev.get()) {
    out.path.push_back(c);
  }
  for (auto it = out.path.rbegin(); it != out.path.rend(); ++it) {
    const BoundChange& c = **it;
    (c.up ? out.lower : out.upper)[static_cast<std::size_t>(c.var)] = c.value;
  }
}

/// Allocator that adds the bytes it holds to a counter its owner keeps.
/// BoundChange records are made with std::allocate_shared through it, so
/// the count covers each record's shared-ownership block as well.
template <class T>
struct TallyAllocator {
  using value_type = T;

  explicit TallyAllocator(long long* live_bytes) : live_bytes(live_bytes) {}
  template <class U>
  explicit TallyAllocator(const TallyAllocator<U>& other)
      : live_bytes(other.live_bytes) {}

  T* allocate(std::size_t count) {
    T* p = std::allocator<T>().allocate(count);
    *live_bytes += static_cast<long long>(count * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t count) {
    *live_bytes -= static_cast<long long>(count * sizeof(T));
    std::allocator<T>().deallocate(p, count);
  }

  template <class U>
  bool operator==(const TallyAllocator<U>& other) const {
    return live_bytes == other.live_bytes;
  }

  long long* live_bytes;
};

/// The record that branches `node`, whose bounds `node_bounds` holds
/// materialized, on `var` (`up`: lower bound, else upper bound) at
/// `value`; null when that crosses the variable's bounds, which leaves the
/// child without an integer point, so it is never pushed.
inline std::shared_ptr<const BoundChange> branch_change(
    const Node& node, const NodeBounds& node_bounds, int var, bool up,
    double value, const TallyAllocator<BoundChange>& alloc) {
  const auto col = static_cast<std::size_t>(var);
  const double lo = up ? value : node_bounds.lower[col];
  const double hi = up ? node_bounds.upper[col] : value;
  if (!(lo <= hi)) return nullptr;
  return std::allocate_shared<BoundChange>(
      alloc, BoundChange{node.bounds, var, up, value});
}

/// Open-node pool with hybrid selection: depth-first while no incumbent
/// exists (plunging to a first integral leaf quickly), best-bound once one
/// does (tightening the global bound for pruning and gap termination).
/// Each entry keeps its node's parent bound next to the handle, so the
/// best-bound scans read one contiguous array.
class OpenNodes {
 public:
  void push(std::unique_ptr<Node> node) {
    const double parent_bound = node->parent_bound;
    entries_.push_back(Entry{parent_bound, std::move(node)});
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] int size() const { return static_cast<int>(entries_.size()); }

  /// Bytes of the entries and nodes held open (not their shared chains and
  /// bases).
  [[nodiscard]] long long bytes() const {
    return static_cast<long long>(entries_.size() *
                                  (sizeof(Entry) + sizeof(Node)));
  }

  /// Smallest parent bound among open nodes (the global bound).
  [[nodiscard]] double best_bound() const {
    double best = std::numeric_limits<double>::infinity();
    for (const Entry& e : entries_) best = std::min(best, e.parent_bound);
    return best;
  }

  /// The newest node when `depth_first`; otherwise the first node below
  /// the running pick, which starts at the newest (so a newest node tied
  /// for the minimum wins). The last entry moves into the hole.
  std::unique_ptr<Node> pop(bool depth_first) {
    std::size_t pick = entries_.size() - 1;
    if (!depth_first) {
      for (std::size_t k = 0; k < entries_.size(); ++k) {
        if (entries_[k].parent_bound < entries_[pick].parent_bound) pick = k;
      }
    }
    std::unique_ptr<Node> node = std::move(entries_[pick].node);
    entries_[pick] = std::move(entries_.back());
    entries_.pop_back();
    return node;
  }

 private:
  struct Entry {
    double parent_bound = 0.0;
    std::unique_ptr<Node> node;
  };
  std::vector<Entry> entries_;
};

}  // namespace etransform::milp::detail
