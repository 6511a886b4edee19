// Tests for the branch-and-bound open-node store (milp/node_store.h): the
// pop order of OpenNodes against a plain vector with swap-remove, under
// heavily tied parent bounds, in depth-first, best-first and mixed modes
// (the search's tree depends on this order tie for tie), and the bounds
// materialized from BoundChange chains against full bound vectors copied
// and tightened at every branch.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "milp/node_store.h"

namespace etransform::milp {
namespace {

using detail::BoundChange;
using detail::Node;
using detail::NodeBounds;
using detail::OpenNodes;
using detail::TallyAllocator;

// `depth` doubles as the node's id: OpenNodes never reads it.
auto make_node(double parent_bound, int id) {
  auto node = std::make_unique<Node>();
  node->parent_bound = parent_bound;
  node->depth = id;
  return node;
}

struct RefEntry {
  double bound = 0.0;
  int id = 0;
};

// The selection the search has always used: the newest node when diving;
// otherwise the first node strictly below the running pick, which starts
// at the newest node (so a newest node tied for the minimum wins).
int ref_pop(std::vector<RefEntry>& ref, bool depth_first) {
  std::size_t pick = ref.size() - 1;
  if (!depth_first) {
    for (std::size_t k = 0; k < ref.size(); ++k) {
      if (ref[k].bound < ref[pick].bound) pick = k;
    }
  }
  const int id = ref[pick].id;
  ref[pick] = ref.back();
  ref.pop_back();
  return id;
}

enum class Mode { kDepthFirst, kBestFirst, kMixed };

void check_against_reference(std::uint64_t seed, Mode mode) {
  Rng rng(seed);
  OpenNodes open;
  std::vector<RefEntry> ref;
  int next_id = 0;
  bool depth_first = mode != Mode::kBestFirst;
  for (int step = 0; step < 4000; ++step) {
    // Mixed mode dives until an "incumbent" appears, then goes best-first,
    // like the search.
    if (mode == Mode::kMixed && step == 1500) depth_first = false;
    if (ref.empty() || rng.uniform() < 0.55) {
      // Four distinct bounds over thousands of nodes: ties everywhere.
      const double bound = static_cast<double>(rng.uniform_int(0, 3));
      open.push(make_node(bound, next_id));
      ref.push_back(RefEntry{bound, next_id});
      ++next_id;
    } else {
      const int want = ref_pop(ref, depth_first);
      ASSERT_FALSE(open.empty());
      const auto node = open.pop(depth_first);
      ASSERT_EQ(node->depth, want) << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(open.size(), static_cast<int>(ref.size()));
    ASSERT_EQ(open.empty(), ref.empty());
    double best = std::numeric_limits<double>::infinity();
    for (const RefEntry& e : ref) best = std::min(best, e.bound);
    ASSERT_EQ(open.best_bound(), best);
  }
}

TEST(OpenNodes, DepthFirstPopsMatchSwapRemoveReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_reference(seed, Mode::kDepthFirst);
  }
}

TEST(OpenNodes, BestFirstPopsMatchSwapRemoveReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_reference(seed, Mode::kBestFirst);
  }
}

TEST(OpenNodes, MixedModePopsMatchSwapRemoveReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_reference(seed, Mode::kMixed);
  }
}

TEST(OpenNodes, EmptyStoreHasInfiniteBound) {
  const OpenNodes open;
  EXPECT_TRUE(open.empty());
  EXPECT_EQ(open.best_bound(), std::numeric_limits<double>::infinity());
}

// The per-node record stays a few pointers wide: two bound vectors in it
// would add 48 bytes here and 16 bytes per column on the heap, which
// node_bytes (sizeof-based) would not see.
static_assert(sizeof(Node) <= 64, "an open node must not own per-column data");

// Four binaries, a general integer in [0, 10] and a free continuous
// column that is never branched on.
constexpr int kGeneral = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();
const std::vector<double> kRootLower = {0.0, 0.0, 0.0, 0.0, 0.0, -kInf};
const std::vector<double> kRootUpper = {1.0, 1.0, 1.0, 1.0, 10.0, kInf};

// A node as the search built it before chains: full bound vectors,
// copied from the parent and tightened on the branching variable.
struct CopiedNode {
  Node node;
  std::vector<double> lower;
  std::vector<double> upper;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Branches `parent` both ways at LP value `v` of `var`, the old way and the
// chain way; the two must agree on which children exist. Returns the
// children that exist.
std::vector<CopiedNode> branch_both_ways(
    const CopiedNode& parent, int var, double v,
    const TallyAllocator<BoundChange>& alloc) {
  NodeBounds parent_bounds;
  materialize(parent.node, kRootLower, kRootUpper, parent_bounds);
  std::vector<CopiedNode> children;
  for (const bool up : {false, true}) {
    CopiedNode child;
    child.lower = parent.lower;
    child.upper = parent.upper;
    const auto col = static_cast<std::size_t>(var);
    if (up) {
      child.lower[col] = std::ceil(v);
    } else {
      child.upper[col] = std::floor(v);
    }
    const bool old_pushes = child.lower[col] <= child.upper[col];
    child.node.bounds =
        detail::branch_change(parent.node, parent_bounds, var, up,
                              up ? std::ceil(v) : std::floor(v), alloc);
    EXPECT_EQ(child.node.bounds != nullptr, old_pushes)
        << "var " << var << " up " << up << " at " << v;
    if (child.node.bounds == nullptr) continue;
    child.node.depth = parent.node.depth + 1;
    children.push_back(std::move(child));
  }
  return children;
}

void expect_materializes_to_copy(const CopiedNode& n) {
  NodeBounds bounds;
  materialize(n.node, kRootLower, kRootUpper, bounds);
  EXPECT_TRUE(same_bits(bounds.lower, n.lower)) << "depth " << n.node.depth;
  EXPECT_TRUE(same_bits(bounds.upper, n.upper)) << "depth " << n.node.depth;
}

TEST(BoundChain, GeneralIntegerBranchedTwiceEachWayMatchesCopies) {
  long long chain_bytes = 0;
  const TallyAllocator<BoundChange> alloc(&chain_bytes);
  {
    CopiedNode node;
    node.lower = kRootLower;
    node.upper = kRootUpper;
    // Down twice (x <= 7, then x <= 3), up twice (x >= 1, then x >= 3),
    // following the down child, then the up child.
    for (const auto& [v, take_up] :
         std::vector<std::pair<double, bool>>{
             {7.5, false}, {3.2, false}, {0.4, true}, {2.6, true}}) {
      std::vector<CopiedNode> children =
          branch_both_ways(node, kGeneral, v, alloc);
      ASSERT_EQ(children.size(), 2u);
      for (const CopiedNode& child : children) {
        expect_materializes_to_copy(child);
      }
      node = std::move(children[take_up ? 1 : 0]);
    }
    EXPECT_EQ(node.lower[kGeneral], 3.0);
    EXPECT_EQ(node.upper[kGeneral], 3.0);
    EXPECT_EQ(node.node.depth, 4);
    // x is now fixed at 3: values off that point cross its bounds on one
    // side, and that child is never made.
    EXPECT_EQ(branch_both_ways(node, kGeneral, 3.5, alloc).size(), 1u);
    EXPECT_EQ(branch_both_ways(node, kGeneral, 2.5, alloc).size(), 1u);
    EXPECT_GT(chain_bytes, 0);
  }
  EXPECT_EQ(chain_bytes, 0) << "every record is released with its nodes";
}

TEST(BoundChain, RandomBranchingMatchesCopiedBounds) {
  long long chain_bytes = 0;
  const TallyAllocator<BoundChange> alloc(&chain_bytes);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<CopiedNode> open;
    CopiedNode root;
    root.lower = kRootLower;
    root.upper = kRootUpper;
    open.push_back(std::move(root));
    int crossed = 0;
    for (int step = 0; step < 3000 && !open.empty(); ++step) {
      // Pop a random open node and branch it on a random integer column.
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
      const CopiedNode parent = std::move(open[k]);
      if (k + 1 != open.size()) open[k] = std::move(open.back());
      open.pop_back();
      expect_materializes_to_copy(parent);
      const int var = static_cast<int>(rng.uniform_int(0, kGeneral));
      const auto col = static_cast<std::size_t>(var);
      const double lo = parent.lower[col];
      const double hi = parent.upper[col];
      // Mostly an LP value inside the box; sometimes one just outside it,
      // so one child crosses its bounds.
      const double u = rng.uniform();
      const double v = u < 0.1    ? lo - 0.5
                       : u < 0.2  ? hi + 0.5
                                  : lo + (hi - lo) * rng.uniform();
      std::vector<CopiedNode> children =
          branch_both_ways(parent, var, v, alloc);
      crossed += 2 - static_cast<int>(children.size());
      // Keep the open set small so chains grow deep.
      for (CopiedNode& child : children) {
        if (open.size() < 64) open.push_back(std::move(child));
      }
    }
    EXPECT_GT(crossed, 0) << "seed " << seed;
    for (const CopiedNode& n : open) {
      expect_materializes_to_copy(n);
    }
  }
  EXPECT_EQ(chain_bytes, 0);
}

}  // namespace
}  // namespace etransform::milp
