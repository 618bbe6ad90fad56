// The arena-backed PartitionForest: traversal orders and structural
// invariants of engine-built forests (leaf disjointness + coverage).
#include "core/partition_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "workload/generators.hpp"

namespace sepdc::core {
namespace {

geo::SeparatorShape<2> vertical_plane(double x) {
  geo::Halfspace<2> h;
  h.normal = {{1.0, 0.0}};
  h.offset = x;
  return geo::SeparatorShape<2>::make_halfspace(h);
}

// Builds the forest
//   root [0,4)
//   ├── inner [0,2)
//   │   ├── leaf [0,1)
//   │   └── leaf [1,2)
//   └── outer leaf [2,4)
// with slots deliberately allocated out of preorder, to check that the
// traversals follow the links, not the arena order.
PartitionForest<2> small_forest() {
  auto f = PartitionForest<2>::for_points(4);
  std::uint32_t l01 = f.allocate();    // slot 0: leaf [0,1)
  std::uint32_t root = f.allocate();   // slot 1: root
  std::uint32_t l24 = f.allocate();    // slot 2: leaf [2,4)
  std::uint32_t mid = f.allocate();    // slot 3: internal [0,2)
  std::uint32_t l12 = f.allocate();    // slot 4: leaf [1,2)
  f.node(l01) = {0, 1, kNoChild, kNoChild, {}};
  f.node(l12) = {1, 2, kNoChild, kNoChild, {}};
  f.node(l24) = {2, 4, kNoChild, kNoChild, {}};
  f.node(mid) = {0, 2, l01, l12, vertical_plane(0.5)};
  f.node(root) = {0, 4, mid, l24, vertical_plane(1.5)};
  f.set_root(root);
  f.finalize();
  return f;
}

TEST(PartitionForest, PreorderVisitsNodeThenInnerThenOuter) {
  auto f = small_forest();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  f.preorder([&](std::uint32_t id) {
    ranges.emplace_back(f.node(id).begin, f.node(id).end);
  });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0, 4}, {0, 2}, {0, 1}, {1, 2}, {2, 4}};
  EXPECT_EQ(ranges, want);
}

TEST(PartitionForest, LevelOrderVisitsByDepth) {
  auto f = small_forest();
  std::vector<std::pair<std::uint32_t, std::size_t>> visits;
  f.level_order([&](std::uint32_t id, std::size_t level) {
    visits.emplace_back(f.node(id).begin, level);
  });
  std::vector<std::pair<std::uint32_t, std::size_t>> want = {
      {0, 0}, {0, 1}, {2, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(visits, want);
}

TEST(PartitionForest, CountsAndHeight) {
  auto f = small_forest();
  EXPECT_EQ(f.node_count(), 5u);
  EXPECT_EQ(f.leaf_count(), 3u);
  EXPECT_EQ(f.point_count(), 4u);
  EXPECT_EQ(f.height(), 3u);  // leaves at height 1
  EXPECT_FALSE(f.empty());
}

TEST(PartitionForest, EmptyForest) {
  PartitionForest<2> f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.node_count(), 0u);
  EXPECT_EQ(f.leaf_count(), 0u);
  EXPECT_EQ(f.height(), 0u);
  std::size_t visits = 0;
  f.preorder([&](std::uint32_t) { ++visits; });
  f.level_order([&](std::uint32_t, std::size_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(PartitionForest, EngineLeavesAreDisjointAndCoverAllPoints) {
  Rng rng(2025);
  auto pts = workload::uniform_cube<2>(5000, rng);
  std::span<const geo::Point<2>> span(pts);
  Config cfg;
  cfg.k = 1;
  cfg.seed = 7;
  auto out = NearestNeighborEngine<2>::run(span, cfg,
                                           par::ThreadPool::global());
  const auto& f = out.forest;

  // Every leaf range is nonempty; sorted by begin, they tile [0, n)
  // exactly — no gaps, no overlaps.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> leaves;
  f.preorder([&](std::uint32_t id) {
    const auto& node = f.node(id);
    if (node.is_leaf()) leaves.emplace_back(node.begin, node.end);
  });
  EXPECT_EQ(leaves.size(), f.leaf_count());
  std::sort(leaves.begin(), leaves.end());
  std::uint32_t cursor = 0;
  for (const auto& [b, e] : leaves) {
    EXPECT_EQ(b, cursor);
    EXPECT_LT(b, e);
    cursor = e;
  }
  EXPECT_EQ(cursor, 5000u);

  // The report's shape summary matches the forest itself.
  EXPECT_EQ(out.report.forest_nodes, f.node_count());
  EXPECT_EQ(out.report.forest_leaves, f.leaf_count());
  EXPECT_EQ(out.report.forest_height, f.height());
}

TEST(PartitionForest, ArenaCapacityBoundHolds) {
  // 2n-1 slots always suffice: check across sizes including n = 1.
  for (std::size_t n : {1u, 2u, 17u, 501u}) {
    Rng rng(3000 + n);
    auto pts = workload::uniform_cube<2>(n, rng);
    std::span<const geo::Point<2>> span(pts);
    Config cfg;
    auto out = NearestNeighborEngine<2>::run(span, cfg,
                                             par::ThreadPool::global());
    EXPECT_LE(out.forest.node_count(), 2 * n - 1);
    EXPECT_EQ(out.forest.point_count(), n);
  }
}

TEST(PartitionForest, MoveTransfersOwnership) {
  auto f = small_forest();
  auto moved = std::move(f);
  EXPECT_EQ(moved.node_count(), 5u);
  EXPECT_FALSE(moved.empty());
  EXPECT_TRUE(f.empty());  // NOLINT(bugprone-use-after-move): spec'd reset
}

}  // namespace
}  // namespace sepdc::core
