#include "knn/kdtree.hpp"

#include <gtest/gtest.h>

#include "knn/brute_force.hpp"
#include "workload/generators.hpp"

namespace sepdc::knn {
namespace {

struct Case {
  workload::Kind kind;
  std::size_t n;
  std::size_t k;
};

class KdTreeMatchesBruteForce2D : public ::testing::TestWithParam<Case> {};

TEST_P(KdTreeMatchesBruteForce2D, AllKnnAgree) {
  auto [kind, n, k] = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(kind));
  auto pts = workload::generate<2>(kind, n, rng);
  std::span<const geo::Point<2>> span(pts);
  auto& pool = par::ThreadPool::global();

  KdTree<2> tree(span, 8);
  auto got = tree.all_knn(pool, k);
  auto expect = brute_force_parallel<2>(pool, span, k);

  ASSERT_EQ(got.n, expect.n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distances must agree exactly; indices may differ only among exact
    // ties, which the deterministic tie-break rules out.
    EXPECT_EQ(std::vector<double>(got.row_dist2(i).begin(),
                                  got.row_dist2(i).end()),
              std::vector<double>(expect.row_dist2(i).begin(),
                                  expect.row_dist2(i).end()))
        << "point " << i;
    EXPECT_EQ(std::vector<std::uint32_t>(got.row_neighbors(i).begin(),
                                         got.row_neighbors(i).end()),
              std::vector<std::uint32_t>(expect.row_neighbors(i).begin(),
                                         expect.row_neighbors(i).end()))
        << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, KdTreeMatchesBruteForce2D,
    ::testing::Values(Case{workload::Kind::UniformCube, 500, 1},
                      Case{workload::Kind::UniformCube, 500, 5},
                      Case{workload::Kind::GaussianClusters, 400, 3},
                      Case{workload::Kind::GridJitter, 400, 2},
                      Case{workload::Kind::AdversarialSlab, 300, 3},
                      Case{workload::Kind::NearCollinear, 300, 2},
                      Case{workload::Kind::Duplicates, 300, 4}));

TEST(KdTree, ThreeAndFourDimensions) {
  Rng rng(41);
  auto& pool = par::ThreadPool::global();
  {
    auto pts = workload::uniform_cube<3>(400, rng);
    std::span<const geo::Point<3>> span(pts);
    auto got = KdTree<3>(span).all_knn(pool, 3);
    auto expect = brute_force<3>(span, 3);
    EXPECT_EQ(got.neighbors, expect.neighbors);
  }
  {
    auto pts = workload::uniform_cube<4>(300, rng);
    std::span<const geo::Point<4>> span(pts);
    auto got = KdTree<4>(span).all_knn(pool, 2);
    auto expect = brute_force<4>(span, 2);
    EXPECT_EQ(got.neighbors, expect.neighbors);
  }
}

TEST(KdTree, QueryPointNotInSet) {
  Rng rng(42);
  auto pts = workload::uniform_cube<2>(500, rng);
  std::span<const geo::Point<2>> span(pts);
  KdTree<2> tree(span);
  geo::Point<2> q{{0.5, 0.5}};
  auto best = tree.query(q, 3).take_sorted();
  ASSERT_EQ(best.size(), 3u);
  // Verify against linear scan.
  TopK ref(3);
  for (std::size_t j = 0; j < pts.size(); ++j)
    ref.offer(geo::distance2(pts[j], q), static_cast<std::uint32_t>(j));
  auto expect = ref.take_sorted();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(best[s].index, expect[s].index);
    EXPECT_DOUBLE_EQ(best[s].dist2, expect[s].dist2);
  }
}

TEST(KdTree, RangeQueryClosedBall) {
  std::vector<geo::Point<2>> pts{
      {{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}, {{0.5, 0.5}}};
  KdTree<2> tree{std::span<const geo::Point<2>>(pts)};
  std::vector<std::uint32_t> found;
  tree.for_each_in_ball(geo::Point<2>{{0.0, 0.0}}, 1.0,
                        [&](std::uint32_t id, double) { found.push_back(id); });
  std::sort(found.begin(), found.end());
  // Closed ball of radius 1 (the SeparatorIndex contract, docs/kernels.md):
  // the origin itself (d=0), (0.5,0.5), and the boundary point (1,0) at
  // distance exactly 1.
  EXPECT_EQ(found, (std::vector<std::uint32_t>{0u, 1u, 3u}));
}

TEST(KdTree, RangeQueryZeroRadiusFindsCoincident) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
  KdTree<2> tree{std::span<const geo::Point<2>>(pts)};
  // Closed-ball semantics: radius 0 finds exactly the coincident point,
  // matching SeparatorIndex::for_each_in_ball.
  std::vector<std::uint32_t> found;
  tree.for_each_in_ball(geo::Point<2>{{0.0, 0.0}}, 0.0,
                        [&](std::uint32_t id, double d2) {
                          found.push_back(id);
                          EXPECT_EQ(d2, 0.0);
                        });
  EXPECT_EQ(found, (std::vector<std::uint32_t>{0u}));
  // Negative radius is an empty query, not an error.
  int hits = 0;
  tree.for_each_in_ball(geo::Point<2>{{0.0, 0.0}}, -1.0,
                        [&](std::uint32_t, double) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(KdTree, EmptyAndSingleton) {
  std::vector<geo::Point<2>> none;
  KdTree<2> empty{std::span<const geo::Point<2>>(none)};
  EXPECT_EQ(empty.query(geo::Point<2>{}, 2).size(), 0u);

  std::vector<geo::Point<2>> one{{{1.0, 2.0}}};
  KdTree<2> single{std::span<const geo::Point<2>>(one)};
  auto best = single.query(geo::Point<2>{}, 2).take_sorted();
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].index, 0u);
}

TEST(KdTree, ZeroKQueryIsEmpty) {
  // k = 0 keeps nothing, so every box is pruned at the root.
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}, {{3.0, 0.0}}};
  KdTree<2> tree{std::span<const geo::Point<2>>(pts)};
  TopK best = tree.query(pts[0], 0);
  EXPECT_EQ(best.size(), 0u);
  EXPECT_TRUE(best.take_sorted().empty());

  auto& pool = par::ThreadPool::global();
  auto r = tree.all_knn(pool, 0);
  EXPECT_EQ(r.n, 3u);
  EXPECT_EQ(r.k, 0u);
  EXPECT_TRUE(r.neighbors.empty());
}

TEST(KdTree, AllIdenticalPoints) {
  std::vector<geo::Point<2>> pts(64, geo::Point<2>{{1.0, 1.0}});
  KdTree<2> tree{std::span<const geo::Point<2>>(pts)};
  auto& pool = par::ThreadPool::global();
  auto r = tree.all_knn(pool, 3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(r.count(i), 3u);
    EXPECT_DOUBLE_EQ(r.radius(i), 0.0);
  }
}

}  // namespace
}  // namespace sepdc::knn
