#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "knn/brute_force.hpp"
#include "knn/graph.hpp"
#include "knn/result.hpp"
#include "knn/topk.hpp"
#include "workload/generators.hpp"

namespace sepdc::knn {
namespace {

TEST(TopK, KeepsSmallestK) {
  TopK t(3);
  for (std::uint32_t i = 0; i < 10; ++i)
    t.offer(static_cast<double>(10 - i), i);  // distances 10..1
  auto sorted = t.take_sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].dist2, 1.0);
  EXPECT_DOUBLE_EQ(sorted[2].dist2, 3.0);
}

TEST(TopK, WorstDistInfiniteUntilFull) {
  TopK t(2);
  EXPECT_EQ(t.worst_dist2(), std::numeric_limits<double>::infinity());
  t.offer(5.0, 0);
  EXPECT_EQ(t.worst_dist2(), std::numeric_limits<double>::infinity());
  t.offer(3.0, 1);
  EXPECT_DOUBLE_EQ(t.worst_dist2(), 5.0);
  t.offer(1.0, 2);
  EXPECT_DOUBLE_EQ(t.worst_dist2(), 3.0);
}

TEST(TopK, DeterministicTieBreakByIndex) {
  TopK a(2), b(2);
  a.offer(1.0, 5);
  a.offer(1.0, 3);
  a.offer(1.0, 7);
  b.offer(1.0, 7);
  b.offer(1.0, 5);
  b.offer(1.0, 3);
  auto sa = a.take_sorted();
  auto sb = b.take_sorted();
  ASSERT_EQ(sa.size(), 2u);
  EXPECT_EQ(sa[0].index, sb[0].index);
  EXPECT_EQ(sa[1].index, sb[1].index);
  EXPECT_EQ(sa[0].index, 3u);
  EXPECT_EQ(sa[1].index, 5u);
}

TEST(TopK, ZeroCapacity) {
  TopK t(0);
  t.offer(1.0, 0);
  EXPECT_EQ(t.size(), 0u);
  // Nothing can be kept, so the bound rejects every candidate.
  EXPECT_TRUE(t.full());
  EXPECT_EQ(t.worst_dist2(), -std::numeric_limits<double>::infinity());
  const double dist2s[3] = {0.0, 1.0, 2.0};
  const std::uint32_t ids[3] = {4, 5, 6};
  t.offer_block(dist2s, ids, 3);
  t.offer_block(dist2s, ids, 3, /*exclude=*/5);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.take_sorted().empty());
}

// The k entries TopK keeps are the first k of a sort by (dist2, id),
// whatever order they are offered in and whichever entry point offers
// them. The engine's nearest-first base case relies on this.
TEST(TopK, SelectionIgnoresOfferOrder) {
  constexpr std::uint32_t kExclude = 999;
  Rng rng(2024);
  for (std::size_t n : {std::size_t{5}, std::size_t{37}}) {
    // Few distinct distances, so most entries tie; ids are distinct but
    // not in distance order.
    std::vector<TopK::Entry> entries(n);
    for (std::size_t i = 0; i < n; ++i)
      entries[i] = {static_cast<double>(rng() % 4),
                    static_cast<std::uint32_t>(3 * i + 1)};
    std::shuffle(entries.begin(), entries.end(), rng);
    std::vector<TopK::Entry> sorted = entries;
    std::sort(sorted.begin(), sorted.end());

    for (std::size_t k : {std::size_t{1}, std::size_t{8}, n - 1, n, n + 3}) {
      const std::vector<TopK::Entry> expect(
          sorted.begin(),
          sorted.begin() + static_cast<std::ptrdiff_t>(std::min(k, n)));
      for (int round = 0; round < 50; ++round) {
        std::shuffle(entries.begin(), entries.end(), rng);

        TopK one(k);
        for (const TopK::Entry& e : entries) one.offer(e.dist2, e.index);
        EXPECT_EQ(one.take_sorted(), expect) << "n=" << n << " k=" << k;

        // 8-lane blocks ending in a short tail block, with the excluded
        // id mixed in at distance 0, where it would enter most
        // selections. Pad lanes hold -1.0, which beats every entry, so
        // they must be cut by the lane count.
        std::vector<TopK::Entry> lanes = entries;
        lanes.insert(lanes.begin() + static_cast<std::ptrdiff_t>(
                                         rng() % (lanes.size() + 1)),
                     TopK::Entry{0.0, kExclude});
        TopK blocked(k);
        for (std::size_t base = 0; base < lanes.size(); base += 8) {
          double dist2s[8];
          std::uint32_t ids[8];
          std::fill(dist2s, dist2s + 8, -1.0);
          std::fill(ids, ids + 8, kExclude + 1);
          const std::size_t count =
              std::min<std::size_t>(8, lanes.size() - base);
          for (std::size_t j = 0; j < count; ++j) {
            dist2s[j] = lanes[base + j].dist2;
            ids[j] = lanes[base + j].index;
          }
          blocked.offer_block(dist2s, ids, count, kExclude);
        }
        EXPECT_EQ(blocked.take_sorted(), expect) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KnnResult, PaddingSemantics) {
  auto r = KnnResult::empty(3, 2);
  EXPECT_EQ(r.count(0), 0u);
  EXPECT_TRUE(std::isinf(r.radius(0)));
  r.row_neighbors(0)[0] = 1;
  r.row_dist2(0)[0] = 4.0;
  EXPECT_EQ(r.count(0), 1u);
  EXPECT_TRUE(std::isinf(r.radius(0)));  // not full yet
  r.row_neighbors(0)[1] = 2;
  r.row_dist2(0)[1] = 9.0;
  EXPECT_EQ(r.count(0), 2u);
  EXPECT_DOUBLE_EQ(r.radius(0), 3.0);
}

TEST(BruteForce, TinyHandComputedCase) {
  std::vector<geo::Point<2>> pts{
      {{0.0, 0.0}}, {{1.0, 0.0}}, {{3.0, 0.0}}, {{7.0, 0.0}}};
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 2);
  EXPECT_EQ(r.row_neighbors(0)[0], 1u);  // 0 -> 1 (d=1), then 2 (d=3)
  EXPECT_EQ(r.row_neighbors(0)[1], 2u);
  EXPECT_DOUBLE_EQ(r.row_dist2(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(r.row_dist2(0)[1], 9.0);
  EXPECT_EQ(r.row_neighbors(3)[0], 2u);  // 7 -> 3 (d=4), then 1 (d=6)
  EXPECT_EQ(r.row_neighbors(3)[1], 1u);
}

TEST(BruteForce, FewerPointsThanKPads) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 5);
  EXPECT_EQ(r.count(0), 1u);
  EXPECT_TRUE(std::isinf(r.radius(0)));
}

TEST(BruteForce, DuplicatePointsZeroDistance) {
  std::vector<geo::Point<2>> pts{{{1.0, 1.0}}, {{1.0, 1.0}}, {{1.0, 1.0}}};
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 2);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.count(i), 2u);
    EXPECT_DOUBLE_EQ(r.radius(i), 0.0);
  }
}

TEST(BruteForce, ZeroKReturnsEmptyRows) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}, {{3.0, 0.0}}};
  std::span<const geo::Point<2>> span(pts);
  auto r = brute_force<2>(span, 0);
  EXPECT_EQ(r.n, 3u);
  EXPECT_EQ(r.k, 0u);
  EXPECT_TRUE(r.neighbors.empty());
  EXPECT_TRUE(r.dist2.empty());
  auto& pool = par::ThreadPool::global();
  auto parl = brute_force_parallel<2>(pool, span, 0);
  EXPECT_EQ(parl.k, 0u);
  EXPECT_TRUE(parl.neighbors.empty());
}

TEST(BruteForce, ParallelMatchesSequential) {
  Rng rng(31);
  auto pts = workload::uniform_cube<3>(300, rng);
  auto seq = brute_force<3>(std::span<const geo::Point<3>>(pts), 4);
  auto& pool = par::ThreadPool::global();
  auto parl =
      brute_force_parallel<3>(pool, std::span<const geo::Point<3>>(pts), 4);
  EXPECT_EQ(seq.neighbors, parl.neighbors);
  EXPECT_EQ(seq.dist2, parl.dist2);
}

TEST(KnnGraph, Definition11Symmetry) {
  Rng rng(32);
  auto pts = workload::uniform_cube<2>(200, rng);
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 3);
  auto& pool = par::ThreadPool::global();
  auto g = KnnGraph::from_result(pool, r);
  EXPECT_EQ(g.vertex_count(), 200u);
  // Every directed k-NN relation appears as an undirected edge.
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::uint32_t j : r.row_neighbors(i)) {
      if (j == KnnResult::kInvalid) break;
      EXPECT_TRUE(g.has_edge(static_cast<std::uint32_t>(i), j));
      EXPECT_TRUE(g.has_edge(j, static_cast<std::uint32_t>(i)));
    }
  }
}

TEST(KnnGraph, EdgeCountBounds) {
  Rng rng(33);
  const std::size_t n = 500, k = 2;
  auto pts = workload::uniform_cube<2>(n, rng);
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), k);
  auto& pool = par::ThreadPool::global();
  auto g = KnnGraph::from_result(pool, r);
  // Between n*k/2 (all mutual) and n*k (no mutual) undirected edges.
  EXPECT_GE(g.edge_count(), n * k / 2);
  EXPECT_LE(g.edge_count(), n * k);
  EXPECT_GE(g.max_degree(), k);
}

TEST(KnnGraph, NoSelfLoopsAndSortedAdjacency) {
  Rng rng(34);
  auto pts = workload::uniform_cube<2>(100, rng);
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 2);
  auto& pool = par::ThreadPool::global();
  auto g = KnnGraph::from_result(pool, r);
  for (std::uint32_t v = 0; v < 100; ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (auto w : nbrs) EXPECT_NE(w, v);
  }
}

TEST(KnnGraph, PaddedRowsProduceOnlyValidEdges) {
  // n - 1 < k: rows carry padding that must not become edges.
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 5);
  auto g = KnnGraph::from_result(par::ThreadPool::global(), r);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(KnnGraph, ConnectedComponentsOfTwoClusters) {
  // Two tight, well-separated clusters with k=1 give >= 2 components.
  std::vector<geo::Point<2>> pts;
  Rng rng(35);
  for (int i = 0; i < 20; ++i)
    pts.push_back({{rng.uniform(0, 0.01), rng.uniform(0, 0.01)}});
  for (int i = 0; i < 20; ++i)
    pts.push_back({{100.0 + rng.uniform(0, 0.01), rng.uniform(0, 0.01)}});
  auto r = brute_force<2>(std::span<const geo::Point<2>>(pts), 1);
  auto& pool = par::ThreadPool::global();
  auto g = KnnGraph::from_result(pool, r);
  EXPECT_GE(g.component_count(), 2u);
}

}  // namespace
}  // namespace sepdc::knn
