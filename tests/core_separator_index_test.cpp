// The standalone SeparatorIndex: exact fixed-radius queries through the
// partition-tree reachability march, and exact k-NN through the
// branch-and-bound descent that prunes with the same reachability test.
#include "core/separator_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "knn/kdtree.hpp"
#include "workload/generators.hpp"

namespace sepdc::core {
namespace {

template <int D>
std::vector<std::uint32_t> brute_in_ball(
    std::span<const geo::Point<D>> pts, const geo::Point<D>& c, double r) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (geo::distance2(pts[i], c) <= r * r)
      out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

struct IndexCase {
  workload::Kind kind;
  std::size_t n;
};

class SeparatorIndexRadius : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SeparatorIndexRadius, FixedRadiusMatchesBruteForce) {
  auto [kind, n] = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(kind));
  auto pts = workload::generate<2>(kind, n, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.seed = rng.next();
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());

  for (int q = 0; q < 100; ++q) {
    geo::Point<2> c{{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)}};
    double r = rng.uniform(0.0, 0.3);
    std::vector<std::uint32_t> got;
    index.for_each_in_ball(c, r, [&](std::uint32_t id, double d2) {
      EXPECT_DOUBLE_EQ(d2, geo::distance2(pts[id], c));
      got.push_back(id);
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_in_ball<2>(span, c, r)) << "query " << q;
    EXPECT_EQ(index.count_in_ball(c, r), got.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SeparatorIndexRadius,
    ::testing::Values(IndexCase{workload::Kind::UniformCube, 2000},
                      IndexCase{workload::Kind::GaussianClusters, 2000},
                      IndexCase{workload::Kind::AdversarialSlab, 1500},
                      IndexCase{workload::Kind::Duplicates, 1500},
                      IndexCase{workload::Kind::NearCollinear, 1000}));

TEST(SeparatorIndex, KnnMatchesKdTreeExactly) {
  Rng rng(42);
  auto pts = workload::uniform_cube<2>(3000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<2> tree(span);

  for (int q = 0; q < 200; ++q) {
    geo::Point<2> p{{rng.uniform(), rng.uniform()}};
    std::size_t k = 1 + rng.below(8);
    auto got = index.knn(p, k).take_sorted();
    auto expect = tree.query(p, k).take_sorted();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].index, expect[s].index) << "query " << q;
      EXPECT_DOUBLE_EQ(got[s].dist2, expect[s].dist2);
    }
  }
}

TEST(SeparatorIndex, SelfExclusionKnn) {
  Rng rng(43);
  auto pts = workload::uniform_cube<2>(800, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<2> tree(span);
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto got = index.knn(pts[i], 3, i).take_sorted();
    auto expect = tree.query(pts[i], 3, i).take_sorted();
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(got[s].index, expect[s].index);
  }
}

TEST(SeparatorIndex, KGreaterThanPopulation) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}};
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  auto got = index.knn(geo::Point<2>{{0.1, 0.0}}, 10).take_sorted();
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].index, 0u);
}

TEST(SeparatorIndex, QueryFarOutsideTheData) {
  Rng rng(44);
  auto pts = workload::uniform_cube<2>(500, rng);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  geo::Point<2> far{{1000.0, -1000.0}};
  auto got = index.knn(far, 2).take_sorted();
  ASSERT_EQ(got.size(), 2u);
  // Verify against linear scan.
  knn::TopK ref(2);
  for (std::size_t j = 0; j < pts.size(); ++j)
    ref.offer(geo::distance2(pts[j], far), static_cast<std::uint32_t>(j));
  auto expect = ref.take_sorted();
  EXPECT_EQ(got[0].index, expect[0].index);
  EXPECT_EQ(got[1].index, expect[1].index);
}

TEST(SeparatorIndex, ZeroRadiusAndNegativeRadius) {
  std::vector<geo::Point<2>> pts{{{0.5, 0.5}}, {{0.5, 0.5}}, {{1.0, 1.0}}};
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  // Closed ball of radius 0 at a duplicated site finds both copies.
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{0.5, 0.5}}, 0.0), 2u);
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{0.5, 0.5}}, -1.0), 0u);
}

TEST(SeparatorIndex, AllIdenticalPoints) {
  std::vector<geo::Point<2>> pts(300, geo::Point<2>{{7.0, 7.0}});
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  EXPECT_EQ(index.count_in_ball(geo::Point<2>{{7.0, 7.0}}, 0.1), 300u);
  auto got = index.knn(geo::Point<2>{{7.0, 7.0}}, 5).take_sorted();
  EXPECT_EQ(got.size(), 5u);
}

TEST(SeparatorIndex, ThreeDimensions) {
  Rng rng(45);
  auto pts = workload::uniform_cube<3>(1500, rng);
  std::span<const geo::Point<3>> span(pts);
  SeparatorIndexConfig cfg;
  SeparatorIndex<3> index(span, cfg, par::ThreadPool::global());
  knn::KdTree<3> tree(span);
  for (int q = 0; q < 50; ++q) {
    geo::Point<3> p{{rng.uniform(), rng.uniform(), rng.uniform()}};
    auto got = index.knn(p, 4).take_sorted();
    auto expect = tree.query(p, 4).take_sorted();
    for (std::size_t s = 0; s < 4; ++s)
      EXPECT_EQ(got[s].index, expect[s].index);
  }
}

TEST(SeparatorIndex, HeightIsLogarithmic) {
  Rng rng(46);
  auto pts = workload::uniform_cube<2>(32768, rng);
  SeparatorIndexConfig cfg;
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg,
                          par::ThreadPool::global());
  EXPECT_LE(index.height(), 5 * 15u);  // c * log2(n)
  EXPECT_GE(index.leaf_count(), 32768u / cfg.leaf_size / 4);
}

TEST(SeparatorIndex, BatchRadiusMatchesBruteForce) {
  Rng rng(48);
  auto pts = workload::gaussian_clusters<2>(2500, 4, 0.03, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(span, cfg, pool);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 300; ++q)
    queries.push_back({{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)}});
  double radius = 0.15;
  auto rows = index.batch_radius(
      pool, std::span<const geo::Point<2>>(queries), radius);
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::uint32_t> got;
    for (const auto& [id, d2] : rows[q]) {
      EXPECT_DOUBLE_EQ(d2, geo::distance2(pts[id], queries[q]));
      got.push_back(id);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_in_ball<2>(span, queries[q], radius))
        << "query " << q;
  }
}

TEST(SeparatorIndex, BatchRadiusDeterministicAcrossPoolSizes) {
  Rng rng(49);
  auto pts = workload::uniform_cube<2>(2000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  par::ThreadPool solo(1);
  par::ThreadPool quad(4);
  SeparatorIndex<2> index(span, cfg, solo);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 500; ++q)
    queries.push_back({{rng.uniform(), rng.uniform()}});
  std::span<const geo::Point<2>> qspan(queries);
  auto a = index.batch_radius(solo, qspan, 0.1);
  auto b = index.batch_radius(quad, qspan, 0.1);
  // Bit-identical rows, including the within-row order.
  EXPECT_EQ(a, b);
}

TEST(SeparatorIndex, BatchRadiusEdgeCases) {
  std::vector<geo::Point<2>> pts{{{0.0, 0.0}}, {{1.0, 0.0}}};
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(std::span<const geo::Point<2>>(pts), cfg, pool);
  // Empty query batch.
  EXPECT_TRUE(
      index.batch_radius(pool, std::span<const geo::Point<2>>(), 1.0)
          .empty());
  // Negative radius: rows exist but are empty.
  std::vector<geo::Point<2>> queries{{{0.0, 0.0}}};
  auto rows = index.batch_radius(
      pool, std::span<const geo::Point<2>>(queries), -1.0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].empty());
}

TEST(SeparatorIndex, BatchKnnMatchesSingleQueries) {
  Rng rng(50);
  auto pts = workload::uniform_cube<2>(1500, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<2> index(span, cfg, pool);
  knn::KdTree<2> tree(span);

  std::vector<geo::Point<2>> queries;
  for (int q = 0; q < 200; ++q)
    queries.push_back({{rng.uniform(), rng.uniform()}});
  std::size_t k = 5;
  auto rows =
      index.batch_knn(pool, std::span<const geo::Point<2>>(queries), k);
  ASSERT_EQ(rows.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto expect = tree.query(queries[q], k).take_sorted();
    ASSERT_EQ(rows[q].size(), expect.size());
    for (std::size_t s = 0; s < expect.size(); ++s) {
      EXPECT_EQ(rows[q][s].index, expect[s].index) << "query " << q;
      EXPECT_DOUBLE_EQ(rows[q][s].dist2, expect[s].dist2);
    }
  }
}

// ------------------------------------------- k-NN exactness, D = 2..5
//
// Every row is compared with a linear scan in full: ids in (dist2, id)
// order and bitwise-equal distances. geo::distance2 and the leaf kernels
// are bit-identical under the kernel contract (docs/kernels.md), so any
// difference is a search bug.

template <int D>
std::vector<knn::TopK::Entry> brute_knn(std::span<const geo::Point<D>> pts,
                                        const geo::Point<D>& q,
                                        std::size_t k,
                                        std::uint32_t exclude) {
  knn::TopK best(k);
  for (std::size_t j = 0; j < pts.size(); ++j)
    if (j != exclude)
      best.offer(geo::distance2(pts[j], q), static_cast<std::uint32_t>(j));
  return best.take_sorted();
}

void expect_rows_equal(const std::vector<knn::TopK::Entry>& got,
                       const std::vector<knn::TopK::Entry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].index, want[s].index) << what << " slot " << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s].dist2),
              std::bit_cast<std::uint64_t>(want[s].dist2))
        << what << " slot " << s;
  }
}

// m^D integer lattice, ids in lexicographic order (axis 0 most
// significant): of two points that differ in one coordinate, the smaller
// coordinate has the smaller id.
template <int D>
std::vector<geo::Point<D>> lattice(int m) {
  std::vector<geo::Point<D>> pts;
  std::vector<int> c(D, 0);
  for (;;) {
    geo::Point<D> p;
    for (int d = 0; d < D; ++d) p[d] = c[d];
    pts.push_back(p);
    int d = D - 1;
    while (d >= 0 && ++c[d] == m) c[d--] = 0;
    if (d < 0) return pts;
  }
}

template <class Dim>
class SeparatorIndexKnnExact : public ::testing::Test {};
using Dims = ::testing::Types<std::integral_constant<int, 2>,
                              std::integral_constant<int, 3>,
                              std::integral_constant<int, 4>,
                              std::integral_constant<int, 5>>;
TYPED_TEST_SUITE(SeparatorIndexKnnExact, Dims);

// Median hyperplanes through lattice coordinates put lattice points on
// the separators. A query one step (or half a step) off a separator has
// its k-th ball exactly tangent to it, with equal-distance points on
// both sides; the point across the separator has the smaller id, so a
// search that treated tangency as unreachable would return the wrong
// tie. Sphere separators cover the general case on the same inputs.
TYPED_TEST(SeparatorIndexKnnExact, LatticeTangentBallsKeepTieOrder) {
  constexpr int D = TypeParam::value;
  constexpr int kSide[] = {0, 0, 12, 7, 5, 4};
  const auto pts = lattice<D>(kSide[D]);
  std::span<const geo::Point<D>> span(pts);
  std::vector<geo::Point<D>> queries(pts.begin(), pts.end());
  for (std::size_t i = 0; i < pts.size(); i += 3) {
    geo::Point<D> q = pts[i];
    q[static_cast<int>(i / 3) % D] += 0.5;
    queries.push_back(q);
  }
  for (PartitionRule rule :
       {PartitionRule::HyperplaneMedian, PartitionRule::MttvSphere}) {
    SeparatorIndexConfig cfg;
    cfg.leaf_size = 4;
    cfg.partition = rule;
    SeparatorIndex<D> index(span, cfg, par::ThreadPool::global());
    for (std::size_t k : {std::size_t{1}, std::size_t{D},
                          std::size_t{2 * D + 1}}) {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const std::uint32_t self = qi < pts.size()
                                       ? static_cast<std::uint32_t>(qi)
                                       : SeparatorIndex<D>::kNoExclude;
        const std::string tag = "rule " + std::to_string(int(rule)) +
                                " k " + std::to_string(k) + " query " +
                                std::to_string(qi);
        expect_rows_equal(index.knn(queries[qi], k, self).take_sorted(),
                          brute_knn<D>(span, queries[qi], k, self), tag);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Identical points cannot be split: the whole set is one leaf, every
// distance ties, and the rows must come back in id order.
TYPED_TEST(SeparatorIndexKnnExact, AllIdenticalPointsOneLeaf) {
  constexpr int D = TypeParam::value;
  geo::Point<D> site;
  for (int d = 0; d < D; ++d) site[d] = 0.25 * (d + 1);
  const std::vector<geo::Point<D>> pts(150, site);
  std::span<const geo::Point<D>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.leaf_size = 8;
  SeparatorIndex<D> index(span, cfg, par::ThreadPool::global());
  EXPECT_EQ(index.leaf_count(), 1u);
  geo::Point<D> off = site;
  off[0] += 3.0;
  for (const geo::Point<D>& q : {site, off})
    for (std::size_t k : {std::size_t{1}, std::size_t{7}, pts.size(),
                          pts.size() + 5})
      for (std::uint32_t ex : {SeparatorIndex<D>::kNoExclude, 0u, 42u})
        expect_rows_equal(index.knn(q, k, ex).take_sorted(),
                          brute_knn<D>(span, q, k, ex),
                          "k " + std::to_string(k) + " exclude " +
                              std::to_string(ex));
}

// The extremes of k: a single neighbor, exactly the population (every
// far side must be visited), and more than the population (a short row).
TYPED_TEST(SeparatorIndexKnnExact, KOneKEqualsNKAboveN) {
  constexpr int D = TypeParam::value;
  Rng rng(900 + D);
  const std::size_t n = 300;
  auto pts = workload::generate<D>(workload::Kind::GaussianClusters, n, rng);
  std::span<const geo::Point<D>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.leaf_size = 8;
  cfg.seed = rng.next();
  SeparatorIndex<D> index(span, cfg, par::ThreadPool::global());
  for (int qi = 0; qi < 20; ++qi) {
    geo::Point<D> q;
    for (int d = 0; d < D; ++d) q[d] = rng.uniform(-0.2, 1.2);
    for (std::size_t k : {std::size_t{1}, n, n + 1, 2 * n})
      for (std::uint32_t ex : {SeparatorIndex<D>::kNoExclude, 5u}) {
        const auto want = brute_knn<D>(span, q, k, ex);
        EXPECT_EQ(want.size(), std::min(k, ex == 5u ? n - 1 : n));
        expect_rows_equal(index.knn(q, k, ex).take_sorted(), want,
                          "query " + std::to_string(qi) + " k " +
                              std::to_string(k));
      }
  }
}

// batch_knn's per-query exclude: every indexed point asks for its own
// neighbors without itself (the all-k-NN shape), interleaved with rows
// that exclude nothing, on a duplicate-heavy set where the excluded
// point's twin sits at distance 0.
TYPED_TEST(SeparatorIndexKnnExact, BatchKnnPerQuerySelfExclusion) {
  constexpr int D = TypeParam::value;
  Rng rng(950 + D);
  auto pts = workload::generate<D>(workload::Kind::Duplicates, 400, rng);
  std::span<const geo::Point<D>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.leaf_size = 8;
  cfg.seed = rng.next();
  auto& pool = par::ThreadPool::global();
  SeparatorIndex<D> index(span, cfg, pool);
  std::vector<std::uint32_t> exclude(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    exclude[i] = i % 7 == 0 ? SeparatorIndex<D>::kNoExclude
                            : static_cast<std::uint32_t>(i);
  const std::size_t k = 6;
  auto rows = index.batch_knn(pool, span, k, exclude);
  ASSERT_EQ(rows.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    expect_rows_equal(rows[i], brute_knn<D>(span, pts[i], k, exclude[i]),
                      "row " + std::to_string(i));
}

TEST(SeparatorIndex, HyperplanePartitionVariant) {
  Rng rng(47);
  auto pts = workload::uniform_cube<2>(2000, rng);
  std::span<const geo::Point<2>> span(pts);
  SeparatorIndexConfig cfg;
  cfg.partition = PartitionRule::HyperplaneMedian;
  SeparatorIndex<2> index(span, cfg, par::ThreadPool::global());
  for (int q = 0; q < 50; ++q) {
    geo::Point<2> c{{rng.uniform(), rng.uniform()}};
    double r = rng.uniform(0.0, 0.2);
    EXPECT_EQ(index.count_in_ball(c, r), brute_in_ball<2>(span, c, r).size());
  }
}

}  // namespace
}  // namespace sepdc::core
