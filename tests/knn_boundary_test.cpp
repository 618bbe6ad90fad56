// Boundary-tie differential suite: radius queries whose radius lands
// *exactly* on inter-point distances.
//
// On an integer lattice, radii like 1, sqrt(2), 2, and 5 (= |(3,4)|) hit
// whole rings of points at distance exactly r. The closed-ball contract
// (docs/kernels.md) says every radius path in the library — the direct
// scan oracle, KdTree::for_each_in_ball (the test and bench oracle),
// SeparatorIndex::for_each_in_ball, SeparatorIndex::batch_radius, and
// the QueryBroker's batched and punted routes — must agree on those
// boundary points bit for bit. The kd-tree once implemented an open ball
// and silently dropped every on-boundary point here.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/separator_index.hpp"
#include "knn/kdtree.hpp"
#include "service/query_broker.hpp"
#include "support/rng.hpp"

namespace sepdc {
namespace {

using Pt = geo::Point<2>;
using Hit = std::pair<std::uint32_t, double>;
using std::chrono::microseconds;

// 13x13 unit lattice: plenty of exact-distance rings inside the grid.
std::vector<Pt> lattice(int side) {
  std::vector<Pt> pts;
  pts.reserve(static_cast<std::size_t>(side) * side);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x)
      pts.push_back(Pt{{static_cast<double>(x), static_cast<double>(y)}});
  return pts;
}

// The contract's reference implementation: closed ball via the identical
// threshold computation (radius * radius, compared with <=).
std::vector<Hit> oracle_ball(std::span<const Pt> pts, const Pt& c,
                             double radius) {
  std::vector<Hit> hits;
  const double r2 = radius * radius;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    double d2 = geo::distance2(pts[j], c);
    if (d2 <= r2) hits.emplace_back(static_cast<std::uint32_t>(j), d2);
  }
  return hits;
}

void sort_by_id(std::vector<Hit>& hits) {
  std::sort(hits.begin(), hits.end());
}

// Radii that land exactly on lattice distances (1, sqrt2, 2, sqrt5, 5 =
// the (3,4,5) triple) plus one irrational that lands on none.
const double kBoundaryRadii[] = {1.0, std::sqrt(2.0), 2.0, std::sqrt(5.0),
                                 5.0, 1.75};

TEST(BoundaryTies, KdTreeMatchesOracleOnExactRadii) {
  auto pts = lattice(13);
  std::span<const Pt> span(pts);
  knn::KdTree<2> tree(span, 8);
  // Query from lattice points (boundary ties guaranteed) and from
  // off-lattice points (no ties; sanity).
  std::vector<Pt> centers{pts[0], pts[84], pts[168], Pt{{6.5, 6.5}},
                          Pt{{3.0, 4.0}}};
  for (const Pt& c : centers) {
    for (double r : kBoundaryRadii) {
      auto expect = oracle_ball(span, c, r);
      std::vector<Hit> got;
      tree.for_each_in_ball(
          c, r, [&](std::uint32_t id, double d2) { got.emplace_back(id, d2); });
      sort_by_id(got);
      sort_by_id(expect);
      // Exact equality, distances included: boundary points carry
      // d2 == r*r bit for bit.
      EXPECT_EQ(got, expect) << "center " << c << " radius " << r;
    }
  }
}

TEST(BoundaryTies, SeparatorIndexPathsMatchOracle) {
  auto pts = lattice(13);
  std::span<const Pt> span(pts);
  auto& pool = par::ThreadPool::global();
  core::SeparatorIndexConfig cfg;
  cfg.seed = 2024;
  core::SeparatorIndex<2> index(span, cfg, pool);

  std::vector<Pt> centers{pts[0], pts[90], Pt{{6.0, 6.0}}, Pt{{0.5, 0.5}}};
  for (double r : kBoundaryRadii) {
    // Single-query march.
    for (const Pt& c : centers) {
      auto expect = oracle_ball(span, c, r);
      std::vector<Hit> got;
      index.for_each_in_ball(
          c, r, [&](std::uint32_t id, double d2) { got.emplace_back(id, d2); });
      sort_by_id(got);
      sort_by_id(expect);
      EXPECT_EQ(got, expect) << "center " << c << " radius " << r;
    }
    // Batched level-synchronous march.
    auto rows = index.batch_radius(pool, std::span<const Pt>(centers), r);
    ASSERT_EQ(rows.size(), centers.size());
    for (std::size_t q = 0; q < centers.size(); ++q) {
      auto expect = oracle_ball(span, centers[q], r);
      auto got = rows[q];
      sort_by_id(got);
      sort_by_id(expect);
      EXPECT_EQ(got, expect) << "batched center " << centers[q] << " radius "
                             << r;
    }
  }
}

TEST(BoundaryTies, ZeroRadiusFindsCoincidentEverywhere) {
  auto pts = lattice(5);
  std::span<const Pt> span(pts);
  auto& pool = par::ThreadPool::global();
  knn::KdTree<2> tree(span, 4);
  core::SeparatorIndexConfig cfg;
  cfg.seed = 99;
  core::SeparatorIndex<2> index(span, cfg, pool);
  // Closed ball of radius 0 centered on a lattice point = that point.
  for (std::uint32_t id : {0u, 7u, 24u}) {
    std::vector<Hit> kd_hits, idx_hits;
    tree.for_each_in_ball(pts[id], 0.0, [&](std::uint32_t j, double d2) {
      kd_hits.emplace_back(j, d2);
    });
    index.for_each_in_ball(pts[id], 0.0, [&](std::uint32_t j, double d2) {
      idx_hits.emplace_back(j, d2);
    });
    EXPECT_EQ(kd_hits, (std::vector<Hit>{{id, 0.0}}));
    EXPECT_EQ(idx_hits, (std::vector<Hit>{{id, 0.0}}));
  }
}

// Punted and batched broker radius answers must be byte-identical on
// boundary inputs: the punt route answers inline via the direct index
// march, the batched route via batch_radius — divergent
// open/closed semantics between them was the headline bug.
TEST(BoundaryTies, BrokerPuntedEqualsBatchedOnBoundaryRadii) {
  auto pts = lattice(13);
  std::span<const Pt> span(pts);
  auto& pool = par::ThreadPool::global();

  std::vector<Pt> queries{pts[0], pts[84], pts[168], Pt{{3.0, 4.0}},
                          Pt{{6.5, 6.5}}, pts[12]};
  for (double r : {1.0, std::sqrt(2.0), 5.0}) {
    // Batched: generous deadline, nothing punts.
    service::BrokerConfig batched_cfg;
    batched_cfg.max_batch = 64;
    batched_cfg.flush_interval = microseconds(200);
    batched_cfg.index.seed = 7;
    service::QueryBroker<2> batched(span, batched_cfg, pool);
    auto batched_rows = batched.bulk_radius(std::span<const Pt>(queries), r,
                                            microseconds(1'000'000));

    // Punted: deadline budget far below the flush interval forces the
    // inline fallback for every query (the PR 4 punt-forcing shape).
    service::BrokerConfig punt_cfg;
    punt_cfg.max_batch = 64;
    punt_cfg.flush_interval = microseconds(100000);
    punt_cfg.index.seed = 7;
    service::QueryBroker<2> punted(span, punt_cfg, pool);
    auto punted_rows = punted.bulk_radius(std::span<const Pt>(queries), r,
                                          microseconds(50));
    auto ps = punted.stats();
    ASSERT_EQ(ps.punted, queries.size());

    ASSERT_EQ(batched_rows.size(), punted_rows.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(batched_rows[q], punted_rows[q])
          << "query " << queries[q] << " radius " << r;
      // And both equal the closed-ball oracle.
      auto expect = oracle_ball(span, queries[q], r);
      auto got = batched_rows[q];
      sort_by_id(got);
      sort_by_id(expect);
      EXPECT_EQ(got, expect) << "query " << queries[q] << " radius " << r;
    }
  }
}

}  // namespace
}  // namespace sepdc
