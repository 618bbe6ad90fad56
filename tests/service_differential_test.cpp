// Differential suite: the QueryBroker must be indistinguishable from the
// brute-force oracle on results, for every workload generator and every
// batching/deadline configuration — micro-batching, coalescing, punting,
// and snapshot handoff may only change latency, never answers (including
// the deterministic (dist2, id) tie-break order).
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "knn/brute_force.hpp"
#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using std::chrono::microseconds;

constexpr workload::Kind kAllKinds[] = {
    workload::Kind::UniformCube,    workload::Kind::UniformBall,
    workload::Kind::GaussianClusters, workload::Kind::GridJitter,
    workload::Kind::SphereShell,    workload::Kind::AdversarialSlab,
    workload::Kind::NearCollinear,  workload::Kind::Duplicates,
};

// Compares broker all-k-NN rows against knn::brute_force, exactly.
void expect_matches_brute_force(
    const std::vector<std::vector<knn::TopK::Entry>>& rows,
    const knn::KnnResult& oracle, workload::Kind kind) {
  ASSERT_EQ(rows.size(), oracle.n);
  for (std::size_t i = 0; i < oracle.n; ++i) {
    auto nbr = oracle.row_neighbors(i);
    auto d2 = oracle.row_dist2(i);
    ASSERT_EQ(rows[i].size(), oracle.count(i))
        << workload::kind_name(kind) << " row " << i;
    for (std::size_t s = 0; s < rows[i].size(); ++s) {
      EXPECT_EQ(rows[i][s].index, nbr[s])
          << workload::kind_name(kind) << " row " << i << " slot " << s;
      EXPECT_DOUBLE_EQ(rows[i][s].dist2, d2[s])
          << workload::kind_name(kind) << " row " << i << " slot " << s;
    }
  }
}

struct BrokerVariant {
  const char* name;
  std::size_t max_batch;
  microseconds flush_interval;
  microseconds budget;  // 0 = no deadline
};

// One degenerate config (every submission is its own flush), one
// size-triggered config, one deadline-triggered config (threshold far
// above the traffic), one that punts everything (deadline-of-the-past).
constexpr BrokerVariant kVariants[] = {
    {"flush_each", 1, microseconds(0), microseconds(0)},
    {"size_16", 16, microseconds(5000), microseconds(0)},
    {"deadline_flush", 1 << 20, microseconds(30), microseconds(0)},
    {"punt_everything", 64, microseconds(400), microseconds(1)},
    {"generous_deadline", 64, microseconds(200), microseconds(1'000'000)},
};

class ServiceDifferential
    : public ::testing::TestWithParam<workload::Kind> {};

TEST_P(ServiceDifferential, AllKnnEqualsBruteForceAcrossConfigs) {
  const workload::Kind kind = GetParam();
  const std::size_t n = 700, k = 4;
  Rng rng(1200 + static_cast<std::uint64_t>(kind));
  auto points = workload::generate<2>(kind, n, rng);
  std::span<const Pt> span(points);
  auto oracle = knn::brute_force<2>(span, k);

  std::vector<std::uint32_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);
  auto& pool = par::ThreadPool::global();

  for (const BrokerVariant& v : kVariants) {
    BrokerConfig cfg;
    cfg.max_batch = v.max_batch;
    cfg.flush_interval = v.flush_interval;
    cfg.index.seed = rng.next();
    QueryBroker<2> broker(span, cfg, pool);

    // Chunked bulk submissions (multiple micro-batches per run) plus a
    // stretch of single-query submissions.
    std::vector<std::vector<knn::TopK::Entry>> rows(n);
    const std::size_t singles = 40;
    std::size_t q = 0;
    while (q < n - singles) {
      std::size_t len = std::min<std::size_t>(57, n - singles - q);
      auto chunk = broker.bulk_knn(
          span.subspan(q, len), k, v.budget,
          std::span<const std::uint32_t>(identity).subspan(q, len));
      for (std::size_t i = 0; i < len; ++i) rows[q + i] = std::move(chunk[i]);
      q += len;
    }
    for (; q < n; ++q)
      rows[q] = broker.knn(points[q], k, v.budget,
                           static_cast<std::uint32_t>(q));

    expect_matches_brute_force(rows, oracle, kind);

    auto s = broker.stats();
    EXPECT_EQ(s.submitted, n) << v.name;
    EXPECT_EQ(s.batched + s.punted, s.submitted) << v.name;
    if (v.budget == microseconds(1)) {
      EXPECT_GT(s.punted, 0u) << v.name;  // deadline in the past punts
    }
    if (v.budget == microseconds(0)) {
      EXPECT_EQ(s.punted, 0u) << v.name;  // no deadline never punts
    }
    // Histogram reconciliation at quiescence (the invariants documented
    // in service_stats.hpp): histogram counts equal the outcome
    // counters, and the flush-size *sum* — exact, no bucket error —
    // equals the batched count.
    EXPECT_EQ(s.queue_wait.count(), s.batched) << v.name;
    EXPECT_EQ(s.punt_latency.count(), s.punted) << v.name;
    EXPECT_EQ(s.batch_execute.count(), s.flushes) << v.name;
    EXPECT_EQ(s.flush_size.count(), s.flushes) << v.name;
    EXPECT_EQ(s.flush_size.sum(), s.batched) << v.name;
    EXPECT_EQ(s.flush_size.max(), s.max_flush_queries) << v.name;
    EXPECT_EQ(s.violations(), std::vector<std::string>{}) << v.name;
  }
}

TEST_P(ServiceDifferential, RadiusEqualsBruteForceClosedBall) {
  const workload::Kind kind = GetParam();
  const std::size_t n = 600;
  Rng rng(1300 + static_cast<std::uint64_t>(kind));
  auto points = workload::generate<2>(kind, n, rng);
  std::span<const Pt> span(points);

  std::vector<Pt> queries;
  for (int q = 0; q < 120; ++q)
    queries.push_back({{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)}});
  const double radius = 0.15;

  // Closed-ball brute-force oracle, sorted by (dist2, id) — the broker's
  // documented row order.
  auto oracle = [&](const Pt& c) {
    std::vector<std::pair<std::uint32_t, double>> out;
    for (std::size_t j = 0; j < n; ++j) {
      double d2 = geo::distance2(points[j], c);
      if (d2 <= radius * radius)
        out.emplace_back(static_cast<std::uint32_t>(j), d2);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    return out;
  };

  auto& pool = par::ThreadPool::global();
  for (const BrokerVariant& v : kVariants) {
    BrokerConfig cfg;
    cfg.max_batch = v.max_batch;
    cfg.flush_interval = v.flush_interval;
    cfg.index.seed = rng.next();
    QueryBroker<2> broker(span, cfg, pool);

    auto rows = broker.bulk_radius(std::span<const Pt>(queries), radius,
                                   v.budget);
    ASSERT_EQ(rows.size(), queries.size());
    for (std::size_t q2 = 0; q2 < queries.size(); ++q2)
      EXPECT_EQ(rows[q2], oracle(queries[q2]))
          << v.name << " " << workload::kind_name(kind) << " query " << q2;
    // A few single-query submissions through the same broker.
    for (std::size_t q2 = 0; q2 < 10; ++q2)
      EXPECT_EQ(broker.radius(queries[q2], radius, v.budget),
                oracle(queries[q2]))
          << v.name << " single " << q2;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ServiceDifferential,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& param_info) {
                           return std::string(
                               workload::kind_name(param_info.param));
                         });

// Two client threads submitting chunks concurrently: their requests
// coalesce into shared micro-batches, and both still see oracle results.
TEST(ServiceDifferentialCoalescing, TwoClientsShareBatches) {
  const std::size_t n = 800, k = 3;
  Rng rng(1400);
  auto points = workload::uniform_cube<2>(n, rng);
  std::span<const Pt> span(points);
  auto oracle = knn::brute_force<2>(span, k);

  BrokerConfig cfg;
  cfg.max_batch = 48;
  cfg.flush_interval = microseconds(300);
  cfg.index.seed = rng.next();
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());

  std::vector<std::uint32_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);
  std::vector<std::vector<knn::TopK::Entry>> rows(n);

  auto client = [&](std::size_t lo, std::size_t hi) {
    std::size_t q = lo;
    while (q < hi) {
      std::size_t len = std::min<std::size_t>(23, hi - q);
      auto chunk = broker.bulk_knn(
          span.subspan(q, len), k, QueryBroker<2>::kNoDeadline,
          std::span<const std::uint32_t>(identity).subspan(q, len));
      for (std::size_t i = 0; i < len; ++i)
        rows[q + i] = std::move(chunk[i]);
      q += len;
    }
  };
  std::thread a(client, 0, n / 2);
  std::thread b(client, n / 2, n);
  a.join();
  b.join();

  expect_matches_brute_force(rows, oracle, workload::Kind::UniformCube);
  auto s = broker.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.batched, n);
  // Coalescing happened: fewer flushes than bulk submissions would need
  // if each flushed alone... at minimum the flush machinery ran.
  EXPECT_GT(s.flushes, 0u);
  EXPECT_GE(s.max_flush_queries, 23u);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});
}

// Invalid query parameters are rejected at submission with a typed
// error naming the field (mirroring core::ConfigError) — and rejected
// *before* accounting, so the outcome counters never see them.
TEST(ServiceValidation, RejectsInvalidParametersWithoutAccounting) {
  const std::size_t n = 100;
  Rng rng(1500);
  auto points = workload::uniform_cube<2>(n, rng);
  std::span<const Pt> span(points);

  BrokerConfig cfg;
  cfg.index.seed = rng.next();
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());

  const Pt q{{0.5, 0.5}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_THROW(broker.knn(q, 0), QueryError);
  EXPECT_THROW(broker.bulk_knn(span.subspan(0, 10), 0), QueryError);
  EXPECT_THROW(broker.radius(q, -0.1), QueryError);
  EXPECT_THROW(broker.radius(q, nan), QueryError);
  EXPECT_THROW(broker.radius(q, inf), QueryError);
  EXPECT_THROW(broker.bulk_radius(span.subspan(0, 10), nan), QueryError);

  try {
    broker.knn(q, 0);
    FAIL() << "k == 0 must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "k");
  }
  try {
    broker.radius(q, nan);
    FAIL() << "NaN radius must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "radius");
  }

  // Rejected queries were never accounted, and the broker still serves.
  auto s = broker.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_FALSE(broker.knn(q, 3).empty());
  EXPECT_EQ(broker.stats().submitted, 1u);
}

// Differential check around the NaN grouping hazard: a valid radius
// request sharing a broker with rejected NaN submissions still gets
// oracle-exact answers (the NaN never reaches execute()'s ==-keyed
// grouping, where it would match no group including its own).
TEST(ServiceValidation, NanRejectionsDoNotPerturbValidAnswers) {
  const std::size_t n = 300;
  Rng rng(1600);
  auto points = workload::uniform_cube<2>(n, rng);
  std::span<const Pt> span(points);
  const double radius = 0.2;
  const Pt q{{0.4, 0.6}};

  std::vector<std::pair<std::uint32_t, double>> expected;
  for (std::size_t j = 0; j < n; ++j) {
    double d2 = geo::distance2(points[j], q);
    if (d2 <= radius * radius)
      expected.emplace_back(static_cast<std::uint32_t>(j), d2);
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });

  BrokerConfig cfg;
  cfg.index.seed = rng.next();
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(
        broker.radius(q, std::numeric_limits<double>::quiet_NaN()),
        QueryError);
    EXPECT_EQ(broker.radius(q, radius), expected);
  }
}

// Deterministic punting: a budget shorter than the flush interval can
// never survive the batch path (the punt decision adds the full flush
// interval to its ETA), so every request takes the fallback. This is
// the test that keeps the Punting-Lemma path — and its histogram — from
// silently regressing to dead code.
TEST(ServicePunting, BudgetBelowFlushIntervalPuntsEverything) {
  const std::size_t n = 400, k = 4;
  Rng rng(1700);
  auto points = workload::uniform_cube<2>(n, rng);
  std::span<const Pt> span(points);
  auto oracle = knn::brute_force<2>(span, k);

  BrokerConfig cfg;
  cfg.max_batch = 64;
  cfg.flush_interval = microseconds(100000);  // 100ms >> any budget here
  cfg.index.seed = rng.next();
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());

  std::vector<std::uint32_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);
  std::vector<std::vector<knn::TopK::Entry>> rows(n);
  std::size_t q = 0;
  while (q < n) {
    std::size_t len = std::min<std::size_t>(37, n - q);
    auto chunk = broker.bulk_knn(
        span.subspan(q, len), k, microseconds(50),
        std::span<const std::uint32_t>(identity).subspan(q, len));
    for (std::size_t i = 0; i < len; ++i) rows[q + i] = std::move(chunk[i]);
    q += len;
  }
  // Punted answers are exact too (the direct index search shares the
  // (dist2, id) tie-break).
  expect_matches_brute_force(rows, oracle, workload::Kind::UniformCube);

  auto s = broker.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.punted, n);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.punt_latency.count(), n);
  EXPECT_GT(s.punt_latency.max(), 0u);
  EXPECT_EQ(s.queue_wait.count(), 0u);
  EXPECT_EQ(s.flush_size.count(), s.flushes);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});
}

}  // namespace
}  // namespace sepdc::service
