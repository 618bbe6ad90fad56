// Tests for service/service_stats.hpp, pinning the CAS-loop EWMA
// estimator (observe_batch_cost), the histogram snapshot plumbing, the
// flush-trigger taxonomy the broker maintains
// (flush_by_size + flush_by_deadline + flush_by_stop == flushes), the
// one definition of the accounting invariants (violations()), and the
// shard rollup (merge()).
#include "service/service_stats.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/query_broker.hpp"
#include "workload/generators.hpp"

namespace {

using sepdc::service::ServiceStats;

// The shed class split and the sharding counters ride the same relaxed
// snapshot path as everything else: shed partitions into
// shed_interactive + shed_bulk (so attempts == submitted + shed stays
// exact per class), and boundary_fanout is derived at snapshot time as
// fanout_queries / submitted — 0 when nothing was submitted, never NaN.
TEST(ServiceStats, ShedSplitAndFanoutSnapshot) {
  ServiceStats stats;
  EXPECT_DOUBLE_EQ(stats.snapshot().boundary_fanout, 0.0);

  ServiceStats::add(stats.submitted, 80);
  ServiceStats::add(stats.shed, 12);
  ServiceStats::add(stats.shed_interactive, 5);
  ServiceStats::add(stats.shed_bulk, 7);
  ServiceStats::add(stats.fanout_queries, 20);
  ServiceStats::add(stats.shard_visits, 130);

  auto s = stats.snapshot();
  EXPECT_EQ(s.shed, 12u);
  EXPECT_EQ(s.shed, s.shed_interactive + s.shed_bulk);
  EXPECT_EQ(s.submitted + s.shed, 92u);  // attempts
  EXPECT_EQ(s.fanout_queries, 20u);
  EXPECT_EQ(s.shard_visits, 130u);
  EXPECT_DOUBLE_EQ(s.boundary_fanout, 20.0 / 80.0);
}

TEST(ServiceStats, EwmaSingleWriterSequence) {
  ServiceStats stats;
  stats.observe_batch_cost(10.0);  // first observation seeds the estimate
  EXPECT_DOUBLE_EQ(stats.est_batch_us_per_query.load(), 10.0);
  stats.observe_batch_cost(20.0);  // 10 + 0.25 * (20 - 10)
  EXPECT_DOUBLE_EQ(stats.est_batch_us_per_query.load(), 12.5);
  stats.observe_batch_cost(12.5);  // at the estimate: no movement
  EXPECT_DOUBLE_EQ(stats.est_batch_us_per_query.load(), 12.5);
}

// The invariant the CAS loop buys: with any number of concurrent
// writers, every update applies the EWMA step to the value it actually
// replaced, so the estimate can never escape the convex hull of the
// observations. A torn read-modify-write (the old load+store version)
// loses updates and can land outside the hull under enough contention.
TEST(ServiceStats, EwmaMultiWriterStaysInHull) {
  ServiceStats stats;
  constexpr double kLo = 50.0;
  constexpr double kHi = 150.0;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deterministic values spanning [kLo, kHi].
        double v = kLo + (kHi - kLo) *
                             static_cast<double>((t * 31 + i) % 101) / 100.0;
        stats.observe_batch_cost(v);
      }
    });
  }
  for (auto& th : threads) th.join();
  double est = stats.est_batch_us_per_query.load();
  EXPECT_GE(est, kLo);
  EXPECT_LE(est, kHi);
}

TEST(ServiceStats, SnapshotCarriesHistograms) {
  ServiceStats stats;
  stats.queue_wait.record(1000, 4);
  stats.batch_execute.record(5000);
  stats.punt_latency.record(200, 2);
  stats.flush_size.record(4);
  auto s = stats.snapshot();
  EXPECT_EQ(s.queue_wait.count(), 4u);
  EXPECT_EQ(s.batch_execute.count(), 1u);
  EXPECT_EQ(s.punt_latency.count(), 2u);
  EXPECT_EQ(s.flush_size.count(), 1u);
  EXPECT_EQ(s.flush_size.sum(), 4u);
}

// Every flush is labeled by the trigger the flusher actually acted on,
// and the three labels partition `flushes`. In particular a shutdown
// drain whose size condition was never met counts as flush_by_stop —
// the bug this pins is that it used to count as flush_by_size.
TEST(ServiceStats, FlushTriggerTaxonomyReconciles) {
  using sepdc::geo::Point;
  using sepdc::service::BrokerConfig;
  using sepdc::service::QueryBroker;
  using std::chrono::microseconds;
  sepdc::Rng rng(90);
  auto points = sepdc::workload::generate<2>(
      sepdc::workload::Kind::UniformCube, 200, rng);
  std::span<const Point<2>> span(points);
  auto& pool = sepdc::par::ThreadPool::global();

  {
    // Size trigger: a bulk of 16 against max_batch 4 flushes by size.
    BrokerConfig cfg;
    cfg.max_batch = 4;
    cfg.flush_interval = microseconds(60'000'000);
    cfg.index.seed = 1;
    QueryBroker<2> broker(span, cfg, pool);
    broker.bulk_knn(span.subspan(0, 16), 3);
    auto s = broker.stats();
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.flush_by_size, 1u);
    EXPECT_EQ(s.flush_by_size + s.flush_by_deadline + s.flush_by_stop,
              s.flushes);
  }
  {
    // Deadline trigger: one query against an unreachable size threshold.
    BrokerConfig cfg;
    cfg.max_batch = 1 << 20;
    cfg.flush_interval = microseconds(500);
    cfg.index.seed = 2;
    QueryBroker<2> broker(span, cfg, pool);
    broker.knn(points[0], 3);
    auto s = broker.stats();
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.flush_by_deadline, 1u);
    EXPECT_EQ(s.flush_by_size + s.flush_by_deadline + s.flush_by_stop,
              s.flushes);
  }
  {
    // Stop trigger: a pending query whose size and deadline conditions
    // are both unreachable is drained by shutdown().
    BrokerConfig cfg;
    cfg.max_batch = 1 << 20;
    cfg.flush_interval = microseconds(60'000'000);
    cfg.index.seed = 3;
    QueryBroker<2> broker(span, cfg, pool);
    std::thread client([&] { broker.knn(points[0], 3); });
    while (broker.stats().submitted == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    broker.shutdown();
    client.join();
    auto s = broker.stats();
    EXPECT_EQ(s.flushes, 1u);
    EXPECT_EQ(s.flush_by_stop, 1u);
    EXPECT_EQ(s.flush_by_size, 0u);
    EXPECT_EQ(s.flush_by_deadline, 0u);
    EXPECT_EQ(s.flush_by_size + s.flush_by_deadline + s.flush_by_stop,
              s.flushes);
    EXPECT_EQ(s.batched, 1u);  // drained, answered exactly, not dropped
  }
}

// A snapshot whose accounting reconciles: 10 queries (6 k-NN, 4
// radius; 5 batched in 2 flushes, 3 punted, 2 fast-lane), 3 shed, 5
// updates, one compaction, one bootstrap.
sepdc::service::ServiceStatsSnapshot reconciled_snapshot() {
  ServiceStats st;
  ServiceStats::add(st.submitted, 10);
  ServiceStats::add(st.knn_submitted, 6);
  ServiceStats::add(st.radius_submitted, 4);
  ServiceStats::add(st.knn_answered, 6);
  ServiceStats::add(st.radius_answered, 4);
  ServiceStats::add(st.batched, 5);
  ServiceStats::add(st.punted, 3);
  ServiceStats::add(st.fast_lane, 2);
  ServiceStats::add(st.shed, 3);
  ServiceStats::add(st.shed_interactive, 1);
  ServiceStats::add(st.shed_bulk, 2);
  ServiceStats::add(st.flushes, 2);
  ServiceStats::add(st.flush_by_size, 1);
  ServiceStats::add(st.flush_by_deadline, 1);
  ServiceStats::add(st.updates_submitted, 5);
  ServiceStats::add(st.inserts, 3);
  ServiceStats::add(st.removes, 2);
  ServiceStats::add(st.compactions, 1);
  ServiceStats::add(st.snapshot_loads, 1);
  st.queue_wait.record(1000, 5);
  st.punt_latency.record(1000, 3);
  st.fast_lane_latency.record(1000, 2);
  st.batch_execute.record(5000, 2);
  st.flush_size.record(2);
  st.flush_size.record(3);
  st.index_load.record(7000);
  st.update_apply.record(900, 5);
  st.compaction_build.record(8000);
  return st.snapshot();
}

// A histogram snapshot holding `values`, one sample each.
sepdc::metrics::HistogramSnapshot histogram_of(
    std::initializer_list<std::uint64_t> values) {
  sepdc::metrics::Histogram h;
  for (std::uint64_t v : values) h.record(v);
  return h.snapshot();
}

// violations() is the one definition of the accounting invariants: a
// reconciled snapshot reports none, and a snapshot that breaks exactly
// one invariant reports exactly that invariant's name.
TEST(ServiceStats, ViolationsNameEachBrokenInvariant) {
  using Snap = sepdc::service::ServiceStatsSnapshot;
  EXPECT_TRUE(reconciled_snapshot().violations().empty());

  struct Case {
    const char* name;
    std::function<void(Snap&)> breaks;
  };
  const Case cases[] = {
      {"batched + punted + fast_lane == submitted",
       [](Snap& s) {
         ++s.submitted;  // with its per-op counts, so only this breaks
         ++s.knn_submitted;
         ++s.knn_answered;
       }},
      {"shed_interactive + shed_bulk == shed", [](Snap& s) { ++s.shed; }},
      {"flush_by_size + flush_by_deadline + flush_by_stop == flushes",
       [](Snap& s) { ++s.flush_by_stop; }},
      {"knn_submitted + radius_submitted == submitted",
       [](Snap& s) {
         ++s.knn_submitted;
         ++s.knn_answered;
       }},
      {"knn_answered == knn_submitted", [](Snap& s) { ++s.knn_answered; }},
      {"radius_answered == radius_submitted",
       [](Snap& s) { ++s.radius_answered; }},
      {"updates_submitted == inserts + removes",
       [](Snap& s) { ++s.inserts; }},
      {"queue_wait.count() == batched",
       [](Snap& s) { s.queue_wait = histogram_of({1, 1, 1, 1, 1, 1}); }},
      {"punt_latency.count() == punted",
       [](Snap& s) { s.punt_latency = histogram_of({1}); }},
      {"fast_lane_latency.count() == fast_lane",
       [](Snap& s) { s.fast_lane_latency = histogram_of({1}); }},
      {"batch_execute.count() == flushes",
       [](Snap& s) { s.batch_execute = histogram_of({1, 1, 1}); }},
      {"flush_size.count() == flushes",
       [](Snap& s) { s.flush_size = histogram_of({1, 2, 2}); }},
      {"flush_size.sum() == batched",
       [](Snap& s) { s.flush_size = histogram_of({3, 3}); }},
      {"index_load.count() == snapshot_loads",
       [](Snap& s) { s.index_load = histogram_of({1, 1}); }},
      {"update_apply.count() == updates_submitted",
       [](Snap& s) { s.update_apply = histogram_of({1}); }},
      {"compaction_build.count() == compactions",
       [](Snap& s) { s.compaction_build = histogram_of({1, 1}); }},
  };
  for (const Case& c : cases) {
    Snap s = reconciled_snapshot();
    c.breaks(s);
    EXPECT_EQ(s.violations(), std::vector<std::string>{c.name}) << c.name;
  }
}

// The shard rollup: counters tagged sum add, the two high-water marks
// take the max, histograms merge bucket-wise, and the gauges stay as
// they were (an operating point is per shard).
TEST(ServiceStats, MergeRollsUpBySumMaxAndHistogram) {
  ServiceStats a;
  ServiceStats b;
  ServiceStats::add(a.controller_updates, 3);
  ServiceStats::add(b.controller_updates, 4);
  ServiceStats::add(a.batched, 2);
  ServiceStats::bump_max(a.max_flush_queries, 9);
  ServiceStats::bump_max(b.max_flush_queries, 5);
  ServiceStats::bump_max(b.delta_peak, 12);
  ServiceStats::set_gauge(a.cur_max_batch, 64);
  ServiceStats::set_gauge(b.cur_max_batch, 32);
  a.queue_wait.record(1000, 2);
  b.queue_wait.record(3000, 1);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.controller_updates, 7u);
  EXPECT_EQ(merged.batched, 2u);
  EXPECT_EQ(merged.max_flush_queries, 9u);
  EXPECT_EQ(merged.delta_peak, 12u);
  EXPECT_EQ(merged.cur_max_batch, 64u);
  EXPECT_EQ(merged.queue_wait.count(), 3u);
  EXPECT_EQ(merged.queue_wait.sum(), 5000u);
}

}  // namespace
