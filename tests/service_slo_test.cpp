// Latency-SLO routing suite: the punt estimator's remaining-wait fix,
// negative-budget rejection, the idle fast-lane's byte-identical
// answers (delta tier included), admission-control shedding under
// concurrency, and the adaptive batching controller's bounds. Routing
// may only change latency and acceptance — never the bytes of an
// accepted answer, and never the stats reconciliation invariants
// documented in service_stats.hpp.
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using std::chrono::microseconds;
using std::chrono::milliseconds;

std::vector<Pt> make_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return workload::generate<2>(workload::Kind::UniformCube, n, rng);
}

// ------------------------------------------------- punt estimator fix

// Headline bugfix regression: a queue that has already aged most of its
// flush interval only makes a new arrival wait out the *remainder*. A
// budget below the full interval but above the remaining wait must be
// batched — the old estimator charged every submission the full
// cfg_.flush_interval and punted exactly this query.
TEST(ServiceSlo, PreAgedQueueBatchesWithinRemainingWait) {
  auto points = make_points(300, 42);
  BrokerConfig cfg;
  cfg.max_batch = 1 << 20;              // never flush by size
  cfg.flush_interval = microseconds(800'000);
  cfg.index.seed = 7;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  std::thread aging([&] {
    broker.knn(points[0], 3);  // no deadline: waits out the whole flush
  });
  while (broker.stats().submitted == 0)
    std::this_thread::sleep_for(milliseconds(1));
  // Age the queue to ~400 ms of its 800 ms interval: the remaining wait
  // (~400 ms) fits the 600 ms budget; the full interval does not.
  std::this_thread::sleep_for(milliseconds(400));
  auto row = broker.knn(points[1], 3, microseconds(600'000));
  aging.join();
  EXPECT_EQ(row.size(), 3u);

  auto s = broker.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.punted, 0u);  // full-interval charging would punt here
  EXPECT_EQ(s.batched, 2u);
  EXPECT_EQ(s.queue_wait.count(), s.batched);
}

// ------------------------------------------------- budget validation

TEST(ServiceSlo, NegativeBudgetRejectedBeforeAccounting) {
  auto points = make_points(64, 43);
  BrokerConfig cfg;
  cfg.max_batch = 1;
  cfg.index.seed = 3;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  auto expect_budget_error = [](auto&& call) {
    try {
      call();
      FAIL() << "negative budget must throw QueryError";
    } catch (const QueryError& e) {
      EXPECT_EQ(e.field(), "budget");
    }
  };
  expect_budget_error(
      [&] { broker.knn(points[0], 3, microseconds(-5)); });
  expect_budget_error(
      [&] { broker.radius(points[0], 0.1, microseconds(-1)); });
  expect_budget_error([&] {
    broker.bulk_knn(std::span<const Pt>(points).subspan(0, 4), 3,
                    microseconds(-100));
  });
  expect_budget_error([&] {
    broker.bulk_radius(std::span<const Pt>(points).subspan(0, 4), 0.1,
                       microseconds(-7));
  });

  // Rejected at the door: no counter moved, nothing was enqueued.
  auto s = broker.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.knn_submitted, 0u);
  EXPECT_EQ(s.radius_submitted, 0u);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.punted, 0u);
  EXPECT_EQ(s.fast_lane, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.class_interactive, 0u);
  EXPECT_EQ(s.class_bulk, 0u);

  // Only kNoDeadline exactly means "no deadline": a zero budget is
  // accepted and never punts.
  auto row = broker.knn(points[0], 3, QueryBroker<2>::kNoDeadline);
  EXPECT_EQ(row.size(), 3u);
  s = broker.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.punted, 0u);
}

// ----------------------------------------------------- class defaults

TEST(ServiceSlo, ClassDefaultBudgetApplies) {
  auto points = make_points(200, 44);
  BrokerConfig cfg;
  cfg.max_batch = 1 << 20;
  cfg.flush_interval = microseconds(10'000);
  cfg.index.seed = 5;
  cfg.slo.interactive_budget = microseconds(1);
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  // Default-budget routing: an interactive query with no explicit
  // budget inherits the 1 us class default, which cannot survive a
  // 10 ms flush wait — it punts.
  auto row = broker.knn(points[0], 3);
  EXPECT_EQ(row.size(), 3u);
  auto s = broker.stats();
  EXPECT_EQ(s.punted, 1u);
  EXPECT_EQ(s.class_interactive, 1u);

  // Bulk has no class default here, so kNoDeadline stays "no deadline":
  // batched after the flush interval, never punted.
  auto rows = broker.bulk_knn(std::span<const Pt>(points).subspan(0, 4), 3);
  EXPECT_EQ(rows.size(), 4u);
  s = broker.stats();
  EXPECT_EQ(s.punted, 1u);
  EXPECT_EQ(s.batched, 4u);
  EXPECT_EQ(s.class_bulk, 4u);
  EXPECT_EQ(s.batched + s.punted + s.fast_lane, s.submitted);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});
}

// --------------------------------------------------------- fast lane

// Differential: with the fast lane on, an idle broker answers
// interactive queries inline — and the rows must be byte-identical to
// the batched broker's, including the (dist2, id) tie order and the
// delta tier (inserts visible, removed ids masked).
TEST(ServiceSlo, FastLaneMatchesBatchedAnswersWithLiveUpdates) {
  const std::size_t n = 400, k = 4;
  auto points = make_points(n, 45);
  std::span<const Pt> span(points);

  BrokerConfig base_cfg;
  base_cfg.max_batch = 16;
  base_cfg.flush_interval = microseconds(200);
  base_cfg.index.seed = 11;
  BrokerConfig fast_cfg = base_cfg;
  fast_cfg.slo.fast_lane = true;

  auto& pool = par::ThreadPool::global();
  QueryBroker<2> batched(span, base_cfg, pool);
  QueryBroker<2> fast(span, fast_cfg, pool);

  // Identical live mutations on both sides: tombstone some base ids,
  // insert fresh ones — fast-lane answers must see the same live set.
  Rng urng(450);
  std::vector<Pt> extra;
  for (std::uint32_t i = 0; i < 30; ++i)
    extra.push_back({{urng.uniform(0.0, 1.0), urng.uniform(0.0, 1.0)}});
  for (auto* b : {&batched, &fast}) {
    for (std::uint32_t id = 0; id < 20; ++id) b->remove(id);
    for (std::uint32_t i = 0; i < extra.size(); ++i)
      b->insert(1000 + i, extra[i]);
  }

  const std::size_t nq = 150;
  for (std::size_t i = 0; i < nq; ++i) {
    auto a = batched.knn(points[i], k, QueryBroker<2>::kNoDeadline,
                         static_cast<std::uint32_t>(i));
    auto b = fast.knn(points[i], k, QueryBroker<2>::kNoDeadline,
                      static_cast<std::uint32_t>(i));
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a[s].index, b[s].index) << "row " << i << " slot " << s;
      EXPECT_DOUBLE_EQ(a[s].dist2, b[s].dist2)
          << "row " << i << " slot " << s;
    }
    auto ra = batched.radius(points[i], 0.05);
    auto rb = fast.radius(points[i], 0.05);
    ASSERT_EQ(ra.size(), rb.size()) << "radius row " << i;
    for (std::size_t s = 0; s < ra.size(); ++s) {
      EXPECT_EQ(ra[s].first, rb[s].first) << "radius " << i << "/" << s;
      EXPECT_DOUBLE_EQ(ra[s].second, rb[s].second)
          << "radius " << i << "/" << s;
    }
  }

  // A single-threaded client never finds the fast broker busy: every
  // interactive query took the lane, none were queued or punted.
  auto sf = fast.stats();
  EXPECT_EQ(sf.fast_lane, 2 * nq);
  EXPECT_EQ(sf.batched, 0u);
  EXPECT_EQ(sf.punted, 0u);
  EXPECT_EQ(sf.batched + sf.punted + sf.fast_lane, sf.submitted);
  EXPECT_EQ(sf.fast_lane_latency.count(), sf.fast_lane);
  EXPECT_EQ(sf.violations(), std::vector<std::string>{});

  auto sb = batched.stats();
  EXPECT_EQ(sb.fast_lane, 0u);
  EXPECT_EQ(sb.batched, 2 * nq);
  EXPECT_EQ(sb.violations(), std::vector<std::string>{});

  // Bulk-class traffic never takes the lane, even on an idle broker.
  auto rows = fast.bulk_knn(span.subspan(0, 8), k);
  EXPECT_EQ(rows.size(), 8u);
  sf = fast.stats();
  EXPECT_EQ(sf.fast_lane, 2 * nq);
  EXPECT_EQ(sf.batched, 8u);
  EXPECT_EQ(sf.class_bulk, 8u);
}

// ----------------------------------------------------------- shedding

// Concurrency: bulk-class requests shed by admission control increment
// only `shed` and surface as QueryError("overload"); interactive
// traffic keeps flowing. At quiescence the books balance exactly:
// attempts == submitted + shed, batched + punted + fast_lane ==
// submitted — shedding can never corrupt the reconciliation.
TEST(ServiceSlo, ShedRequestsReconcileUnderConcurrency) {
  const std::size_t n = 300, k = 3;
  auto points = make_points(n, 46);
  std::span<const Pt> span(points);
  BrokerConfig cfg;
  cfg.max_batch = 32;
  cfg.flush_interval = microseconds(100);
  cfg.index.seed = 13;
  // Microscopic budget multiple: once the EWMA cost estimate is warm,
  // every bulk request with a budget sheds deterministically.
  cfg.slo.shed_factor = 1e-6;
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());

  // Warm the estimator through interactive (never-shed) traffic.
  for (std::size_t i = 0; i < 48; ++i) broker.knn(points[i], k);
  const std::size_t warm = 48;
  ASSERT_GT(broker.stats().est_batch_us_per_query, 0.0);

  constexpr int kBulkThreads = 3;
  constexpr int kInteractiveThreads = 3;
  constexpr int kPerThread = 20;
  constexpr std::size_t kChunk = 8;
  std::atomic<std::size_t> shed_queries{0};
  std::atomic<std::size_t> answered_queries{0};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kBulkThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto chunk = span.subspan(((t * kPerThread + i) * kChunk) %
                                      (n - kChunk),
                                  kChunk);
        try {
          auto rows = broker.bulk_knn(chunk, k, microseconds(5'000));
          for (const auto& row : rows)
            if (row.size() != k) wrong.fetch_add(1);
          answered_queries.fetch_add(kChunk);
        } catch (const QueryError& e) {
          if (e.field() != "overload") wrong.fetch_add(1);
          shed_queries.fetch_add(kChunk);
        }
      }
    });
  }
  for (int t = 0; t < kInteractiveThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto row = broker.knn(points[(t * kPerThread + i) % n], k);
        if (row.size() != k) wrong.fetch_add(1);
        answered_queries.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(shed_queries.load(), 0u);
  auto s = broker.stats();
  EXPECT_EQ(s.shed, shed_queries.load());
  // Only the bulk class shed here, and the class split partitions shed.
  EXPECT_EQ(s.shed_bulk, s.shed);
  EXPECT_EQ(s.shed_interactive, 0u);
  EXPECT_EQ(s.shed, s.shed_interactive + s.shed_bulk);
  EXPECT_EQ(s.submitted, warm + answered_queries.load());
  EXPECT_EQ(s.submitted + s.shed,
            warm + answered_queries.load() + shed_queries.load());
  EXPECT_EQ(s.batched + s.punted + s.fast_lane, s.submitted);
  EXPECT_EQ(s.knn_answered, s.knn_submitted);
  EXPECT_EQ(s.queue_wait.count(), s.batched);
  EXPECT_EQ(s.punt_latency.count(), s.punted);
  EXPECT_EQ(s.fast_lane_latency.count(), s.fast_lane);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});
}

// --------------------------------------------------------- controller

// With the target far below any achievable queue wait, every control
// window overshoots: the controller must walk both knobs down and stop
// exactly at the configured floor — never below.
TEST(ServiceSlo, AdaptiveControllerTightensToFloor) {
  auto points = make_points(200, 47);
  BrokerConfig cfg;
  cfg.max_batch = 64;
  cfg.flush_interval = microseconds(200);
  cfg.index.seed = 17;
  cfg.slo.adaptive = true;
  cfg.slo.min_flush_interval = microseconds(25);
  cfg.slo.max_flush_interval = microseconds(400);
  cfg.slo.min_batch = 2;
  cfg.slo.max_batch = 64;
  cfg.slo.target_queue_wait = microseconds(1);  // unreachable: overshoot
  cfg.slo.control_period = 2;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  EXPECT_EQ(broker.current_flush_interval(), microseconds(200));
  EXPECT_EQ(broker.current_max_batch(), 64u);
  for (std::size_t i = 0; i < 60; ++i) broker.knn(points[i % 200], 3);

  auto s = broker.stats();
  EXPECT_GT(s.controller_updates, 0u);
  EXPECT_GT(s.controller_tighten, 0u);
  EXPECT_EQ(broker.current_flush_interval(), microseconds(25));
  EXPECT_EQ(broker.current_max_batch(), 2u);
  EXPECT_EQ(s.cur_flush_interval_us, 25u);
  EXPECT_EQ(s.cur_max_batch, 2u);
  // The configured values are immutable; only the operating point moved.
  EXPECT_EQ(broker.config().flush_interval, microseconds(200));
  EXPECT_EQ(broker.config().max_batch, 64u);
}

// ------------------------------------------- budget-less bulk backstop

// Regression: budget-less bulk traffic used to bypass admission control
// entirely — shed pricing only looked at requests that carry a budget,
// so a misbehaving bulk client with no deadline could grow the pending
// queue without bound: no counter moved, no error surfaced, and
// interactive traffic starved behind the backlog. The queue-depth
// backstop sheds budget-less bulk with QueryError("overload") before
// any counter moves once the pending queue would exceed
// bulk_queue_backstop.
TEST(ServiceSlo, BudgetlessBulkBackstopSheds) {
  const std::size_t n = 200, k = 3;
  auto points = make_points(n, 49);
  std::span<const Pt> span(points);
  BrokerConfig cfg;
  cfg.max_batch = 1024;  // the size trigger never fires
  cfg.flush_interval = microseconds(10'000'000);  // flusher stalled
  cfg.index.seed = 23;
  cfg.slo.bulk_queue_backstop = 20;
  std::vector<std::thread> helpers;
  std::atomic<std::size_t> answered{0};
  {
    QueryBroker<2> broker(span, cfg, par::ThreadPool::global());
    // Two budget-less bulk submissions of 8 park in the stalled queue
    // (8 and 16 pending both fit under the backstop of 20); they block
    // until the shutdown drain answers them.
    for (int t = 0; t < 2; ++t) {
      helpers.emplace_back([&, t] {
        auto rows =
            broker.bulk_knn(span.subspan(8 * t, 8), k);
        for (const auto& row : rows)
          if (row.size() == k) answered.fetch_add(1);
      });
    }
    while (broker.stats().submitted < 16) std::this_thread::yield();

    // 16 pending + 8 more crosses the backstop: shed at the door.
    try {
      broker.bulk_knn(span.subspan(16, 8), k);
      FAIL() << "budget-less bulk over the backstop did not shed";
    } catch (const QueryError& e) {
      EXPECT_EQ(e.field(), "overload");
    }
    auto s = broker.stats();
    EXPECT_EQ(s.submitted, 16u) << "shed request moved submitted";
    EXPECT_EQ(s.shed, 8u);
    EXPECT_EQ(s.shed_bulk, 8u);
    EXPECT_EQ(s.shed_interactive, 0u);
    EXPECT_EQ(s.shed, s.shed_interactive + s.shed_bulk);
    // Destruction drains the queue: the parked requests are answered,
    // not lost (flush_by_stop), so the books balance at quiescence.
  }
  for (auto& t : helpers) t.join();
  EXPECT_EQ(answered.load(), 16u);
}

// ------------------------------------------- interactive cost shedding

// Regression: interactive traffic could never shed — admission pricing
// only applied to the bulk class, so a hopeless interactive request
// (estimated cost far beyond its budget) waited out the queue anyway,
// missed its deadline, and wasted a batch slot doing it. With
// interactive_shed_factor set, admission prices the request against the
// EWMA batch-cost estimate and fails fast instead.
TEST(ServiceSlo, InteractiveRequestsShedByCost) {
  const std::size_t n = 300, k = 3;
  auto points = make_points(n, 50);
  BrokerConfig cfg;
  cfg.max_batch = 32;
  cfg.flush_interval = microseconds(100);
  cfg.index.seed = 29;
  cfg.slo.interactive_shed_factor = 1e-6;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  // Warm the estimator budget-less: without a budget there is nothing
  // to price against, so these can never shed.
  for (std::size_t i = 0; i < 48; ++i) broker.knn(points[i], k);
  ASSERT_GT(broker.stats().est_batch_us_per_query, 0.0);
  const auto before = broker.stats();

  // A 1 us budget against a warm (microseconds-per-query) estimate and
  // a microscopic factor: deterministically hopeless.
  try {
    broker.knn(points[0], k, microseconds(1));
    FAIL() << "hopeless interactive request did not shed";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "overload");
  }
  auto s = broker.stats();
  EXPECT_EQ(s.shed, before.shed + 1);
  EXPECT_EQ(s.shed_interactive, 1u);
  EXPECT_EQ(s.shed_bulk, 0u);
  EXPECT_EQ(s.shed, s.shed_interactive + s.shed_bulk);
  EXPECT_EQ(s.submitted, before.submitted) << "shed moved submitted";
  EXPECT_EQ(s.batched + s.punted + s.fast_lane, s.submitted);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});

  // Budget-less interactive traffic keeps flowing.
  EXPECT_EQ(broker.knn(points[1], k).size(), k);
}

// ----------------------------------------- controller under compaction

// Regression: the AIMD controller was blind to rebuild/compaction
// pressure — while a compaction monopolized the pool, the only signal
// was the queue-wait histogram, which lags a full control window, so
// the controller held relaxed knobs through the thing it most needed to
// tighten for. Now any in-flight rebuild or compaction tightens
// pre-emptively (counted as controller_pressure_tighten), and the knobs
// regrow once the pressure clears.
TEST(ServiceSlo, ControllerTightensUnderCompactionPressure) {
  auto points = make_points(200, 51);
  BrokerConfig cfg;
  cfg.max_batch = 64;
  cfg.flush_interval = microseconds(200);
  cfg.index.seed = 31;
  cfg.delta_compaction_threshold = 4;
  cfg.slo.adaptive = true;
  cfg.slo.min_flush_interval = microseconds(25);
  cfg.slo.max_flush_interval = microseconds(400);
  cfg.slo.min_batch = 2;
  cfg.slo.max_batch = 64;
  // A target no workload here can overshoot: absent pressure the
  // controller could only ever relax, so any tightening below is
  // attributable to the pressure signal alone.
  cfg.slo.target_queue_wait = microseconds(1'000'000);
  cfg.slo.control_period = 1;
  // Zero-worker pool: a submitted compaction parks in the queue until
  // someone helping-waits on it, holding compactions_in_flight high for
  // exactly as long as the test wants. Queries still flow — batch
  // kernels caller-help.
  par::ThreadPool pool(1);
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  // Arm the pressure: the 4th pending update seals a compaction job
  // onto the parked pool.
  for (std::uint32_t i = 0; i < 6; ++i)
    broker.insert(10000 + i, points[i]);

  // Every flush retunes (control_period 1); the pressure branch halves
  // both knobs down to the configured floor — never below.
  for (std::size_t i = 0; i < 40; ++i) broker.knn(points[i % 200], 3);
  auto s = broker.stats();
  EXPECT_GT(s.controller_pressure_tighten, 0u);
  EXPECT_GT(s.controller_tighten, 0u);
  EXPECT_EQ(broker.current_flush_interval(), microseconds(25));
  EXPECT_EQ(broker.current_max_batch(), 2u);
  EXPECT_EQ(broker.config().flush_interval, microseconds(200));

  // Drain runs the parked compaction on this thread (helping wait);
  // pressure clears and the far-away target lets the knobs regrow.
  broker.drain_rebuilds();
  EXPECT_EQ(broker.stats().compactions, 1u);
  for (std::size_t i = 0; i < 40; ++i) broker.knn(points[i % 200], 3);
  s = broker.stats();
  EXPECT_GT(s.controller_relax, 0u);
  EXPECT_GT(broker.current_flush_interval(), microseconds(25));
  EXPECT_GT(broker.current_max_batch(), 2u);
}

// Mirror image: with the target far above every observed wait, the
// controller regrows both knobs and stops exactly at the ceiling.
TEST(ServiceSlo, AdaptiveControllerRelaxesToCeiling) {
  auto points = make_points(200, 48);
  BrokerConfig cfg;
  cfg.max_batch = 16;
  cfg.flush_interval = microseconds(50);
  cfg.index.seed = 19;
  cfg.slo.adaptive = true;
  cfg.slo.min_flush_interval = microseconds(25);
  cfg.slo.max_flush_interval = microseconds(200);
  cfg.slo.min_batch = 2;
  cfg.slo.max_batch = 128;
  cfg.slo.target_queue_wait = microseconds(1'000'000);  // undershoot
  cfg.slo.control_period = 2;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  for (std::size_t i = 0; i < 60; ++i) broker.knn(points[i % 200], 3);

  auto s = broker.stats();
  EXPECT_GT(s.controller_relax, 0u);
  EXPECT_EQ(broker.current_flush_interval(), microseconds(200));
  EXPECT_EQ(broker.current_max_batch(), 128u);
  EXPECT_EQ(s.cur_flush_interval_us, 200u);
  EXPECT_EQ(s.cur_max_batch, 128u);
}

}  // namespace
}  // namespace sepdc::service
