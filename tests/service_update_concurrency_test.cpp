// Live-update concurrency stress: writer threads insert and remove
// points while reader threads query through the broker, with the
// compaction threshold set low enough that background compactions churn
// throughout the run. Pinned invariants:
//
//   no lost updates        — an insert is visible to every query the
//                            inserting thread submits after it returns
//                            (radius-zero probe at the inserted point),
//   no resurrected removes — a removed id never reappears in any later
//                            answer from the removing thread, across
//                            however many compactions install meanwhile,
//   stable-region oracle   — readers query a region no writer touches;
//                            those answers must stay exactly the fixed
//                            brute-force rows no matter what the delta
//                            tier and compactions are doing,
//   monotone generations   — live_seq() and version() never go
//                            backwards from any single thread's view.
//
// Runs under TSan and ASan in CI (stress label); any torn LiveView
// publication, use-after-free of a swapped base, or double-counted
// update also surfaces there.
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using std::chrono::microseconds;

// Stable cluster far from the mutable region: any query near it has all
// its k nearest (and its whole radius ball) inside the cluster, so the
// expected rows are independent of every mutation in [0,1]^2.
constexpr double kStableOffset = 10.0;

struct StableOracle {
  std::vector<Pt> queries;
  std::vector<std::vector<knn::TopK::Entry>> knn_rows;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> radius_rows;
  std::size_t k;
  double radius;

  StableOracle(std::span<const Pt> stable, std::size_t nq, std::size_t k_in,
               double r, Rng& rng)
      : k(k_in), radius(r) {
    for (std::size_t q = 0; q < nq; ++q)
      queries.push_back({{kStableOffset + rng.uniform(0.0, 1.0),
                          kStableOffset + rng.uniform(0.0, 1.0)}});
    knn_rows.resize(nq);
    radius_rows.resize(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      std::vector<knn::TopK::Entry> all;
      for (std::size_t j = 0; j < stable.size(); ++j)
        all.push_back({geo::distance2(stable[j], queries[q]),
                       static_cast<std::uint32_t>(j)});
      std::sort(all.begin(), all.end());
      all.resize(std::min(all.size(), k));
      knn_rows[q] = std::move(all);
      for (std::size_t j = 0; j < stable.size(); ++j) {
        const double d2 = geo::distance2(stable[j], queries[q]);
        if (d2 <= r * r)
          radius_rows[q].emplace_back(static_cast<std::uint32_t>(j), d2);
      }
      std::sort(radius_rows[q].begin(), radius_rows[q].end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
    }
  }
};

TEST(ServiceUpdateConcurrency, WritersMutateWhileReadersQueryUnderChurn) {
  Rng rng(6100);
  // Base: a stable cluster (ids 0..299, never touched) plus a mutable
  // slab (ids 300..599, removed by writers).
  constexpr std::size_t kStable = 300;
  constexpr std::size_t kMutable = 300;
  std::vector<Pt> base;
  for (std::size_t i = 0; i < kStable; ++i)
    base.push_back({{kStableOffset + rng.uniform(0.0, 1.0),
                     kStableOffset + rng.uniform(0.0, 1.0)}});
  for (std::size_t i = 0; i < kMutable; ++i)
    base.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  std::span<const Pt> stable(base.data(), kStable);
  StableOracle oracle(stable, 64, 3, 0.12, rng);

  BrokerConfig cfg;
  cfg.max_batch = 8;
  cfg.flush_interval = microseconds(50);
  cfg.delta_compaction_threshold = 48;  // churn: compact early and often
  cfg.index.seed = rng.next();
  auto& pool = par::ThreadPool::global();
  QueryBroker<2> broker(std::span<const Pt>(base), cfg, pool);

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 160;
  constexpr int kItersPerReader = 100;

  std::atomic<int> failures{0};
  // Each writer's final contribution, for the post-join differential.
  std::vector<std::map<std::uint32_t, Pt>> final_inserted(kWriters);
  std::vector<std::vector<std::uint32_t>> final_removed_base(kWriters);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng wrng(7000 + static_cast<std::uint64_t>(w));
      // Disjoint id spaces: fresh inserts at 100000 + w * 10000, base
      // removals from this writer's own slice of the mutable slab.
      std::uint32_t next_id = 100000 + static_cast<std::uint32_t>(w) * 10000;
      std::uint32_t base_lo = static_cast<std::uint32_t>(
          kStable + static_cast<std::size_t>(w) * (kMutable / kWriters));
      std::uint32_t base_cursor = base_lo;
      std::vector<std::uint32_t> own_live;
      std::uint64_t last_seq = 0;
      for (int it = 0; it < kOpsPerWriter; ++it) {
        switch (it % 4) {
          case 0:
          case 1: {  // insert, then probe: the write must be visible
            const Pt p{{wrng.uniform(0.0, 1.0), wrng.uniform(0.0, 1.0)}};
            const std::uint32_t id = next_id++;
            broker.insert(id, p);
            own_live.push_back(id);
            auto hits = broker.radius(p, 0.0);
            bool seen = false;
            for (const auto& [hid, d2] : hits) seen |= hid == id;
            if (!seen) failures.fetch_add(1);  // lost update
            break;
          }
          case 2: {  // remove an own insert, then probe for resurrection
            if (own_live.empty()) break;
            const std::uint32_t id = own_live.back();
            own_live.pop_back();
            const Pt* p = nullptr;
            auto view = broker.live_view();
            p = view->find(id);
            if (p == nullptr) {
              failures.fetch_add(100);  // our insert vanished
              break;
            }
            const Pt probe = *p;
            broker.remove(id);
            for (const auto& [hid, d2] : broker.radius(probe, 0.0))
              if (hid == id) failures.fetch_add(10);  // resurrected
            if (broker.contains(id)) failures.fetch_add(10);
            break;
          }
          case 3: {  // retire a base id from this writer's slice
            if (base_cursor >=
                base_lo + static_cast<std::uint32_t>(kMutable / kWriters))
              break;
            const std::uint32_t id = base_cursor++;
            const Pt probe = base[id];
            broker.remove(id);
            for (const auto& [hid, d2] : broker.radius(probe, 0.0))
              if (hid == id) failures.fetch_add(10);  // resurrected
            break;
          }
        }
        // Monotone publication counter from this thread's view.
        const std::uint64_t seq = broker.live_seq();
        if (seq < last_seq) failures.fetch_add(1000);
        last_seq = seq;
      }
      std::map<std::uint32_t, Pt> mine;
      for (std::uint32_t id : own_live) {
        auto view = broker.live_view();
        const Pt* p = view->find(id);
        if (p == nullptr) {
          failures.fetch_add(100);
        } else {
          mine.emplace(id, *p);
        }
      }
      final_inserted[w] = std::move(mine);
      for (std::uint32_t id = base_lo; id < base_cursor; ++id)
        final_removed_base[w].push_back(id);
    });
  }

  std::vector<std::thread> readers;
  for (int m = 0; m < kReaders; ++m) {
    readers.emplace_back([&, m] {
      Rng lrng(8000 + static_cast<std::uint64_t>(m));
      std::uint64_t last_version = 0;
      std::uint64_t last_seq = 0;
      for (int it = 0; it < kItersPerReader; ++it) {
        const std::size_t q = lrng.below(oracle.queries.size());
        if (it % 2 == 0) {
          auto row = broker.knn(oracle.queries[q], oracle.k,
                                it % 4 == 0 ? microseconds(1)
                                            : QueryBroker<2>::kNoDeadline);
          if (row != oracle.knn_rows[q]) failures.fetch_add(1);
        } else {
          auto row = broker.radius(oracle.queries[q], oracle.radius);
          if (row != oracle.radius_rows[q]) failures.fetch_add(1);
        }
        const std::uint64_t v = broker.version();
        const std::uint64_t seq = broker.live_seq();
        if (v < last_version || seq < last_seq) failures.fetch_add(1000);
        last_version = v;
        last_seq = seq;
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  broker.drain_rebuilds();  // joins in-flight background compactions

  EXPECT_EQ(failures.load(), 0);

  // Post-join differential: the settled live set is exactly base, minus
  // every writer's removals, plus every writer's surviving inserts —
  // writers used disjoint id spaces, so the union is deterministic.
  std::map<std::uint32_t, Pt> expected;
  for (std::size_t i = 0; i < base.size(); ++i)
    expected.emplace(static_cast<std::uint32_t>(i), base[i]);
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint32_t id : final_removed_base[w]) expected.erase(id);
    for (const auto& [id, p] : final_inserted[w]) expected.emplace(id, p);
  }
  EXPECT_EQ(broker.live_count(), expected.size());
  Rng qrng(6200);
  for (int i = 0; i < 24; ++i) {
    const Pt q{{qrng.uniform(0.0, 1.0), qrng.uniform(0.0, 1.0)}};
    std::vector<knn::TopK::Entry> want;
    for (const auto& [id, p] : expected)
      want.push_back({geo::distance2(p, q), id});
    std::sort(want.begin(), want.end());
    want.resize(std::min<std::size_t>(want.size(), 4));
    auto got = broker.knn(q, 4);
    ASSERT_EQ(got.size(), want.size()) << "final sweep " << i;
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].index, want[s].index)
          << "final sweep " << i << " slot " << s;
      EXPECT_DOUBLE_EQ(got[s].dist2, want[s].dist2)
          << "final sweep " << i << " slot " << s;
    }
  }

  // Accounting at quiescence: exact per-op reconciliation under full
  // contention, and at least one compaction resolved (the threshold is
  // far below the update volume).
  auto s = broker.stats();
  const std::size_t total_updates = s.inserts + s.removes;
  EXPECT_EQ(s.updates_submitted, total_updates);
  EXPECT_EQ(s.update_apply.count(), s.updates_submitted);
  EXPECT_EQ(s.compaction_build.count(), s.compactions);
  EXPECT_GE(s.compactions + s.compactions_abandoned, 1u);
  EXPECT_EQ(s.knn_submitted + s.radius_submitted, s.submitted);
  EXPECT_EQ(s.knn_answered, s.knn_submitted);
  EXPECT_EQ(s.radius_answered, s.radius_submitted);
  EXPECT_EQ(s.batched + s.punted, s.submitted);
  EXPECT_EQ(s.queue_wait.count(), s.batched);
  EXPECT_EQ(s.punt_latency.count(), s.punted);
  EXPECT_GE(s.delta_peak, cfg.delta_compaction_threshold);
}

// Rebuilds racing updates racing compactions: a rebuild must atomically
// reset the live set (dropping pending updates and orphaning in-flight
// compactions) without ever presenting a torn view. Readers check a
// weaker but race-sensitive invariant: every view is internally
// consistent (live_count() telescopes, seq is monotone) and every
// stable-region answer still comes out exact, because every generation
// the rebuilds install contains the same stable cluster.
TEST(ServiceUpdateConcurrency, RebuildsOrphanCompactionsCoherently) {
  Rng rng(6300);
  constexpr std::size_t kStable = 250;
  std::vector<Pt> base;
  for (std::size_t i = 0; i < kStable; ++i)
    base.push_back({{kStableOffset + rng.uniform(0.0, 1.0),
                     kStableOffset + rng.uniform(0.0, 1.0)}});
  for (std::size_t i = 0; i < 250; ++i)
    base.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  std::span<const Pt> stable(base.data(), kStable);
  StableOracle oracle(stable, 32, 3, 0.1, rng);

  BrokerConfig cfg;
  cfg.max_batch = 8;
  cfg.flush_interval = microseconds(50);
  cfg.delta_compaction_threshold = 24;
  cfg.index.seed = rng.next();
  auto& pool = par::ThreadPool::global();
  QueryBroker<2> broker(std::span<const Pt>(base), cfg, pool);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  // Updater: mutate fresh ids only (the rebuild thread may reset the
  // world at any time, making an id vanish — inserts must tolerate an
  // id resurrected as dead by a reset, so catch and re-check).
  std::thread updater([&] {
    Rng urng(7100);
    std::uint32_t next_id = 200000;
    int applied = 0;
    while (!stop.load(std::memory_order_acquire) && applied < 4000) {
      const std::uint32_t id = next_id++;
      try {
        broker.insert(id, Pt{{urng.uniform(0.0, 1.0),
                              urng.uniform(0.0, 1.0)}});
        ++applied;
        if (urng.below(2) == 0) {
          broker.remove(id);
          ++applied;
        }
      } catch (const QueryError&) {
        // A rebuild reset the world between our insert and remove —
        // the remove's target is legitimately gone. Nothing else in
        // this loop may throw.
        continue;
      }
    }
  });

  std::thread rebuilder([&] {
    for (int r = 0; r < 6; ++r) broker.rebuild(std::span<const Pt>(base));
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int m = 0; m < 2; ++m) {
    readers.emplace_back([&, m] {
      Rng lrng(8200 + static_cast<std::uint64_t>(m));
      std::uint64_t last_seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t q = lrng.below(oracle.queries.size());
        auto row = broker.knn(oracle.queries[q], oracle.k);
        if (row != oracle.knn_rows[q]) failures.fetch_add(1);
        auto view = broker.live_view();
        if (view == nullptr) {
          failures.fetch_add(1000);
          break;
        }
        // Internal consistency of one atomically-loaded view.
        if (view->active == nullptr || view->base == nullptr)
          failures.fetch_add(1000);
        if (view->seq < last_seq) failures.fetch_add(1000);
        last_seq = view->seq;
      }
    });
  }

  updater.join();
  rebuilder.join();
  for (auto& t : readers) t.join();
  broker.drain_rebuilds();

  EXPECT_EQ(failures.load(), 0);
  // The stable cluster must have survived every reset and compaction.
  for (std::size_t q = 0; q < oracle.queries.size(); ++q)
    EXPECT_EQ(broker.knn(oracle.queries[q], oracle.k),
              oracle.knn_rows[q])
        << "stable query " << q;
  auto s = broker.stats();
  EXPECT_EQ(s.update_apply.count(), s.updates_submitted);
  EXPECT_EQ(s.updates_submitted, s.inserts + s.removes);
  EXPECT_EQ(s.compaction_build.count(), s.compactions);
  EXPECT_EQ(s.batched + s.punted, s.submitted);
}

// A compaction does not change the live set, so it keeps its base's
// version and can never outrank a rebuild: a compaction that seals and
// installs while a slow rebuild is still building must not make that
// rebuild look stale. The rebuild must win, leaving exactly its points.
TEST(ServiceUpdateConcurrency, CompactionNeverOutranksARebuild) {
  Rng rng(6400);
  const std::vector<Pt> small = workload::uniform_cube<2>(200, rng);
  const std::vector<Pt> large = workload::uniform_cube<2>(400000, rng);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;  // compact() only
  auto& pool = par::ThreadPool::global();
  QueryBroker<2> broker(std::span<const Pt>(small), cfg, pool);

  std::thread rebuilder([&] { broker.rebuild(std::span<const Pt>(large)); });
  // The rebuild counts itself and claims its version right away; its
  // build then runs far longer than the 201-point compaction below.
  while (broker.stats().rebuilds < 2) std::this_thread::yield();
  constexpr std::uint32_t kFresh = 1000000;  // outside both id ranges
  broker.insert(kFresh, Pt{{0.5, 0.5}});
  const bool compacted = broker.compact();
  const bool raced = compacted && broker.live_count() == small.size() + 1;
  rebuilder.join();
  if (!raced) GTEST_SKIP() << "the rebuild finished before the compaction";

  EXPECT_EQ(broker.live_count(), large.size());
  EXPECT_FALSE(broker.contains(kFresh));
  EXPECT_EQ(broker.version(), 2u);
  auto s = broker.stats();
  EXPECT_EQ(s.compactions, 1u);
  EXPECT_EQ(s.snapshots_discarded, 0u);
  EXPECT_EQ(s.violations(), std::vector<std::string>{});
}

}  // namespace
}  // namespace sepdc::service
