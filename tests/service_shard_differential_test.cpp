// Shard differential suite: a ShardRouter over S separator-cut shards
// must be indistinguishable from one broker over the whole point set —
// same ids, same distances, same (dist2, id) tie order — for every
// interleaving of k-NN, radius, insert, remove, and bulk updates,
// across S ∈ {1, 2, 4, 7}. The shard function, the home-first fan-out,
// and the k-way merge may only change latency, never answers. Also
// pins the paper's scaling story (the boundary fan-out fraction decays
// as n grows at fixed S and k — queries whose ball crosses a separator
// are a vanishing minority) and the sharded save/bootstrap protocol,
// including torn-save rejection.
#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using KnnRow = std::vector<knn::TopK::Entry>;
using RadiusRow = std::vector<std::pair<std::uint32_t, double>>;
using std::chrono::microseconds;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Brute force over the current live set — the oracle every router
// answer is checked against, including tie order.
struct LiveOracle {
  std::map<std::uint32_t, Pt> live;

  KnnRow knn(const Pt& q, std::size_t k,
             std::uint32_t exclude = 0xffffffffu) const {
    KnnRow all;
    all.reserve(live.size());
    for (const auto& [id, p] : live) {
      if (id == exclude) continue;
      all.push_back({geo::distance2(p, q), id});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

  RadiusRow radius(const Pt& q, double r) const {
    RadiusRow out;
    const double r2 = r * r;
    for (const auto& [id, p] : live) {
      const double d2 = geo::distance2(p, q);
      if (d2 <= r2) out.emplace_back(id, d2);  // closed ball
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    return out;
  }

  std::uint32_t any_id(Rng& rng) const {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.below(live.size())));
    return it->first;
  }
};

void expect_knn_equal(const KnnRow& got, const KnnRow& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].index, want[s].index) << what << " slot " << s;
    EXPECT_DOUBLE_EQ(got[s].dist2, want[s].dist2) << what << " slot " << s;
  }
}

void expect_radius_equal(const RadiusRow& got, const RadiusRow& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].first, want[s].first) << what << " slot " << s;
    EXPECT_DOUBLE_EQ(got[s].second, want[s].second)
        << what << " slot " << s;
  }
}

ShardRouterConfig router_config(std::uint32_t shards, std::uint64_t seed) {
  ShardRouterConfig cfg;
  cfg.shards = shards;
  cfg.broker.max_batch = 8;
  cfg.broker.flush_interval = microseconds(200);
  cfg.broker.delta_compaction_threshold = 32;
  cfg.broker.index.seed = seed;
  return cfg;
}

// One seeded schedule of interleaved updates and queries against a
// router with `shards` shards, a single broker, and the brute-force
// oracle — all three must agree exactly.
void run_shard_schedule(std::uint32_t shards, workload::Kind kind,
                        std::size_t base_n, std::size_t ops,
                        std::uint64_t seed) {
  SCOPED_TRACE("shards " + std::to_string(shards) + " " +
               workload::kind_name(kind) + " seed " + std::to_string(seed));
  Rng rng(seed);
  auto points = workload::generate<2>(kind, base_n, rng);
  auto& pool = par::ThreadPool::global();

  const ShardRouterConfig rcfg = router_config(shards, rng.next());
  ShardRouter<2> router(std::span<const Pt>(points), rcfg, pool);
  QueryBroker<2> single(std::span<const Pt>(points), rcfg.broker, pool);
  if (shards >= 2 && base_n >= 200) {
    EXPECT_GE(router.shard_count(), 2u)
        << "cut did not split a " << base_n << "-point set";
  }
  EXPECT_EQ(router.live_count(), points.size());

  LiveOracle oracle;
  for (std::size_t i = 0; i < points.size(); ++i)
    oracle.live.emplace(static_cast<std::uint32_t>(i), points[i]);

  std::uint32_t next_id = static_cast<std::uint32_t>(base_n) + 1000;
  std::size_t n_knn = 0, n_radius = 0, n_updates = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t dice = rng.below(100);
    if (dice < 14) {
      // Insert — every fourth duplicates live coordinates so
      // zero-distance ties span shards, base, and delta.
      Pt p;
      if (!oracle.live.empty() && op % 4 == 0) {
        p = oracle.live.find(oracle.any_id(rng))->second;
      } else {
        p = Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
      }
      const std::uint32_t id = next_id++;
      router.insert(id, p);
      single.insert(id, p);
      oracle.live.emplace(id, p);
      ++n_updates;
    } else if (dice < 20) {
      const std::size_t batch = 2 + rng.below(6);
      std::vector<std::uint32_t> ids;
      std::vector<Pt> pts;
      for (std::size_t b = 0; b < batch; ++b) {
        ids.push_back(next_id++);
        pts.push_back(Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
      }
      router.insert_bulk(ids, pts);
      single.insert_bulk(ids, pts);
      for (std::size_t b = 0; b < batch; ++b)
        oracle.live.emplace(ids[b], pts[b]);
      n_updates += batch;
    } else if (dice < 30) {
      if (oracle.live.empty()) continue;
      const std::uint32_t id = oracle.any_id(rng);
      router.remove(id);
      single.remove(id);
      oracle.live.erase(id);
      ++n_updates;
    } else if (dice < 36) {
      if (oracle.live.size() < 4) continue;
      std::vector<std::uint32_t> ids;
      while (ids.size() < 3) {
        const std::uint32_t id = oracle.any_id(rng);
        if (std::find(ids.begin(), ids.end(), id) == ids.end())
          ids.push_back(id);
      }
      router.remove_bulk(ids);
      single.remove_bulk(ids);
      for (std::uint32_t id : ids) oracle.live.erase(id);
      n_updates += ids.size();
    } else if (dice < 66) {
      const Pt q{{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)}};
      const std::size_t k = 1 + rng.below(6);
      std::uint32_t exclude = ShardRouter<2>::kNoExclude;
      if (!oracle.live.empty() && dice % 3 == 0)
        exclude = oracle.any_id(rng);
      auto got = router.knn(q, k, microseconds(0), exclude);
      auto want = oracle.knn(q, k, exclude);
      expect_knn_equal(got, want, "knn op " + std::to_string(op));
      expect_knn_equal(single.knn(q, k, microseconds(0), exclude), want,
                       "single knn op " + std::to_string(op));
      ++n_knn;
    } else {
      const Pt q{{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)}};
      const double r = rng.below(8) == 0 ? 0.0 : rng.uniform(0.02, 0.25);
      auto got = router.radius(q, r);
      auto want = oracle.radius(q, r);
      expect_radius_equal(got, want, "radius op " + std::to_string(op));
      expect_radius_equal(single.radius(q, r), want,
                          "single radius op " + std::to_string(op));
      ++n_radius;
    }
  }

  // Quiescence: join background compactions on every shard, then bulk
  // sweeps — the fan-out-heavy path — over the settled live set.
  router.drain_rebuilds();
  single.drain_rebuilds();
  EXPECT_EQ(router.live_count(), oracle.live.size());
  std::vector<Pt> sweep;
  for (int i = 0; i < 48; ++i)
    sweep.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  auto rows = router.bulk_knn(std::span<const Pt>(sweep), 5);
  auto single_rows = single.bulk_knn(std::span<const Pt>(sweep), 5);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    auto want = oracle.knn(sweep[i], 5);
    expect_knn_equal(rows[i], want, "sweep row " + std::to_string(i));
    expect_knn_equal(single_rows[i], want,
                     "single sweep row " + std::to_string(i));
  }
  n_knn += sweep.size();
  auto rrows = router.bulk_radius(std::span<const Pt>(sweep), 0.15);
  for (std::size_t i = 0; i < sweep.size(); ++i)
    expect_radius_equal(rrows[i], oracle.radius(sweep[i], 0.15),
                        "radius sweep row " + std::to_string(i));
  n_radius += sweep.size();

  // Router-level accounting at quiescence: everything accepted was
  // answered (nothing shed), fan-out only ever adds visits, and the
  // roll-up agrees with the per-shard truth.
  auto s = router.stats();
  EXPECT_EQ(s.submitted, n_knn + n_radius);
  EXPECT_EQ(s.knn_submitted, n_knn);
  EXPECT_EQ(s.radius_submitted, n_radius);
  EXPECT_EQ(s.knn_answered, n_knn);
  EXPECT_EQ(s.radius_answered, n_radius);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.updates_submitted, n_updates);
  EXPECT_LE(s.fanout_queries, s.submitted);
  EXPECT_GE(s.shard_visits, s.submitted);
  EXPECT_LE(s.boundary_fanout, 1.0);
  auto agg = router.aggregated_stats();
  EXPECT_EQ(agg.violations(), std::vector<std::string>{});
  EXPECT_EQ(agg.updates_submitted, n_updates);
  EXPECT_GE(agg.submitted, s.submitted) << "per-shard submissions must "
                                           "cover every router query";
  EXPECT_EQ(agg.fanout_queries, s.fanout_queries);
  std::size_t per_shard_updates = 0;
  for (std::uint32_t sh = 0; sh < router.shard_count(); ++sh)
    per_shard_updates += router.shard_stats(sh).updates_submitted;
  EXPECT_EQ(per_shard_updates, n_updates);
  if (router.shard_count() == 1) {
    EXPECT_EQ(s.fanout_queries, 0u);
  }
}

class ServiceShardDifferential
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ServiceShardDifferential, SchedulesMatchSingleBrokerAndBruteForce) {
  const std::uint32_t shards = GetParam();
  std::uint64_t seed = 6100 + shards;
  run_shard_schedule(shards, workload::Kind::UniformCube, 260, 240, seed);
  run_shard_schedule(shards, workload::Kind::GaussianClusters, 260, 240,
                     seed + 40);
  // Duplicates: coordinate ties everywhere, including across separator
  // surfaces — the tie-order acid test for the k-way merge.
  run_shard_schedule(shards, workload::Kind::Duplicates, 220, 200,
                     seed + 80);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ServiceShardDifferential,
                         ::testing::Values(1u, 2u, 4u, 7u),
                         [](const auto& pinfo) {
                           return "S" + std::to_string(pinfo.param);
                         });

// Larger instances across every shard count — the stress-labeled half
// of the suite (tests/CMakeLists.txt registers this binary twice with a
// --gtest_filter split).
TEST(ServiceShardDifferentialStress, LargeSchedules) {
  std::uint64_t seed = 6900;
  for (std::uint32_t shards : {2u, 4u, 7u}) {
    run_shard_schedule(shards, workload::Kind::UniformCube, 1400, 900,
                       seed++);
    run_shard_schedule(shards, workload::Kind::Duplicates, 1000, 700,
                       seed++);
  }
}

// The scaling story: at fixed S and k, the fraction of queries whose
// neighborhood ball crosses a separator — boundary_fanout — must decay
// as n grows (the k-th neighbor distance shrinks like n^(-1/d) while
// the cut stays put). This is the separator-intersection bound turned
// into a service-level measurement; if fan-out stopped being a
// vanishing minority, sharding would stop scaling.
TEST(ServiceShardFanout, BoundaryFanoutDecaysAsNGrows) {
  auto& pool = par::ThreadPool::global();
  const std::size_t sizes[] = {1500, 6000, 24000};
  const std::size_t k = 8;
  double fanout[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    Rng rng(7000 + t);
    auto points = workload::uniform_cube<2>(sizes[t], rng);
    ShardRouter<2> router(std::span<const Pt>(points),
                          router_config(4, 7100), pool);
    ASSERT_GE(router.shard_count(), 2u);
    std::vector<Pt> queries;
    for (int i = 0; i < 384; ++i)
      queries.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
    router.bulk_knn(std::span<const Pt>(queries), k);
    auto s = router.stats();
    ASSERT_EQ(s.submitted, queries.size());
    fanout[t] = s.boundary_fanout;
  }
  // Boundary-heavy at the small end (uniform queries over a 4-shard
  // cut do cross it), a vanishing minority at the large end.
  EXPECT_GT(fanout[0], 0.0);
  EXPECT_GT(fanout[0], fanout[2]);
  EXPECT_LE(fanout[2], 0.6 * fanout[0] + 1e-9)
      << "boundary fan-out is not decaying: " << fanout[0] << " -> "
      << fanout[1] << " -> " << fanout[2];
}

// The rollup carries every shard counter and histogram. It used to
// drop the controller_* counters and all histograms, so
// aggregated_stats() read 0 decisions and empty histograms however busy
// the shards' adaptive controllers were.
TEST(ServiceShardRollup, AggregatedStatsCarryControllerAndHistograms) {
  auto& pool = par::ThreadPool::global();
  Rng rng(7800);
  auto points = workload::uniform_cube<2>(2000, rng);
  ShardRouterConfig cfg = router_config(4, rng.next());
  cfg.broker.slo.adaptive = true;
  cfg.broker.slo.control_period = 1;
  ShardRouter<2> router(std::span<const Pt>(points), cfg, pool);
  ASSERT_GE(router.shard_count(), 2u);
  for (int round = 0; round < 16; ++round) {
    std::vector<Pt> queries;
    for (int i = 0; i < 64; ++i)
      queries.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
    router.bulk_knn(std::span<const Pt>(queries), 4);
    router.bulk_radius(std::span<const Pt>(queries), 0.05);
  }
  // Quiescence: a controller decision runs after its flush's clients
  // wake, so stop every flusher before reading.
  for (std::uint32_t sh = 0; sh < router.shard_count(); ++sh)
    router.shard(sh).shutdown();

  const ServiceStatsSnapshot agg = router.aggregated_stats();
  std::size_t controller_updates = 0;
  for (std::uint32_t sh = 0; sh < router.shard_count(); ++sh)
    controller_updates += router.shard_stats(sh).controller_updates;
  EXPECT_GT(agg.controller_updates, 0u);
  EXPECT_EQ(agg.controller_updates, controller_updates);
  EXPECT_GT(agg.batched, 0u);
  EXPECT_EQ(agg.queue_wait.count(), agg.batched);
  EXPECT_EQ(agg.violations(), std::vector<std::string>{});
}

// Sharded persistence: save_current writes one file per shard plus a
// manifest (written last — the commit point); bootstrapping from the
// manifest restores the exact live set, pending deltas included.
TEST(ServiceShardPersistence, SaveBootstrapRoundTrip) {
  auto& pool = par::ThreadPool::global();
  Rng rng(7200);
  auto points = workload::uniform_cube<2>(500, rng);
  const ShardRouterConfig cfg = router_config(4, rng.next());
  ShardRouter<2> router(std::span<const Pt>(points), cfg, pool);
  ASSERT_GE(router.shard_count(), 2u);

  // Mutate so the save carries pending deltas: inserts land in every
  // shard's delta tier, removes tombstone base points.
  LiveOracle oracle;
  for (std::size_t i = 0; i < points.size(); ++i)
    oracle.live.emplace(static_cast<std::uint32_t>(i), points[i]);
  for (std::uint32_t i = 0; i < 40; ++i) {
    const Pt p{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
    router.insert(10000 + i, p);
    oracle.live.emplace(10000 + i, p);
  }
  for (std::uint32_t i = 0; i < 30; ++i) {
    const std::uint32_t id = oracle.any_id(rng);
    router.remove(id);
    oracle.live.erase(id);
  }

  const std::string path = temp_path("shard_roundtrip.sepdc");
  EXPECT_EQ(router.last_saved_seq(), 0u);
  ASSERT_TRUE(router.save_current(path));
  EXPECT_EQ(router.last_saved_seq(), 1u);

  ShardRouter<2> restored(path, cfg, pool);
  EXPECT_EQ(restored.shard_count(), router.shard_count());
  EXPECT_EQ(restored.live_count(), oracle.live.size());
  for (int i = 0; i < 32; ++i) {
    const Pt q{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
    expect_knn_equal(restored.knn(q, 4), oracle.knn(q, 4),
                     "restored knn " + std::to_string(i));
    expect_radius_equal(restored.radius(q, 0.12), oracle.radius(q, 0.12),
                        "restored radius " + std::to_string(i));
  }
  // The restored router keeps working: updates and a second save.
  restored.insert(99999, Pt{{0.5, 0.5}});
  EXPECT_TRUE(restored.contains(99999));
  ASSERT_TRUE(restored.save_current(temp_path("shard_roundtrip2.sepdc")));
}

// A delta-only router (no base built yet) saves in the stub format and
// bootstraps to the identical live set.
TEST(ServiceShardPersistence, DeltaOnlyStubRoundTrip) {
  auto& pool = par::ThreadPool::global();
  Rng rng(7300);
  ShardRouterConfig cfg = router_config(1, rng.next());
  cfg.broker.delta_compaction_threshold = 0;  // stay delta-only
  ShardRouter<2> router(std::span<const Pt>{}, cfg, pool);
  EXPECT_EQ(router.shard_count(), 1u);

  LiveOracle oracle;
  std::vector<std::uint32_t> ids;
  std::vector<Pt> pts;
  for (std::uint32_t i = 0; i < 48; ++i) {
    ids.push_back(i);
    pts.push_back(Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
    oracle.live.emplace(ids.back(), pts.back());
  }
  router.insert_bulk(ids, pts);

  const std::string path = temp_path("shard_stub.sepdc");
  ASSERT_TRUE(router.save_current(path));
  ShardRouter<2> restored(path, cfg, pool);
  EXPECT_EQ(restored.live_count(), oracle.live.size());
  const Pt q{{0.4, 0.6}};
  expect_knn_equal(restored.knn(q, 6), oracle.knn(q, 6), "stub knn");
  expect_radius_equal(restored.radius(q, 0.3), oracle.radius(q, 0.3),
                      "stub radius");
}

// Torn saves are rejected: shard files carry the cut checksum of the
// save they belong to, and bootstrap refuses a manifest whose shard
// files disagree with it — the residual risk of the manifest-last
// protocol is a crash *between* two saves leaving old shard files
// behind, and the checksum is what catches the mix.
TEST(ServiceShardPersistence, TornSaveMixRejected) {
  auto& pool = par::ThreadPool::global();
  Rng rng(7400);
  auto points_a = workload::uniform_cube<2>(400, rng);
  auto points_b =
      workload::generate<2>(workload::Kind::GaussianClusters, 400, rng);
  const std::string path_a = temp_path("shard_torn_a.sepdc");
  const std::string path_b = temp_path("shard_torn_b.sepdc");
  const ShardRouterConfig cfg = router_config(4, rng.next());
  {
    ShardRouter<2> a(std::span<const Pt>(points_a), cfg, pool);
    ShardRouter<2> b(std::span<const Pt>(points_b), cfg, pool);
    ASSERT_GE(a.shard_count(), 2u);
    ASSERT_EQ(b.shard_count(), a.shard_count());
    ASSERT_TRUE(a.save_current(path_a));
    ASSERT_TRUE(b.save_current(path_b));
  }
  // Splice one of B's shard files into A's save: a different cut, so a
  // different checksum, so bootstrap must refuse.
  std::filesystem::copy_file(
      ShardRouter<2>::shard_path(path_b, 0),
      ShardRouter<2>::shard_path(path_a, 0),
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(ShardRouter<2>(path_a, cfg, pool), io::SnapshotIoError);

  // A plain (unsharded) snapshot is not a manifest either.
  Rng rng2(7500);
  auto pts = workload::uniform_cube<2>(64, rng2);
  BrokerConfig bcfg;
  QueryBroker<2> broker(std::span<const Pt>(pts), bcfg, pool);
  const std::string plain = temp_path("shard_torn_plain.sepdc");
  ASSERT_TRUE(broker.save_snapshot(plain));
  EXPECT_THROW(ShardRouter<2>(plain, cfg, pool), io::SnapshotIoError);
}

// Router-level validation mirrors the broker's: typed QueryError naming
// the offending field, thrown before any shard mutates.
TEST(ServiceShardValidation, InvalidRequestsThrowBeforeRouting) {
  auto& pool = par::ThreadPool::global();
  Rng rng(7600);
  auto points = workload::uniform_cube<2>(200, rng);
  ShardRouter<2> router(std::span<const Pt>(points),
                        router_config(4, rng.next()), pool);

  EXPECT_THROW(router.knn(Pt{{0.5, 0.5}}, 0), QueryError);
  EXPECT_THROW(router.radius(Pt{{0.5, 0.5}}, -1.0), QueryError);
  EXPECT_THROW(router.knn(Pt{{0.5, 0.5}}, 3, microseconds(-5)),
               QueryError);
  EXPECT_THROW(router.insert(0xffffffffu, Pt{{0.5, 0.5}}), QueryError);
  EXPECT_THROW(router.insert(5, Pt{{0.5, 0.5}}), QueryError);  // live
  EXPECT_THROW(router.remove(99999), QueryError);
  // A bulk insert with one bad element applies nothing anywhere.
  std::vector<std::uint32_t> ids{1000, 1001, 5};
  std::vector<Pt> pts{Pt{{0.1, 0.1}}, Pt{{0.2, 0.2}}, Pt{{0.3, 0.3}}};
  EXPECT_THROW(router.insert_bulk(ids, pts), QueryError);
  EXPECT_FALSE(router.contains(1000)) << "partial bulk insert applied";
  EXPECT_EQ(router.live_count(), points.size());
  auto s = router.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.updates_submitted, 0u);
}

}  // namespace
}  // namespace sepdc::service
