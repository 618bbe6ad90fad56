// Service benchmark: concurrent query throughput with and without
// micro-batching, emitting BENCH_service.json.
//
// Two serving designs over the same index, same query stream, same
// client counts:
//
//   baseline — one-query-at-a-time service: the design you get without
//     micro-batching. Clients hand single queries to a dispatcher
//     thread over a mutex-protected queue and block until their answer
//     comes back, so every query pays the full request round trip
//     (enqueue, wake dispatcher, execute, wake client). The index sits
//     behind a write-preferring reader/writer gate; a rebuild takes the
//     exclusive side and reconstructs in place, stalling the dispatcher
//     for the whole build.
//
//   broker — the src/service/ design: clients submit bulk requests that
//     the QueryBroker coalesces into micro-batches routed to
//     SeparatorIndex::batch_knn / batch_radius, amortizing the request
//     round trip over the whole batch; rebuilds construct a snapshot
//     off to the side and publish it by atomic shared_ptr handoff, so
//     queries never wait on a writer.
//
// Two query workloads (the broker serves both):
//   knn    — k nearest neighbors per query (~10us of index work each);
//   radius — closed-ball search (~1us each), the regime micro-batching
//     is for: per-request overhead dominates per-query work.
//
// Traffic scenarios per design:
//   steady   — queries only.
//   rebuild  — a writer thread continuously rebuilds (build, publish or
//     in-place swap, sleep gap_ms, repeat).
//   deadline — broker only: every request carries a budget shorter than
//     the flush interval, so the punt decision fires deterministically
//     and the Punting-Lemma fallback path (and its latency histogram)
//     is actually measured rather than reported as zero.
//
// Request latency is recorded into the shared metrics::Histogram (the
// same one the broker uses internally), and the broker rows carry its
// queue-wait / batch-execute / punt percentiles so a p99 regression can
// be attributed to a phase instead of guessed at. Pass --trace out.json
// to additionally capture Chrome-trace spans of flushes, batch kernels,
// punts, and snapshot builds (open in chrome://tracing or Perfetto).
//
// The headline acceptance number is broker vs baseline throughput at
// the largest client count on the radius workload (target: >= 3x).
#include "experiment_common.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include "core/config.hpp"
#include "service/query_broker.hpp"
#include "service/shard_router.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace {

using namespace sepdc;
using Pt = geo::Point<2>;

// Write-preferring reader/writer gate for the baseline: a plain
// std::shared_mutex lets a stream of readers starve the rebuild thread
// indefinitely (glibc rwlocks prefer readers), which would benchmark a
// service that silently never reindexes. This gate is what a lock-based
// design actually deploys.
class RwGate {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock<std::mutex> l(mu_);
    ++writers_waiting_;
    cv_.wait(l, [&] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> l(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

enum class Kind { kKnn, kRadius };

struct CellResult {
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;
  std::size_t request_queries = 1;  // queries per client submission
  std::size_t rebuilds = 0;
  service::ServiceStatsSnapshot stats{};  // broker cells only
};

struct CellParams {
  std::span<const Pt> points;
  std::span<const Pt> queries;
  Kind kind = Kind::kKnn;
  std::size_t k = 8;
  double radius = 0.01;
  unsigned clients = 1;
  bool rebuild = false;
  double seconds = 0.6;
  std::chrono::milliseconds gap{2};
  std::size_t bulk = 64;
  std::uint64_t seed = 9;
  // Per-request budget for the deadline scenario; zero means none.
  std::chrono::microseconds deadline{0};
  metrics::TraceRecorder* trace = nullptr;  // broker cells only
};

void summarize(CellResult& r, double elapsed, std::size_t completed,
               const metrics::Histogram& latency) {
  r.qps = elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
  r.queries = completed;
  auto snap = latency.snapshot();
  r.p50_request_us = snap.p50_us();
  r.p99_request_us = snap.p99_us();
}

// At quiescence the broker's accounting must reconcile exactly with the
// bench's own count and with every invariant the library defines
// (ServiceStatsSnapshot::violations(), docs/observability.md); a
// failure is a counting bug. `expected` is the bench-side count of
// every query it submitted — including staleness probes, not just the
// client loops.
void reconcile_broker_stats(const service::ServiceStatsSnapshot& s,
                            std::size_t expected) {
  SEPDC_CHECK_MSG(s.submitted == expected,
                  "broker submitted != bench submitted");
  for (const std::string& invariant : s.violations())
    SEPDC_CHECK_MSG(false, ("accounting invariant violated: " + invariant)
                               .c_str());
}

// One-query-at-a-time service: a dispatcher thread pops one request,
// answers it against the gated index, and wakes the owning client.
CellResult run_baseline(const CellParams& p, par::ThreadPool& pool) {
  core::SeparatorIndexConfig icfg;
  icfg.seed = p.seed;
  std::optional<core::SeparatorIndex<2>> index(std::in_place, p.points,
                                               icfg, pool);
  RwGate gate;

  struct Req {
    const Pt* query = nullptr;
    bool done = false;
  };
  std::mutex mu;
  std::condition_variable cv_in, cv_out;
  std::deque<Req*> queue;
  bool stop_dispatch = false;

  std::thread dispatcher([&] {
    for (;;) {
      Req* r;
      {
        std::unique_lock<std::mutex> l(mu);
        cv_in.wait(l, [&] { return stop_dispatch || !queue.empty(); });
        if (stop_dispatch && queue.empty()) return;
        r = queue.front();
        queue.pop_front();
      }
      gate.lock_shared();
      if (p.kind == Kind::kKnn) {
        auto row = index->knn(*r->query, p.k);
        (void)row;
      } else {
        std::size_t hits = 0;
        index->for_each_in_ball(*r->query, p.radius,
                                [&](std::uint32_t, double) { ++hits; });
        (void)hits;
      }
      gate.unlock_shared();
      {
        std::lock_guard<std::mutex> l(mu);
        r->done = true;
      }
      cv_out.notify_all();
    }
  });

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;  // ns per request, shared by all clients
  CellResult result;
  result.request_queries = 1;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        Req r{&p.queries[qi]};
        Timer t;
        {
          std::lock_guard<std::mutex> l(mu);
          queue.push_back(&r);
        }
        cv_in.notify_one();
        {
          std::unique_lock<std::mutex> l(mu);
          cv_out.wait(l, [&] { return r.done; });
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(1, std::memory_order_relaxed);
        qi = (qi + 1) % p.queries.size();
      }
    });
  }
  std::thread writer;
  if (p.rebuild) {
    writer = std::thread([&] {
      std::uint64_t seed = p.seed + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        core::SeparatorIndexConfig c = icfg;
        c.seed = ++seed;
        gate.lock();  // dispatcher stalls for the entire in-place rebuild
        index.emplace(p.points, c, pool);
        gate.unlock();
        ++result.rebuilds;
        std::this_thread::sleep_for(p.gap);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Counters are read only after every client has joined (and the wall
  // clock stops with them): reading them mid-flight undercounts by the
  // requests still draining and then misreconciles against the broker's
  // own counters (the "batched exceeds the bench's query count" bug).
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  if (writer.joinable()) writer.join();
  {
    std::lock_guard<std::mutex> l(mu);
    stop_dispatch = true;
  }
  cv_in.notify_all();
  dispatcher.join();

  summarize(result, elapsed, done, latency);
  return result;
}

CellResult run_broker(const CellParams& p, par::ThreadPool& pool) {
  service::BrokerConfig cfg;
  cfg.max_batch = p.bulk;
  cfg.flush_interval = std::chrono::microseconds(200);
  cfg.index.seed = p.seed;
  cfg.trace = p.trace;
  service::QueryBroker<2> broker(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;  // ns per request, shared by all clients
  CellResult result;
  result.request_queries = p.bulk;

  const auto budget = p.deadline.count() > 0
                          ? p.deadline
                          : service::QueryBroker<2>::kNoDeadline;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        if (p.kind == Kind::kKnn) {
          auto rows =
              broker.bulk_knn(p.queries.subspan(qi, len), p.k, budget);
          (void)rows;
        } else {
          auto rows = broker.bulk_radius(p.queries.subspan(qi, len),
                                         p.radius, budget);
          (void)rows;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::thread writer;
  if (p.rebuild) {
    writer = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        broker.rebuild(p.points);  // off to the side; queries unblocked
        ++result.rebuilds;
        std::this_thread::sleep_for(p.gap);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Read counters only after the clients have joined — see run_baseline.
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  summarize(result, elapsed, done, latency);
  result.stats = broker.stats();
  reconcile_broker_stats(result.stats, done);
  return result;
}

struct Record {
  std::string workload;
  std::string scenario;
  std::string mode;
  unsigned clients = 0;
  CellResult cell;
};

// --- live_update: sustained mutations while clients query ---
//
// The delta-tier acceptance number (docs/updates.md): under a sustained
// stream of single-point inserts/removes, the broker's request p99 must
// sit >= 10x below the design you get without a delta tier — apply a
// batch of updates by rebuilding the whole index behind the write gate —
// with zero stale answers for acknowledged updates. Every update is
// followed by a radius-0 probe at the mutated coordinate: an insert that
// was acknowledged must be visible, a remove must never resurrect. The
// probe failures are counted and checked, not sampled.

struct LiveUpdateResult {
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;     // client queries completed
  std::size_t updates = 0;     // single-point mutations applied
  std::size_t stale = 0;       // acked updates a probe failed to observe
  std::size_t rebuilds = 0;    // full index rebuilds (baseline)
  std::size_t compactions = 0;  // delta merges installed (broker)
  service::ServiceStatsSnapshot stats{};  // broker only
};

// Rebuild-per-batch baseline: the service keeps one mutable point set
// behind the write-preferring gate; applying a batch of updates means
// reconstructing the entire index in place while every reader waits.
LiveUpdateResult run_live_update_baseline(const CellParams& p,
                                          par::ThreadPool& pool) {
  core::SeparatorIndexConfig icfg;
  icfg.seed = p.seed;
  std::vector<Pt> pts(p.points.begin(), p.points.end());
  std::optional<core::SeparatorIndex<2>> index(std::in_place, pts, icfg,
                                               pool);
  RwGate gate;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;
  LiveUpdateResult result;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        // Same request granularity as the broker clients (a bulk of
        // p.bulk queries per request) so the p99s are comparable; the
        // gate is taken per query, the pattern a per-query service
        // actually deploys, so the writer can interleave.
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        for (std::size_t i = 0; i < len; ++i) {
          gate.lock_shared();
          std::size_t hits = 0;
          index->for_each_in_ball(p.queries[qi + i], p.radius,
                                  [&](std::uint32_t, double) { ++hits; });
          gate.unlock_shared();
          (void)hits;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::thread mutator([&] {
    Rng rng(p.seed + 101);
    constexpr std::size_t kBatch = 16;  // updates amortized per rebuild
    while (!stop.load(std::memory_order_relaxed)) {
      gate.lock();
      Pt last{};
      for (std::size_t i = 0; i < kBatch; ++i) {
        // Replace a random point with a fresh one: a remove + an insert.
        std::size_t victim = rng.below(pts.size());
        last = {{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
        pts[victim] = last;
        result.updates += 2;
      }
      core::SeparatorIndexConfig c = icfg;
      c.seed = rng.next();
      index.emplace(pts, c, pool);
      ++result.rebuilds;
      // Acknowledged == rebuilt here; the probe must see the new point.
      std::size_t seen = 0;
      index->for_each_in_ball(last, 0.0,
                              [&](std::uint32_t, double) { ++seen; });
      if (seen == 0) ++result.stale;
      gate.unlock();
      // No pacing sleep: the scenario is a *sustained* mutation stream,
      // and this design's only way to apply it is rebuild after rebuild.
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  mutator.join();

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();
  return result;
}

// Delta-tier broker: every mutation lands in the live tier immediately;
// compaction (threshold-triggered, built off to the side, published by
// snapshot handoff) never blocks a reader.
LiveUpdateResult run_live_update_broker(const CellParams& p,
                                        par::ThreadPool& pool) {
  service::BrokerConfig cfg;
  cfg.max_batch = p.bulk;
  cfg.flush_interval = std::chrono::microseconds(200);
  cfg.index.seed = p.seed;
  cfg.trace = p.trace;
  service::QueryBroker<2> broker(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;
  LiveUpdateResult result;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        auto rows = broker.bulk_radius(p.queries.subspan(qi, len), p.radius);
        (void)rows;
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }
  std::size_t probe_queries = 0;
  std::thread mutator([&] {
    Rng rng(p.seed + 101);
    std::uint32_t next_id = static_cast<std::uint32_t>(p.points.size());
    std::vector<std::pair<std::uint32_t, Pt>> added;
    while (!stop.load(std::memory_order_relaxed)) {
      Pt pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
      std::uint32_t id = next_id++;
      broker.insert(id, pt);
      ++result.updates;
      added.emplace_back(id, pt);
      // The insert returned, so it is acknowledged: a closed-ball probe
      // at its exact coordinate must report it (kernel bit-identity
      // makes dist2 == 0.0 exact, docs/kernels.md).
      auto hits = broker.radius(pt, 0.0);
      ++probe_queries;
      bool seen = false;
      for (const auto& [hid, d2] : hits) seen |= hid == id;
      if (!seen) ++result.stale;
      // Let the live set outgrow the compaction threshold (256 by
      // default) so the threshold-triggered background merge actually
      // runs inside the measurement window; a remove of an id whose add
      // is still in the active segment just cancels the add, so trimming
      // too early would pin the pending count below the threshold.
      if (added.size() > 512) {
        std::size_t pick = rng.below(added.size());
        auto [rid, rpt] = added[pick];
        added[pick] = added.back();
        added.pop_back();
        broker.remove(rid);
        ++result.updates;
        auto post = broker.radius(rpt, 0.0);
        ++probe_queries;
        for (const auto& [hid, d2] : post)
          if (hid == rid) ++result.stale;  // resurrected tombstone
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);
  mutator.join();
  broker.drain_rebuilds();

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();
  result.stats = broker.stats();
  result.compactions = result.stats.compactions;
  reconcile_broker_stats(result.stats, done + probe_queries);
  SEPDC_CHECK_MSG(result.stats.updates_submitted == result.updates,
                  "live_update: broker update count != bench update count");
  SEPDC_CHECK_MSG(result.stale == 0,
                  "live_update: stale answer for an acknowledged update");
  return result;
}

// --- slo_sweep: SLO routing under swept offered load ---
//
// The ROADMAP item-4 acceptance story (docs/service_architecture.md,
// "SLO routing & degradation"): with the fast lane, adaptive batching,
// and admission control on, sweep bulk offered load across fractions of
// measured capacity while one paced interactive client holds a latency
// SLO. Targets: interactive attainment >= 90% even at 2x-capacity
// offered load (bulk shed with typed errors instead of collapsing every
// class), and a lone interactive query through the idle broker within
// 3x of the direct index path (vs ~60x for a full flush wait).

service::BrokerConfig slo_broker_config(const CellParams& p,
                                        std::chrono::microseconds budget) {
  service::BrokerConfig cfg;
  cfg.max_batch = p.bulk;
  cfg.flush_interval = std::chrono::microseconds(200);
  cfg.index.seed = p.seed;
  cfg.trace = p.trace;
  cfg.slo.fast_lane = true;
  cfg.slo.adaptive = true;
  cfg.slo.min_flush_interval = std::chrono::microseconds(50);
  cfg.slo.max_flush_interval = std::chrono::microseconds(1000);
  cfg.slo.min_batch = 8;
  cfg.slo.max_batch = 512;
  cfg.slo.target_queue_wait = std::chrono::microseconds(300);
  cfg.slo.interactive_budget = budget;
  cfg.slo.bulk_budget = budget;
  // Shed a bulk request when its projected backlog alone would eat half
  // the budget: paced `bulk`-sized chunks (~tens of µs projected) always
  // pass, while the overload cells' jumbo burst chunks (projected in the
  // ms) are deterministically rejected.
  cfg.slo.shed_factor = 0.5;
  return cfg;
}

// Closed-loop capacity probe: one saturating bulk client against the
// plain broker config; its throughput anchors the sweep's offered rates.
double probe_capacity_qps(const CellParams& p, par::ThreadPool& pool) {
  service::BrokerConfig cfg;
  cfg.max_batch = p.bulk;
  cfg.flush_interval = std::chrono::microseconds(200);
  cfg.index.seed = p.seed;
  service::QueryBroker<2> broker(p.points, cfg, pool);
  std::size_t done = 0, qi = 0;
  Timer t;
  while (t.seconds() < 0.2) {
    std::size_t len = std::min<std::size_t>(p.bulk, p.queries.size() - qi);
    auto rows = broker.bulk_radius(p.queries.subspan(qi, len), p.radius);
    (void)rows;
    done += len;
    qi = (qi + len) % p.queries.size();
  }
  double elapsed = t.seconds();
  return elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
}

struct FastLaneResult {
  double direct_p50_us = 0.0;  // bare index, no service in front
  double broker_p50_us = 0.0;  // idle broker with the fast lane on
  double p50_ratio = 0.0;      // broker / direct (target <= 3)
  std::size_t queries = 0;
};

// Lone-client latency: the fast lane must put the idle broker within a
// small constant of the direct index path, not a full flush interval.
FastLaneResult run_fast_lane(const CellParams& p, par::ThreadPool& pool,
                             std::chrono::microseconds budget) {
  FastLaneResult r;
  const std::size_t nq = std::min<std::size_t>(2000, p.queries.size() * 4);
  core::SeparatorIndexConfig icfg;
  icfg.seed = p.seed;
  core::SeparatorIndex<2> index(p.points, icfg, pool);
  metrics::Histogram direct;
  for (std::size_t i = 0; i < nq; ++i) {
    Timer t;
    auto row = index.knn(p.queries[i % p.queries.size()], p.k);
    (void)row;
    direct.record_seconds(t.seconds());
  }

  service::QueryBroker<2> broker(p.points, slo_broker_config(p, budget),
                                 pool);
  metrics::Histogram lane;
  for (std::size_t i = 0; i < nq; ++i) {
    Timer t;
    auto row = broker.knn(p.queries[i % p.queries.size()], p.k);
    (void)row;
    lane.record_seconds(t.seconds());
  }
  auto s = broker.stats();
  reconcile_broker_stats(s, nq);
  SEPDC_CHECK_MSG(s.fast_lane + s.punted == nq,
                  "fast_lane cell: a lone client found the broker busy");

  r.queries = nq;
  r.direct_p50_us = direct.snapshot().p50_us();
  r.broker_p50_us = lane.snapshot().p50_us();
  r.p50_ratio =
      r.direct_p50_us > 0.0 ? r.broker_p50_us / r.direct_p50_us : 0.0;
  return r;
}

struct SloSweepResult {
  double factor = 0.0;        // offered bulk load / probed capacity
  double offered_qps = 0.0;   // bulk queries/s the clients tried to send
  double bulk_qps = 0.0;      // bulk queries/s actually answered
  double interactive_qps = 0.0;
  double interactive_p50_us = 0.0;
  double interactive_p99_us = 0.0;
  double attainment = 0.0;    // interactive answers within the budget
  std::size_t interactive_queries = 0;
  std::size_t bulk_attempted = 0;
  std::size_t bulk_answered = 0;
  std::size_t bulk_shed = 0;
  service::ServiceStatsSnapshot stats{};
};

SloSweepResult run_slo_cell(const CellParams& p, par::ThreadPool& pool,
                            double factor, double capacity_qps,
                            std::chrono::microseconds budget) {
  service::QueryBroker<2> broker(p.points, slo_broker_config(p, budget),
                                 pool);
  SloSweepResult r;
  r.factor = factor;
  const double offered = capacity_qps * factor;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bulk_attempted{0}, bulk_answered{0};
  std::atomic<std::size_t> bulk_shed{0}, wrong_errors{0};
  std::atomic<std::size_t> inter_done{0}, inter_in_slo{0};
  metrics::Histogram inter_latency;

  constexpr unsigned kBulkThreads = 2;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kBulkThreads; ++c) {
    threads.emplace_back([&, c] {
      // Paced open loop: each thread owes its share of the offered rate,
      // one `bulk`-sized chunk at a time. A shed chunk is counted and
      // the client moves on (the degradation contract: typed error,
      // caller backs off) — offered load stays offered.
      const double chunks_per_s =
          offered / (kBulkThreads * static_cast<double>(p.bulk));
      const auto period =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double>(
                  chunks_per_s > 0.0 ? 1.0 / chunks_per_s : 1.0));
      std::size_t qi = (c * 7919) % p.queries.size();
      auto next = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        bulk_attempted.fetch_add(len, std::memory_order_relaxed);
        try {
          auto rows =
              broker.bulk_radius(p.queries.subspan(qi, len), p.radius);
          (void)rows;
          bulk_answered.fetch_add(len, std::memory_order_relaxed);
        } catch (const service::QueryError& e) {
          if (e.field() != "overload")
            wrong_errors.fetch_add(1, std::memory_order_relaxed);
          bulk_shed.fetch_add(len, std::memory_order_relaxed);
        }
        qi = (qi + len) % p.queries.size();
        next += period;
        auto now = std::chrono::steady_clock::now();
        if (next < now) next = now;  // saturated: don't accumulate debt
        std::this_thread::sleep_until(next);
      }
    });
  }
  // Overload cells (> 1x capacity) add a burst tenant: un-paced jumbo
  // bulk chunks whose projected occupancy alone exceeds
  // shed_factor × budget. This is the traffic admission control exists
  // to reject — the sweep must show the typed-error degradation path
  // under overload while the paced tenants keep flowing. The tenant
  // starts after a short delay so the EWMA cost estimate the shed
  // decision prices against is warmed by real batches first.
  if (factor > 1.0) {
    threads.emplace_back([&] {
      constexpr std::size_t kBurst = 8192;
      std::vector<Pt> burst(kBurst);
      for (std::size_t i = 0; i < kBurst; ++i)
        burst[i] = p.queries[i % p.queries.size()];
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      while (!stop.load(std::memory_order_relaxed)) {
        bulk_attempted.fetch_add(kBurst, std::memory_order_relaxed);
        try {
          auto rows = broker.bulk_radius(
              std::span<const Pt>(burst), p.radius);
          (void)rows;
          bulk_answered.fetch_add(kBurst, std::memory_order_relaxed);
        } catch (const service::QueryError& e) {
          if (e.field() != "overload")
            wrong_errors.fetch_add(1, std::memory_order_relaxed);
          bulk_shed.fetch_add(kBurst, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  // One paced interactive client holding the SLO: single knn queries at
  // a fixed modest rate, latency judged against the class budget.
  threads.emplace_back([&] {
    const auto period = std::chrono::microseconds(1000);  // ~1000 qps
    std::size_t qi = 0;
    auto next = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      Timer t;
      auto row = broker.knn(p.queries[qi], p.k);
      (void)row;
      const double secs = t.seconds();
      inter_latency.record_seconds(secs);
      inter_done.fetch_add(1, std::memory_order_relaxed);
      if (secs * 1e6 <= static_cast<double>(budget.count()))
        inter_in_slo.fetch_add(1, std::memory_order_relaxed);
      qi = (qi + 1) % p.queries.size();
      next += period;
      auto now = std::chrono::steady_clock::now();
      if (next < now) next = now;
      std::this_thread::sleep_until(next);
    }
  });

  Timer elapsed_timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed = elapsed_timer.seconds();

  r.offered_qps = offered;
  r.bulk_attempted = bulk_attempted.load(std::memory_order_relaxed);
  r.bulk_answered = bulk_answered.load(std::memory_order_relaxed);
  r.bulk_shed = bulk_shed.load(std::memory_order_relaxed);
  r.interactive_queries = inter_done.load(std::memory_order_relaxed);
  r.bulk_qps = elapsed > 0.0
                   ? static_cast<double>(r.bulk_answered) / elapsed
                   : 0.0;
  r.interactive_qps =
      elapsed > 0.0 ? static_cast<double>(r.interactive_queries) / elapsed
                    : 0.0;
  auto snap = inter_latency.snapshot();
  r.interactive_p50_us = snap.p50_us();
  r.interactive_p99_us = snap.p99_us();
  r.attainment =
      r.interactive_queries > 0
          ? static_cast<double>(
                inter_in_slo.load(std::memory_order_relaxed)) /
                static_cast<double>(r.interactive_queries)
          : 0.0;

  r.stats = broker.stats();
  SEPDC_CHECK_MSG(wrong_errors.load(std::memory_order_relaxed) == 0,
                  "slo_sweep: a shed surfaced as something other than "
                  "QueryError(\"overload\")");
  // The books must balance exactly even with shedding in the mix:
  // attempts == submitted + shed, and shed never leaks into submitted.
  reconcile_broker_stats(r.stats,
                         r.bulk_answered + r.interactive_queries);
  SEPDC_CHECK_MSG(r.stats.shed == r.bulk_shed,
                  "slo_sweep: broker shed count != bench shed count");
  SEPDC_CHECK_MSG(r.bulk_attempted + r.interactive_queries ==
                      r.stats.submitted + r.stats.shed,
                  "slo_sweep: attempts != submitted + shed");
  return r;
}

// --- sharded: scale past one broker with separator-based sharding ---
//
// The ShardRouter acceptance number (docs/sharding.md): S shared-nothing
// brokers behind the separator-sphere shard function must scale aggregate
// throughput near-linearly — target >= 3x at 4 shards vs 1 — because the
// sphere-separator intersection bound keeps the fraction of queries that
// must visit more than their home shard (boundary_fanout) a vanishing
// fraction of traffic. Same client loop as run_broker, same bulk
// requests, so S=1 isolates the router's own overhead.

struct ShardedResult {
  unsigned shards = 0;
  double qps = 0.0;
  double p50_request_us = 0.0;
  double p99_request_us = 0.0;
  std::size_t queries = 0;
  double boundary_fanout = 0.0;
  std::uint64_t fanout_queries = 0;
  std::uint64_t shard_visits = 0;
  std::uint64_t punted = 0;
};

ShardedResult run_sharded_cell(const CellParams& p, par::ThreadPool& pool,
                               unsigned shards) {
  service::ShardRouterConfig cfg;
  cfg.shards = shards;
  cfg.broker.max_batch = p.bulk;
  cfg.broker.flush_interval = std::chrono::microseconds(200);
  cfg.broker.index.seed = p.seed;
  cfg.broker.trace = p.trace;
  service::ShardRouter<2> router(p.points, cfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  metrics::Histogram latency;  // ns per request, shared by all clients
  ShardedResult result;
  result.shards = shards;

  Timer elapsed_timer;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t qi = (c * 7919) % p.queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t len =
            std::min<std::size_t>(p.bulk, p.queries.size() - qi);
        Timer t;
        if (p.kind == Kind::kKnn) {
          auto rows = router.bulk_knn(p.queries.subspan(qi, len), p.k);
          (void)rows;
        } else {
          auto rows =
              router.bulk_radius(p.queries.subspan(qi, len), p.radius);
          (void)rows;
        }
        latency.record_seconds(t.seconds());
        completed.fetch_add(len, std::memory_order_relaxed);
        qi = (qi + len) % p.queries.size();
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  // Read counters only after the clients have joined — see run_baseline.
  double elapsed = elapsed_timer.seconds();
  std::size_t done = completed.load(std::memory_order_relaxed);

  result.qps = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
  result.queries = done;
  auto snap = latency.snapshot();
  result.p50_request_us = snap.p50_us();
  result.p99_request_us = snap.p99_us();

  // Router books must balance at quiescence: every bench query was
  // accepted (nothing shed at these rates), every accepted query visited
  // at least its home shard, and the per-shard brokers answered exactly
  // what the router scattered to them.
  auto rs = router.stats();
  SEPDC_CHECK_MSG(rs.submitted == done,
                  "sharded: router submitted != bench submitted");
  SEPDC_CHECK_MSG(rs.shed == 0, "sharded: unexpected shed");
  SEPDC_CHECK_MSG(rs.fanout_queries <= rs.submitted,
                  "sharded: fanout_queries exceeds submitted");
  SEPDC_CHECK_MSG(rs.shard_visits >= rs.submitted,
                  "sharded: shard_visits below submitted");
  auto agg = router.aggregated_stats();
  SEPDC_CHECK_MSG(agg.knn_answered == agg.knn_submitted,
                  "sharded: shard knn answered != submitted");
  SEPDC_CHECK_MSG(agg.radius_answered == agg.radius_submitted,
                  "sharded: shard radius answered != submitted");
  SEPDC_CHECK_MSG(agg.submitted == rs.shard_visits,
                  "sharded: shard submissions != router visits");
  result.boundary_fanout = rs.boundary_fanout;
  result.fanout_queries = rs.fanout_queries;
  result.shard_visits = rs.shard_visits;
  result.punted = agg.punted;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepdc;
  Cli cli;
  cli.flag("n", "20000", "indexed points")
      .flag("queries", "8192", "distinct query points (cycled)")
      .flag("k", "8", "neighbors per knn query")
      .flag("radius", "0.01", "ball radius for radius queries")
      .flag("bulk", "64", "queries per broker bulk request")
      .flag("seconds", "0.6", "measurement window per cell")
      .flag("gap_ms", "2", "writer sleep between rebuilds")
      .flag("clients", "1,2,4,8", "client thread counts")
      .flag("seed", "9", "random seed")
      .flag("deadline_us", "150",
            "per-request budget in the deadline scenario (shorter than "
            "the 200us flush interval, so every request punts)")
      .flag("trace", "",
            "write Chrome-trace JSON of broker phase spans (empty to "
            "disable; open in chrome://tracing or Perfetto)")
      .flag("only", "",
            "run a single scenario (steady|rebuild|deadline|live_update|"
            "cold_start|slo_sweep|sharded); empty runs everything")
      .flag("shards", "1,2,4", "shard counts for the sharded scenario")
      .flag("json", "BENCH_service.json",
            "machine-readable results file (empty to disable)");
  if (!cli.parse(argc, argv)) return 0;
  bench::banner(
      "SERVICE — concurrent query serving",
      "micro-batched broker amortizes the request round trip that a "
      "one-query-at-a-time service pays per query, and snapshot handoff "
      "sustains throughput while the index is rebuilt");

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const auto nq = static_cast<std::size_t>(cli.get_int("queries"));

  if (cli.get_int("k") < 1)
    throw core::ConfigError("k", "k must be at least 1");

  CellParams base;
  base.k = static_cast<std::size_t>(cli.get_int("k"));
  base.radius = cli.get_double("radius");
  base.bulk = static_cast<std::size_t>(cli.get_int("bulk"));
  base.seconds = cli.get_double("seconds");
  base.gap = std::chrono::milliseconds(cli.get_int("gap_ms"));
  base.seed = rng.next();

  auto points = workload::uniform_cube<2>(n, rng);
  std::vector<Pt> queries(nq);
  for (auto& q : queries)
    q = {{rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)}};
  base.points = std::span<const Pt>(points);
  base.queries = std::span<const Pt>(queries);

  auto& pool = par::ThreadPool::global();
  std::vector<Record> records;
  Table table({"workload", "scenario", "mode", "clients", "qps", "p50 us",
               "p99 us", "rebuilds", "punted", "speedup"});

  unsigned top_clients = 0;
  for (std::int64_t clients : cli.get_int_list("clients"))
    top_clients = std::max(top_clients, static_cast<unsigned>(clients));

  const auto deadline_us =
      std::chrono::microseconds(cli.get_int("deadline_us"));
  std::optional<metrics::TraceRecorder> trace;
  if (!cli.get("trace").empty()) trace.emplace();

  // --only gates whole scenarios so CI can smoke-run one of them (the
  // slo_sweep smoke in the static-analysis job) in seconds, not minutes.
  const std::string only = cli.get("only");
  auto enabled = [&](const char* scenario) {
    return only.empty() || only == scenario;
  };

  for (Kind kind : {Kind::kKnn, Kind::kRadius}) {
    const std::string workload = kind == Kind::kKnn ? "knn" : "radius";
    for (const char* scenario : {"steady", "rebuild", "deadline"}) {
      if (!enabled(scenario)) continue;
      const bool rebuild = std::string(scenario) == "rebuild";
      const bool deadline = std::string(scenario) == "deadline";
      for (std::int64_t clients : cli.get_int_list("clients")) {
        CellParams p = base;
        p.kind = kind;
        p.clients = static_cast<unsigned>(clients);
        p.rebuild = rebuild;
        if (deadline) p.deadline = deadline_us;
        p.trace = trace ? &*trace : nullptr;
        // The deadline scenario is broker-only: the baseline has no
        // deadline concept, so its row would just repeat "steady".
        CellResult baseline;
        if (!deadline) {
          baseline = run_baseline(p, pool);
          records.push_back(
              {workload, scenario, "baseline", p.clients, baseline});
        }
        CellResult broker = run_broker(p, pool);
        records.push_back({workload, scenario, "broker", p.clients, broker});
        double speedup =
            baseline.qps > 0.0 ? broker.qps / baseline.qps : 0.0;
        if (!deadline) {
          table.new_row()
              .cell(workload)
              .cell(scenario)
              .cell("baseline")
              .cell(p.clients)
              .cell(baseline.qps, 0)
              .cell(baseline.p50_request_us, 1)
              .cell(baseline.p99_request_us, 1)
              .cell(baseline.rebuilds)
              .cell(0)
              .cell(1.0, 2);
        }
        table.new_row()
            .cell(workload)
            .cell(scenario)
            .cell("broker")
            .cell(p.clients)
            .cell(broker.qps, 0)
            .cell(broker.p50_request_us, 1)
            .cell(broker.p99_request_us, 1)
            .cell(broker.rebuilds)
            .cell(broker.stats.punted)
            .cell(speedup, 2);
      }
    }
  }
  // live_update runs at the largest client count only, on the radius
  // workload (the latency-sensitive regime): broker delta tier vs
  // rebuild-per-batch. The "speedup" column reports the p99 ratio —
  // baseline request p99 over broker request p99 (target >= 10x).
  // Half the top client count: the cell measures mutation-induced tail
  // latency, so the readers must not saturate the machine by themselves
  // (at full saturation both designs just measure CPU contention).
  const unsigned lu_clients = std::max(1u, top_clients / 2);
  const bool run_lu = enabled("live_update");
  LiveUpdateResult lu_base, lu_broker;
  if (run_lu) {
    CellParams p = base;
    p.kind = Kind::kRadius;
    p.clients = lu_clients;
    p.trace = trace ? &*trace : nullptr;
    lu_base = run_live_update_baseline(p, pool);
    lu_broker = run_live_update_broker(p, pool);
  }
  const double lu_p99_ratio = lu_broker.p99_request_us > 0.0
                                  ? lu_base.p99_request_us /
                                        lu_broker.p99_request_us
                                  : 0.0;
  if (run_lu) {
    table.new_row()
        .cell("radius")
        .cell("live_update")
        .cell("baseline")
        .cell(lu_clients)
        .cell(lu_base.qps, 0)
        .cell(lu_base.p50_request_us, 1)
        .cell(lu_base.p99_request_us, 1)
        .cell(lu_base.rebuilds)
        .cell(0)
        .cell(1.0, 2);
    table.new_row()
        .cell("radius")
        .cell("live_update")
        .cell("broker")
        .cell(lu_clients)
        .cell(lu_broker.qps, 0)
        .cell(lu_broker.p50_request_us, 1)
        .cell(lu_broker.p99_request_us, 1)
        .cell(lu_broker.compactions)
        .cell(lu_broker.stats.punted)
        .cell(lu_p99_ratio, 2);
  }
  table.print(std::cout);

  if (run_lu)
    std::printf(
        "\nlive update, sustained mutations at %u clients "
        "(target: broker p99 >= 10x below rebuild-per-batch):\n"
        "  baseline %.1f us p99 over %zu updates (%zu rebuilds) | "
        "broker %.1f us p99 over %zu updates (%zu compactions) | %.1fx\n"
        "  stale answers for acknowledged updates: %zu (must be 0)\n",
        lu_clients, lu_base.p99_request_us, lu_base.updates,
        lu_base.rebuilds, lu_broker.p99_request_us, lu_broker.updates,
        lu_broker.compactions, lu_p99_ratio,
        lu_base.stale + lu_broker.stale);

  // --- slo_sweep: SLO routing under swept offered load ---
  const bool run_slo = enabled("slo_sweep");
  const auto slo_budget = std::chrono::microseconds(2000);
  double slo_capacity = 0.0;
  FastLaneResult fast_lane{};
  std::vector<SloSweepResult> slo_cells;
  if (run_slo) {
    CellParams p = base;
    p.kind = Kind::kRadius;
    p.trace = trace ? &*trace : nullptr;
    slo_capacity = probe_capacity_qps(p, pool);
    fast_lane = run_fast_lane(p, pool, slo_budget);
    for (double factor : {0.25, 1.0, 2.0})
      slo_cells.push_back(
          run_slo_cell(p, pool, factor, slo_capacity, slo_budget));
    std::printf(
        "\nslo_sweep, probed capacity %.0f qps, interactive SLO %lld us "
        "(target: >= 90%% attainment at 2x offered load, bulk shed with "
        "typed errors):\n",
        slo_capacity, static_cast<long long>(slo_budget.count()));
    for (const auto& c : slo_cells)
      std::printf(
          "  %.2fx offered: interactive p50 %.1f us p99 %.1f us, "
          "attainment %.1f%% | bulk answered %zu shed %zu | "
          "operating point %zu us / batch %zu (tighten %zu, relax %zu)\n",
          c.factor, c.interactive_p50_us, c.interactive_p99_us,
          c.attainment * 100.0, c.bulk_answered, c.bulk_shed,
          c.stats.cur_flush_interval_us, c.stats.cur_max_batch,
          c.stats.controller_tighten, c.stats.controller_relax);
    std::printf(
        "  idle fast lane: broker p50 %.1f us vs direct %.1f us => "
        "%.2fx (target <= 3x)\n",
        fast_lane.broker_p50_us, fast_lane.direct_p50_us,
        fast_lane.p50_ratio);
  }

  // --- sharded: aggregate throughput across S shared-nothing shards ---
  const bool run_sharded = enabled("sharded");
  std::vector<std::pair<std::string, ShardedResult>> sharded_cells;
  if (run_sharded) {
    for (Kind kind : {Kind::kKnn, Kind::kRadius}) {
      const std::string workload = kind == Kind::kKnn ? "knn" : "radius";
      double base_qps = 0.0;
      for (std::int64_t shards : cli.get_int_list("shards")) {
        CellParams p = base;
        p.kind = kind;
        p.clients = top_clients;
        p.trace = trace ? &*trace : nullptr;
        ShardedResult cell =
            run_sharded_cell(p, pool, static_cast<unsigned>(shards));
        if (cell.shards == 1) base_qps = cell.qps;
        table.new_row()
            .cell(workload)
            .cell("sharded")
            .cell("router-S" + std::to_string(cell.shards))
            .cell(top_clients)
            .cell(cell.qps, 0)
            .cell(cell.p50_request_us, 1)
            .cell(cell.p99_request_us, 1)
            .cell(0)
            .cell(cell.punted)
            .cell(base_qps > 0.0 ? cell.qps / base_qps : 0.0, 2);
        sharded_cells.emplace_back(workload, cell);
      }
    }
    std::printf(
        "\nsharded, %u clients over S shared-nothing shards "
        "(target: >= 3x aggregate throughput at S=4 vs S=1):\n",
        top_clients);
    for (const auto& [workload, c] : sharded_cells)
      std::printf(
          "  %-6s S=%u: %.0f qps, p50 %.1f us p99 %.1f us, "
          "boundary fanout %.4f (%llu of %zu queries, %llu shard "
          "visits)\n",
          workload.c_str(), c.shards, c.qps, c.p50_request_us,
          c.p99_request_us, c.boundary_fanout,
          static_cast<unsigned long long>(c.fanout_queries), c.queries,
          static_cast<unsigned long long>(c.shard_visits));
  }
  auto sharded_speedup = [&](const std::string& workload, unsigned s) {
    double one = 0.0, at = 0.0;
    for (const auto& [w, c] : sharded_cells) {
      if (w != workload) continue;
      if (c.shards == 1) one = c.qps;
      if (c.shards == s) at = c.qps;
    }
    return one > 0.0 ? at / one : 0.0;
  };

  // --- cold_start: time-to-first-answer, fresh build vs mmap load ---
  // The persistence acceptance number (docs/persistence.md): a broker
  // bootstrapped from a snapshot file must answer its first query >= 10x
  // sooner than one that builds the index from points. Best of three so
  // a scheduler hiccup doesn't decide the ratio; one warm broker writes
  // the snapshot both cold paths share.
  struct ColdStart {
    double build_s = 1e300;
    double load_s = 1e300;
    std::uintmax_t bytes = 0;
  } cold;
  const std::string snap_path =
      (std::filesystem::temp_directory_path() /
       "bench_service_cold_start.sepdc")
          .string();
  const bool run_cold = enabled("cold_start");
  if (run_cold) {
    service::BrokerConfig bcfg;
    bcfg.index.seed = base.seed;
    service::QueryBroker<2> warm(base.points, bcfg, pool);
    SEPDC_CHECK_MSG(warm.save_snapshot(snap_path),
                    "cold_start: snapshot save failed");
    cold.bytes = std::filesystem::file_size(snap_path);
    for (int rep = 0; rep < 3; ++rep) {
      {
        Timer t;
        service::QueryBroker<2> b(base.points, bcfg, pool);
        auto row = b.knn(queries[0], base.k);
        (void)row;
        cold.build_s = std::min(cold.build_s, t.seconds());
      }
      {
        Timer t;
        service::QueryBroker<2> b(snap_path, bcfg, pool);
        auto row = b.knn(queries[0], base.k);
        (void)row;
        cold.load_s = std::min(cold.load_s, t.seconds());
      }
    }
    std::filesystem::remove(snap_path);
  }
  const double cold_speedup =
      cold.load_s > 0.0 ? cold.build_s / cold.load_s : 0.0;
  if (run_cold)
    std::printf(
        "\ncold start, time to first answer at n=%zu (target >= 10x):\n"
        "  build %.2f ms | mmap load %.2f ms | %.1fx "
        "(snapshot %.1f MiB)\n",
        n, cold.build_s * 1e3, cold.load_s * 1e3, cold_speedup,
        static_cast<double>(cold.bytes) / (1024.0 * 1024.0));

  // Headline: broker vs one-query-at-a-time baseline at the largest
  // client count, per workload and scenario.
  auto qps_of = [&](const std::string& workload, const std::string& scenario,
                    const std::string& mode) {
    for (const auto& r : records)
      if (r.workload == workload && r.scenario == scenario &&
          r.mode == mode && r.clients == top_clients)
        return r.cell.qps;
    return 0.0;
  };
  auto speedup_of = [&](const std::string& workload,
                        const std::string& scenario) {
    double b = qps_of(workload, scenario, "baseline");
    return b > 0.0 ? qps_of(workload, scenario, "broker") / b : 0.0;
  };
  if (only.empty())
    std::printf(
        "\nbroker vs one-query-at-a-time baseline at %u clients "
        "(target >= 3x on radius):\n"
        "  radius: %.2fx steady, %.2fx under rebuild\n"
        "  knn:    %.2fx steady, %.2fx under rebuild\n",
        top_clients, speedup_of("radius", "steady"),
        speedup_of("radius", "rebuild"), speedup_of("knn", "steady"),
        speedup_of("knn", "rebuild"));

  if (std::string path = cli.get("trace"); !path.empty() && trace) {
    std::ofstream out(path);
    trace->write_chrome_trace(out);
    std::printf("wrote %zu trace events to %s\n", trace->event_count(),
                path.c_str());
  }

  if (std::string path = cli.get("json"); !path.empty()) {
    std::ofstream json(path);
    json << "[\n";
    for (const auto& r : records) {
      const auto& s = r.cell.stats;
      json << "  {\"workload\": \"" << r.workload << "\", \"scenario\": \""
           << r.scenario << "\", \"mode\": \"" << r.mode
           << "\", \"clients\": " << r.clients
           << ", \"throughput_qps\": " << r.cell.qps
           << ", \"p50_request_us\": " << r.cell.p50_request_us
           << ", \"p99_request_us\": " << r.cell.p99_request_us
           << ", \"request_queries\": " << r.cell.request_queries
           << ", \"queries\": " << r.cell.queries
           << ", \"rebuilds\": " << r.cell.rebuilds
           << ", \"submitted\": " << s.submitted
           << ", \"batched\": " << s.batched
           << ", \"punted\": " << s.punted
           << ", \"expired\": " << s.expired
           << ", \"rebuilt_under\": " << s.rebuilt_under
           << ", \"flushes\": " << s.flushes
           << ", \"queue_wait_p50_us\": " << s.queue_wait.p50_us()
           << ", \"queue_wait_p99_us\": " << s.queue_wait.p99_us()
           << ", \"execute_p50_us\": " << s.batch_execute.p50_us()
           << ", \"execute_p99_us\": " << s.batch_execute.p99_us()
           << ", \"punt_p50_us\": " << s.punt_latency.p50_us()
           << ", \"punt_p99_us\": " << s.punt_latency.p99_us()
           << ", \"flush_size_mean\": " << s.flush_size.mean()
           << ", \"flush_size_max\": " << s.flush_size.max()
           << ", \"snapshots_published\": " << s.snapshots_published
           << "},\n";
    }
    if (run_slo) {
      json << "  {\"scenario\": \"slo_fast_lane\", \"queries\": "
           << fast_lane.queries
           << ", \"direct_p50_us\": " << fast_lane.direct_p50_us
           << ", \"broker_p50_us\": " << fast_lane.broker_p50_us
           << ", \"p50_ratio\": " << fast_lane.p50_ratio
           << ", \"target\": 3.0},\n";
      for (const auto& c : slo_cells) {
        const auto& s = c.stats;
        json << "  {\"workload\": \"mixed\", \"scenario\": \"slo_sweep\", "
             << "\"mode\": \"broker\", \"offered_factor\": " << c.factor
             << ", \"capacity_qps\": " << slo_capacity
             << ", \"offered_bulk_qps\": " << c.offered_qps
             << ", \"bulk_qps\": " << c.bulk_qps
             << ", \"interactive_qps\": " << c.interactive_qps
             << ", \"interactive_p50_us\": " << c.interactive_p50_us
             << ", \"interactive_p99_us\": " << c.interactive_p99_us
             << ", \"slo_budget_us\": " << slo_budget.count()
             << ", \"slo_attainment\": " << c.attainment
             << ", \"attainment_target\": 0.9"
             << ", \"interactive_queries\": " << c.interactive_queries
             << ", \"bulk_attempted\": " << c.bulk_attempted
             << ", \"bulk_answered\": " << c.bulk_answered
             << ", \"bulk_shed\": " << c.bulk_shed
             << ", \"fast_lane\": " << s.fast_lane
             << ", \"punted\": " << s.punted
             << ", \"batched\": " << s.batched
             << ", \"shed\": " << s.shed
             << ", \"controller_updates\": " << s.controller_updates
             << ", \"controller_tighten\": " << s.controller_tighten
             << ", \"controller_relax\": " << s.controller_relax
             << ", \"cur_flush_interval_us\": " << s.cur_flush_interval_us
             << ", \"cur_max_batch\": " << s.cur_max_batch
             << ", \"queue_wait_p99_us\": " << s.queue_wait.p99_us()
             << "},\n";
      }
    }
    auto live_update_row = [&](const char* mode, const LiveUpdateResult& r) {
      json << "  {\"workload\": \"radius\", \"scenario\": \"live_update\", "
           << "\"mode\": \"" << mode << "\", \"clients\": " << lu_clients
           << ", \"throughput_qps\": " << r.qps
           << ", \"p50_request_us\": " << r.p50_request_us
           << ", \"p99_request_us\": " << r.p99_request_us
           << ", \"queries\": " << r.queries
           << ", \"updates\": " << r.updates
           << ", \"stale_answers\": " << r.stale
           << ", \"rebuilds\": " << r.rebuilds
           << ", \"compactions\": " << r.compactions
           << ", \"delta_peak\": " << r.stats.delta_peak
           << ", \"update_apply_p99_us\": " << r.stats.update_apply.p99_us()
           << ", \"compaction_build_p99_us\": "
           << r.stats.compaction_build.p99_us() << "},\n";
    };
    if (run_lu) {
      live_update_row("baseline", lu_base);
      live_update_row("broker", lu_broker);
      json << "  {\"scenario\": \"live_update_summary\", \"clients\": "
           << lu_clients << ", \"p99_ratio\": " << lu_p99_ratio
           << ", \"stale_answers\": " << lu_base.stale + lu_broker.stale
           << ", \"target\": 10.0},\n";
    }
    if (run_sharded) {
      for (const auto& [workload, c] : sharded_cells)
        json << "  {\"workload\": \"" << workload
             << "\", \"scenario\": \"sharded\", \"mode\": \"router\", "
             << "\"shards\": " << c.shards
             << ", \"clients\": " << top_clients
             << ", \"throughput_qps\": " << c.qps
             << ", \"p50_request_us\": " << c.p50_request_us
             << ", \"p99_request_us\": " << c.p99_request_us
             << ", \"queries\": " << c.queries
             << ", \"boundary_fanout\": " << c.boundary_fanout
             << ", \"fanout_queries\": " << c.fanout_queries
             << ", \"shard_visits\": " << c.shard_visits
             << ", \"punted\": " << c.punted << "},\n";
      json << "  {\"scenario\": \"sharded_summary\", \"clients\": "
           << top_clients
           << ", \"speedup_radius_4shards\": " << sharded_speedup("radius", 4)
           << ", \"speedup_knn_4shards\": " << sharded_speedup("knn", 4)
           << ", \"target\": 3.0},\n";
    }
    if (run_cold)
      json << "  {\"scenario\": \"cold_start\", \"n\": " << n
           << ", \"build_ttfa_ms\": " << cold.build_s * 1e3
           << ", \"load_ttfa_ms\": " << cold.load_s * 1e3
           << ", \"snapshot_bytes\": " << cold.bytes
           << ", \"cold_start_speedup\": " << cold_speedup
           << ", \"target\": 10.0},\n";
    json << "  {\"scenario\": \"summary\", \"clients\": " << top_clients
         << ", \"speedup_radius_steady\": " << speedup_of("radius", "steady")
         << ", \"speedup_radius_rebuild\": "
         << speedup_of("radius", "rebuild")
         << ", \"speedup_knn_steady\": " << speedup_of("knn", "steady")
         << ", \"speedup_knn_rebuild\": " << speedup_of("knn", "rebuild")
         << ", \"target\": 3.0}\n";
    json << "]\n";
    std::printf("wrote %zu records to %s\n", records.size() + 5,
                path.c_str());
  }
  return 0;
}
