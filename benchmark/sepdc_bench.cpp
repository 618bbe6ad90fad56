// sepdc_bench — runs one workload of the repository benchmark
// (benchmark/README.md).
//
// One process runs one seeded workload through the library's public entry
// points, checks the answers against an exact linear-scan oracle, and
// prints one JSON result as the last line of stdout (progress goes to
// stderr). benchmark/run.py builds this binary, runs it, and attaches the
// units declared in BENCHMARK.json.
//
//   allknn_clustered3d  core::parallel_nearest_neighborhood<3>, the paper's
//                       §6 algorithm, rebuilt over one clustered input.
//   knn_serve           QueryBroker: 2 closed-loop bulk_knn clients plus an
//                       open-loop stream of single knn queries that punt.
//   radius_live         QueryBroker: 2 closed-loop bulk_radius clients plus
//                       an open-loop insert/remove mutator whose every
//                       update is probed for visibility; then snapshot
//                       save and cold start.
//   sharded_mixed       ShardRouter over 4 shards: one bulk_knn and one
//                       bulk_radius closed-loop client.
//
// With --trace 0 one untraced system takes every window. With --trace 1 an
// untraced and a traced system (a metrics::TraceRecorder passed through
// the public config fields) take alternate windows, so the per-layer
// numbers and the tracing overhead come out of the same process.
#include <sys/resource.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "knn/block_store.hpp"
#include "knn/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "service/query_broker.hpp"
#include "service/shard_router.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace sepdc;
using Clock = std::chrono::steady_clock;
using Pt = geo::Point<2>;
using Broker = service::QueryBroker<2>;
using Router = service::ShardRouter<2>;
using KnnRow = Broker::KnnRow;
using RadiusRow = Broker::RadiusRow;
using Metrics = std::map<std::string, double>;

constexpr std::size_t kK = 8;
constexpr std::size_t kBulk = 64;
// ~10 hits per query over 2^17 uniform points in the unit square.
constexpr double kRadius = 0.005;
// Below the default 200 us flush interval, so a single query never fits
// the batch path and punts.
constexpr std::chrono::microseconds kSingleBudget{150};
constexpr double kSingleRate = 1000.0;  // knn_serve single queries per second
constexpr double kUpdateRate = 500.0;   // radius_live updates per second
constexpr std::size_t kQueryPool = std::size_t{1} << 15;
// Set-up takes 0.1-0.3 s, so one sample is at the mercy of the host; the
// median of 9 is not.
constexpr int kSetupReps = 9;
constexpr std::size_t kSamplesPerThread = 64;
constexpr std::size_t kBatterySize = 1024;

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

// Exact quantile with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;

  std::size_t serve_n() const {
    return smoke ? 4096 : std::size_t{1} << 17;
  }
  // 2^17 points build in about 0.3 s on 4 cores, so a run times about 100
  // graphs and its p90 has 10 builds beyond it.
  std::size_t allknn_n() const {
    return smoke ? std::size_t{1} << 14 : std::size_t{1} << 17;
  }
  // Windows per system. A traced run splits its time between the
  // untraced and the traced system. Many short windows let the median
  // step over a window that a neighbour on the host slowed down.
  int windows() const { return smoke ? (trace ? 1 : 2) : (trace ? 5 : 10); }
  double window_s() const {
    return smoke ? 0.5 : seconds / (trace ? 2 * windows() : windows());
  }
  // An untimed window per system before the measured ones: the first
  // compactions, page faults and cache fills land here.
  double warmup_s() const { return smoke ? 0.2 : 1.0; }
  double allknn_s() const { return smoke ? 1.0 : seconds; }
};

// ------------------------------------------------------------- oracle

// Exact rows by linear scan over an (id, point) set: independent of the
// index, the kd-tree and the SIMD kernels under test. geo::distance2 is
// bit-identical to every search path (docs/kernels.md), so rows compare
// exactly, (dist2, id) tie order included.
template <int D>
struct Oracle {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::span<const geo::Point<D>> pts;
  std::span<const std::uint32_t> ids;  // empty: ids are positions

  std::uint32_t id(std::size_t i) const {
    return ids.empty() ? static_cast<std::uint32_t>(i) : ids[i];
  }

  KnnRow knn(const geo::Point<D>& q, std::size_t k,
             std::uint32_t exclude = kNone) const {
    KnnRow all;
    all.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (id(i) != exclude) all.push_back({geo::distance2(q, pts[i]), id(i)});
    k = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end());
    all.resize(k);
    return all;
  }

  RadiusRow radius(const geo::Point<D>& q, double r) const {
    RadiusRow row;
    const double r2 = r * r;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double d2 = geo::distance2(q, pts[i]);
      if (d2 <= r2) row.emplace_back(id(i), d2);
    }
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second < b.second : a.first < b.first;
    });
    return row;
  }
};

// Counts the rows in [0, n) for which bad(i) holds, in parallel.
template <class Bad>
std::size_t count_bad(par::ThreadPool& pool, std::size_t n, Bad&& bad) {
  std::atomic<std::size_t> count{0};
  par::parallel_for(
      pool, 0, n,
      [&](std::size_t i) {
        if (bad(i)) count.fetch_add(1, std::memory_order_relaxed);
      },
      1);
  return count.load();
}

// -------------------------------------------------------------- trace

struct SpanSums {
  double total_s = 0.0;
  double self_s = 0.0;
  std::size_t count = 0;
};
using SpanTable = std::map<std::string, SpanSums>;

// Per span name: summed duration, and summed self time — the span's
// duration minus the spans on the same thread that it directly covers.
// Spans are not linked across threads.
SpanTable span_table(const metrics::TraceRecorder& rec) {
  auto events = rec.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     if (a.second.start_ns != b.second.start_ns)
                       return a.second.start_ns < b.second.start_ns;
                     return a.second.dur_ns > b.second.dur_ns;
                   });
  std::vector<double> self(events.size());
  std::vector<std::size_t> open;
  auto end_of = [&](std::size_t i) {
    return events[i].second.start_ns + events[i].second.dur_ns;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0 && events[i].first != events[i - 1].first) open.clear();
    const metrics::TraceEvent& e = events[i].second;
    self[i] = static_cast<double>(e.dur_ns);
    while (!open.empty() && end_of(open.back()) <= e.start_ns)
      open.pop_back();
    if (!open.empty() && end_of(i) <= end_of(open.back()))
      self[open.back()] -= static_cast<double>(e.dur_ns);
    open.push_back(i);
  }
  SpanTable table;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanSums& s = table[events[i].second.name];
    s.total_s += static_cast<double>(events[i].second.dur_ns) * 1e-9;
    s.self_s += self[i] * 1e-9;
    ++s.count;
  }
  return table;
}

// The traced run's spans, as a Chrome trace in the working directory.
void write_trace(const std::string& workload, std::uint64_t seed,
                 const metrics::TraceRecorder& rec) {
  const std::string path =
      workload + "-seed" + std::to_string(seed) + ".trace.json";
  std::ofstream out(path);
  rec.write_chrome_trace(out);
  require(out.good(), "could not write " + path);
}

double span_self(const SpanTable& t, const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_s;
}

double span_mean(const SpanTable& t, const char* name) {
  auto it = t.find(name);
  return it == t.end()
             ? 0.0
             : ratio(it->second.total_s,
                     static_cast<double>(it->second.count));
}

// ------------------------------------------------------------- result

struct Result {
  Metrics e2e;
  Metrics layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setup_s;
  std::ostringstream rows;  // per-window (or per-build) JSON objects
  SpanTable spans;
};

void set_zero(Metrics& m, std::initializer_list<const char*> names) {
  for (const char* n : names) m[n] = 0.0;
}

void no_snapshot_metrics(Metrics& m) {
  set_zero(m, {"io.snapshot_file.save_s", "io.snapshot_file.load_s",
               "io.snapshot_file.snapshot_bytes",
               "io.snapshot_file.bytes_per_point", "bench.cold_start_s"});
}

// Squared-distance kernel throughput over a block store, in points
// (lanes computed, pads included) per second.
template <int D>
double kernel_points_per_s(const knn::PointBlockStore<D>& store,
                           std::span<const geo::Point<D>> queries) {
  std::vector<double> out(store.block_count() * knn::kernels::kBlockWidth);
  double checksum = 0.0;
  Timer t;
  for (const auto& q : queries) {
    knn::kernels::dist2_blocks(store.block_coords(0), store.block_count(), D,
                               q.coords.data(), out.data());
    checksum += out[0];
  }
  const double secs = t.seconds();
  require(std::isfinite(checksum), "dist2_blocks produced a non-finite lane");
  return ratio(static_cast<double>(out.size() * queries.size()), secs);
}

void kernel_metrics(Metrics& m, double points_per_s, int dims) {
  m["knn.kernels.dist2_points_per_s"] = points_per_s;
  m["knn.kernels.computed_bytes_per_s"] = points_per_s * dims * 8.0;
}

void pool_metrics(Metrics& m, const par::ThreadPoolStats& a,
                  const par::ThreadPoolStats& b, double seconds,
                  double queries) {
  m["parallel.thread_pool.utilization"] =
      ratio(static_cast<double>(b.busy_ns - a.busy_ns),
            static_cast<double>(b.concurrency) * seconds * 1e9);
  m["parallel.thread_pool.task_wait_p99_us"] =
      b.task_wait.delta_since(a.task_wait).p99_us();
  m["parallel.thread_pool.tasks_per_query"] =
      ratio(static_cast<double>(b.tasks_executed - a.tasks_executed),
            queries);
}

// ------------------------------------------------- allknn_clustered3d

bool same_run(const core::NearestNeighborEngine<3>::Output& a,
              const core::NearestNeighborEngine<3>::Output& b) {
  const core::Diagnostics& x = a.report.diag;
  const core::Diagnostics& y = b.report.diag;
  return a.knn.neighbors == b.knn.neighbors && a.knn.dist2 == b.knn.dist2 &&
         a.report.cost == b.report.cost &&
         x.separator_attempts == y.separator_attempts &&
         x.total_cut_balls == y.total_cut_balls &&
         x.corrected_balls == y.corrected_balls && x.punts == y.punts &&
         x.march_aborts == y.march_aborts;
}

Result run_allknn(const Options& o) {
  Result r;
  const std::size_t n = o.allknn_n();
  Rng rng(o.seed);
  const std::vector<geo::Point<3>> pts =
      workload::gaussian_clusters<3>(n, 12, 0.02, rng);
  const std::span<const geo::Point<3>> span(pts);
  core::Config cfg;
  cfg.k = kK;

  // Set-up: a fresh pool and the first graph, cold.
  std::optional<core::NearestNeighborEngine<3>::Output> ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer t;
    par::ThreadPool fresh(0);
    auto out = core::parallel_nearest_neighborhood<3>(span, cfg, fresh);
    r.setup_s.push_back(t.seconds());
    if (ref) {
      require(same_run(*ref, out), "allknn: a rebuild differs from the first");
    } else {
      ref = std::move(out);
    }
  }
  std::fprintf(stderr, "allknn_clustered3d: n=%zu setup %.3f s\n", n,
               median(r.setup_s));

  par::ThreadPool pool(0);
  require(same_run(*ref, core::parallel_nearest_neighborhood<3>(span, cfg,
                                                                  pool)),
          "allknn: the warm-up build differs from the first build");
  metrics::TraceRecorder rec;
  std::vector<double> untraced, traced;
  const par::ThreadPoolStats before = pool.stats();
  Timer total;
  for (std::size_t i = 0; total.seconds() < o.allknn_s() || i < 3; ++i) {
    core::Config c = cfg;
    c.trace = o.trace && i % 2 == 1 ? &rec : nullptr;
    metrics::TraceSpan span_all(c.trace, "bench.allknn", "bench");
    Timer t;
    auto out = core::parallel_nearest_neighborhood<3>(span, c, pool);
    const double secs = t.seconds();
    span_all.end();
    (c.trace ? traced : untraced).push_back(secs);
    r.rows << (i ? "," : "") << "{\"traced\":" << (c.trace ? 1 : 0)
           << ",\"seconds\":" << secs << "}";
    require(same_run(*ref, out),
            "allknn: a timed build differs from the first build");
  }
  const double wall = total.seconds();
  const par::ThreadPoolStats after = pool.stats();
  const std::size_t builds = untraced.size() + traced.size();
  r.attempted = kSetupReps + builds;

  // 2048 sampled rows against the oracle, (dist2, id) order included.
  const Oracle<3> oracle{span, {}};
  const std::vector<std::size_t> rows =
      rng.sample_indices(n, std::min<std::size_t>(n, 2048));
  const std::size_t bad = count_bad(pool, rows.size(), [&](std::size_t j) {
    const std::size_t i = rows[j];
    const KnnRow want =
        oracle.knn(pts[i], kK, static_cast<std::uint32_t>(i));
    const auto nbr = ref->knn.row_neighbors(i);
    const auto d2 = ref->knn.row_dist2(i);
    if (want.size() != kK) return true;
    for (std::size_t s = 0; s < kK; ++s)
      if (want[s].index != nbr[s] || want[s].dist2 != d2[s]) return true;
    return false;
  });
  require(bad == 0, "allknn: " + std::to_string(bad) +
                        " sampled rows differ from brute force");

  const double build_s = median(untraced);
  r.e2e["throughput_qps"] = static_cast<double>(n) / build_s;
  r.e2e["request_p50_ms"] = build_s * 1e3;
  r.e2e["request_p90_ms"] = quantile(untraced, 0.90) * 1e3;
  r.e2e["setup_s"] = median(r.setup_s);

  Metrics& m = r.layer;
  const core::Diagnostics& diag = ref->report.diag;
  if (o.trace) {
    r.spans = span_table(rec);
    write_trace(o.workload, o.seed, rec);
  }
  const double per_traced = static_cast<double>(traced.size());
  m["core.engine.separator_search_s"] =
      ratio(span_self(r.spans, "separator_search"), per_traced);
  m["core.engine.split_s"] = ratio(span_self(r.spans, "split"), per_traced);
  m["core.engine.correction_s"] =
      ratio(span_self(r.spans, "correction"), per_traced);
  m["core.engine.separator_attempts"] =
      static_cast<double>(diag.separator_attempts);
  m["core.engine.cut_balls"] = static_cast<double>(diag.total_cut_balls);
  m["core.engine.corrected_balls"] =
      static_cast<double>(diag.corrected_balls);
  m["core.engine.correction_yield"] =
      ratio(static_cast<double>(diag.corrected_balls),
            static_cast<double>(diag.total_cut_balls));
  m["core.engine.punts"] = static_cast<double>(diag.punts);
  m["core.engine.march_aborts"] = static_cast<double>(diag.march_aborts);
  m["core.engine.model_work"] = static_cast<double>(ref->report.cost.work);
  m["core.engine.model_depth"] = static_cast<double>(ref->report.cost.depth);
  pool_metrics(m, before, after, wall,
               static_cast<double>(n) * static_cast<double>(builds));
  const knn::PointBlockStore<3> store(span);
  kernel_metrics(m, kernel_points_per_s<3>(store, span.subspan(0, 16)), 3);
  m["bench.trace_overhead"] =
      traced.empty() ? 0.0 : median(traced) / build_s - 1.0;
  // The serving layers are bypassed.
  set_zero(m, {"core.separator_index.build_s",
               "core.separator_index.batch_knn_us",
               "core.separator_index.knn_us",
               "core.separator_index.batch_radius_us",
               "core.separator_index.radius_hits_per_query",
               "service.query_broker.queue_wait_p50_us",
               "service.query_broker.queue_wait_p99_us",
               "service.query_broker.execute_p50_us",
               "service.query_broker.execute_p99_us",
               "service.query_broker.flush_size_mean",
               "service.query_broker.flushes_per_s",
               "service.query_broker.punt_p50_us",
               "service.query_broker.punt_p99_us",
               "service.query_broker.punted_share",
               "service.query_broker.expired_share",
               "service.query_broker.request_overhead_us",
               "service.query_broker.flush_self_us",
               "service.delta_tier.update_apply_p50_us",
               "service.delta_tier.update_apply_p99_us",
               "service.delta_tier.compactions",
               "service.delta_tier.compaction_build_p50_ms",
               "service.delta_tier.compactions_abandoned",
               "service.delta_tier.delta_peak",
               "service.delta_tier.rebuilt_under_share",
               "service.shard_router.boundary_fanout",
               "service.shard_router.shard_visits_per_query",
               "service.shard_router.shard_imbalance",
               "service.shard_router.shard_execute_p50_us",
               "service.shard_router.request_overhead_us", "bench.knn_qps",
               "bench.knn_p50_us", "bench.knn_p99_us", "bench.radius_qps",
               "bench.radius_p50_us", "bench.radius_p99_us",
               "bench.single_p50_us", "bench.single_p99_us",
               "bench.update_p50_us", "bench.update_p99_us",
               "bench.generator_lag_p99_us"});
  no_snapshot_metrics(m);
  return r;
}

// ------------------------------------------------------- serving

// What the radius_live mutator believes is live, from its own
// acknowledged updates: the reference for probes and the battery.
struct LiveSet {
  static constexpr std::uint32_t kDead = 0xffffffffu;
  std::vector<Pt> by_id;            // every id ever issued
  std::vector<std::uint32_t> live;  // live ids, unordered
  std::vector<std::uint32_t> slot;  // id -> position in live, or kDead

  explicit LiveSet(std::span<const Pt> pts)
      : by_id(pts.begin(), pts.end()), live(pts.size()), slot(pts.size()) {
    for (std::size_t i = 0; i < pts.size(); ++i)
      live[i] = slot[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t next_id() const {
    return static_cast<std::uint32_t>(by_id.size());
  }
  void add(const Pt& p) {
    slot.push_back(static_cast<std::uint32_t>(live.size()));
    live.push_back(next_id());
    by_id.push_back(p);
  }
  void drop(std::uint32_t id) {
    const std::uint32_t at = slot[id];
    live[at] = live.back();
    slot[live[at]] = at;
    live.pop_back();
    slot[id] = kDead;
  }
  // Live points and their ids, ids ascending.
  void flatten(std::vector<Pt>& pts, std::vector<std::uint32_t>& ids) const {
    for (std::uint32_t id = 0; id < by_id.size(); ++id) {
      if (slot[id] == kDead) continue;
      pts.push_back(by_id[id]);
      ids.push_back(id);
    }
  }
};

struct KnnSample {
  Pt q;
  KnnRow row;
};
struct RadiusSample {
  Pt q;
  RadiusRow row;
};

// What the bench's clients observed: one per client thread, merged per
// window.
struct Load {
  std::vector<double> knn_us, radius_us;  // closed-loop bulk requests
  std::vector<double> single_us;          // single queries and probes
  std::vector<double> update_us;          // insert/remove acks
  std::vector<double> lag_us;             // open-loop generator lateness
  std::size_t knn_queries = 0, radius_queries = 0;
  std::size_t ops = 0, failed = 0, stale = 0;
  std::vector<KnnSample> knn_samples;
  std::vector<RadiusSample> radius_samples;

  void absorb(Load&& o) {
    auto cat = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    cat(knn_us, o.knn_us);
    cat(radius_us, o.radius_us);
    cat(single_us, o.single_us);
    cat(update_us, o.update_us);
    cat(lag_us, o.lag_us);
    cat(knn_samples, o.knn_samples);
    cat(radius_samples, o.radius_samples);
    knn_queries += o.knn_queries;
    radius_queries += o.radius_queries;
    ops += o.ops;
    failed += o.failed;
    stale += o.stale;
  }
};

struct Window {
  bool traced = false;
  double seconds = 0.0;
  Load load;

  double qps() const {
    return ratio(static_cast<double>(load.knn_queries + load.radius_queries),
                 seconds);
  }
  std::vector<double> request_us() const {
    std::vector<double> all = load.knn_us;
    all.insert(all.end(), load.radius_us.begin(), load.radius_us.end());
    return all;
  }
};

// One serving system under test and the bench-side accounting it is
// checked against.
template <class Sys>
struct Served {
  explicit Served(metrics::TraceRecorder* recorder) : tr(recorder) {}

  std::unique_ptr<Sys> sys;
  metrics::TraceRecorder* tr;  // null: untraced
  std::atomic<std::size_t> queries_sent{0};
  std::atomic<std::size_t> query_errors{0};
  std::size_t updates_sent = 0;   // mutator thread / main thread only
  std::size_t update_errors = 0;
  std::vector<std::size_t> cursors;  // per client thread, across windows
  std::optional<LiveSet> live;       // radius_live only
  Rng mutator_rng{0};
  std::vector<KnnSample> knn_samples;
  std::vector<RadiusSample> radius_samples;
};

// One submission of n queries. A QueryError — the service's typed
// rejection — counts the queries as failed instead of ending the run.
template <class Sys, class Fn>
bool submit(Served<Sys>& s, std::size_t n, Fn&& fn) {
  s.queries_sent.fetch_add(n, std::memory_order_relaxed);
  try {
    fn();
    return true;
  } catch (const service::QueryError&) {
    s.query_errors.fetch_add(n, std::memory_order_relaxed);
    return false;
  }
}

// Builds the system `reps` times, timing each from points to first
// answer; keeps the last one.
template <class Sys, class Make>
std::unique_ptr<Served<Sys>> set_up(Make&& make, metrics::TraceRecorder* tr,
                                    const Pt& probe, int reps,
                                    std::vector<double>* samples) {
  std::unique_ptr<Served<Sys>> s;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    metrics::TraceSpan span(tr, "bench.setup", "bench");
    Timer t;
    s = std::make_unique<Served<Sys>>(tr);
    s->sys = make(tr);
    KnnRow row;
    require(submit(*s, 1, [&] { row = s->sys->knn(probe, kK); }),
            "the first query after set-up failed");
    if (samples) samples->push_back(t.seconds());
  }
  return s;
}

// Open loop: op(due) runs at t0 + i/rate for every slot before `end`,
// however late the previous one finished. Callers time each operation
// from `due`, so a stall also charges the operations queued behind it.
template <class Op>
void open_loop(double rate, Clock::time_point t0, Clock::time_point end,
               std::vector<double>& lag_us, Op&& op) {
#if defined(__linux__)
  // Wake within microseconds of `due` instead of the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  for (std::uint64_t i = 0;; ++i) {
    const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                              1e9 * static_cast<double>(i) / rate));
    if (due >= end) return;
    std::this_thread::sleep_until(due);
    lag_us.push_back(micros(Clock::now() - due));
    op(due);
  }
}

template <class Sys>
void bulk_client(Served<Sys>& s, bool knn, std::span<const Pt> queries,
                 std::size_t& cursor, Clock::time_point end, Load& load) {
  for (std::size_t req = 1; Clock::now() < end; ++req) {
    const auto batch = queries.subspan(cursor, kBulk);
    cursor = (cursor + kBulk) % queries.size();
    const std::size_t pick = req % kBulk;
    const bool sample = req % 37 == 0;
    ++load.ops;
    const auto t0 = Clock::now();
    metrics::TraceSpan span(s.tr, knn ? "bench.bulk_knn" : "bench.bulk_radius",
                            "bench");
    if (knn) {
      std::vector<KnnRow> rows;
      if (!submit(s, kBulk, [&] { rows = s.sys->bulk_knn(batch, kK); })) {
        ++load.failed;
        continue;
      }
      span.end();
      load.knn_us.push_back(micros(Clock::now() - t0));
      load.knn_queries += kBulk;
      if (sample && load.knn_samples.size() < kSamplesPerThread)
        load.knn_samples.push_back({batch[pick], std::move(rows[pick])});
    } else {
      std::vector<RadiusRow> rows;
      if (!submit(s, kBulk,
                  [&] { rows = s.sys->bulk_radius(batch, kRadius); })) {
        ++load.failed;
        continue;
      }
      span.end();
      load.radius_us.push_back(micros(Clock::now() - t0));
      load.radius_queries += kBulk;
      if (sample && load.radius_samples.size() < kSamplesPerThread)
        load.radius_samples.push_back({batch[pick], std::move(rows[pick])});
    }
  }
}

template <class Sys>
void single_client(Served<Sys>& s, std::span<const Pt> queries,
                   std::size_t& cursor, Clock::time_point t0,
                   Clock::time_point end, Load& load) {
  std::size_t sent = 0;
  open_loop(kSingleRate, t0, end, load.lag_us, [&](Clock::time_point due) {
    const Pt q = queries[cursor];
    cursor = (cursor + 1) % queries.size();
    ++load.ops;
    KnnRow row;
    metrics::TraceSpan span(s.tr, "bench.knn", "bench");
    if (!submit(s, 1, [&] { row = s.sys->knn(q, kK, kSingleBudget); })) {
      ++load.failed;
      return;
    }
    span.end();
    load.single_us.push_back(micros(Clock::now() - due));
    if (++sent % 17 == 0 && load.knn_samples.size() < kSamplesPerThread)
      load.knn_samples.push_back({q, std::move(row)});
  });
}

// Inserts or removes one point per slot, then probes the point's
// coordinate with a radius-0 query: an acknowledged update must be
// visible to the very next query.
template <class Sys>
void mutator(Served<Sys>& s, Clock::time_point t0, Clock::time_point end,
             Load& load) {
  LiveSet& live = *s.live;
  Rng& rng = s.mutator_rng;
  open_loop(kUpdateRate, t0, end, load.lag_us, [&](Clock::time_point due) {
    const bool remove = !live.live.empty() && rng.coin(0.5);
    const std::uint32_t id =
        remove ? live.live[rng.below(live.live.size())] : live.next_id();
    const Pt p = remove ? live.by_id[id] : Pt{{rng.uniform(), rng.uniform()}};
    ++load.ops;
    ++s.updates_sent;
    {
      metrics::TraceSpan span(s.tr, remove ? "bench.remove" : "bench.insert",
                              "bench");
      try {
        if (remove) {
          s.sys->remove(id);
        } else {
          s.sys->insert(id, p);
        }
      } catch (const service::QueryError&) {
        ++load.failed;
        ++s.update_errors;
        return;
      }
    }
    load.update_us.push_back(micros(Clock::now() - due));
    if (remove) {
      live.drop(id);
    } else {
      live.add(p);
    }
    ++load.ops;
    RadiusRow row;
    const auto sent = Clock::now();
    metrics::TraceSpan span(s.tr, "bench.radius", "bench");
    if (!submit(s, 1, [&] { row = s.sys->radius(p, 0.0, kSingleBudget); })) {
      ++load.failed;
      return;
    }
    span.end();
    load.single_us.push_back(micros(Clock::now() - sent));
    const bool seen = std::any_of(
        row.begin(), row.end(), [&](const auto& e) { return e.first == id; });
    if (seen == remove) ++load.stale;
  });
}

struct Mix {
  int knn_clients = 0;
  int radius_clients = 0;
  bool singles = false;  // open-loop single knn (knn_serve)
  bool mutator = false;  // open-loop updates + probes (radius_live)
};

template <class Sys>
Window run_window(Served<Sys>& s, const Mix& mix, std::span<const Pt> queries,
                  double seconds) {
  const int bulk = mix.knn_clients + mix.radius_clients;
  const int threads = bulk + (mix.singles || mix.mutator ? 1 : 0);
  for (int c = static_cast<int>(s.cursors.size()); c < threads; ++c)
    s.cursors.push_back((static_cast<std::size_t>(c) * 211 * kBulk) %
                        queries.size());
  std::vector<Load> loads(static_cast<std::size_t>(threads));
  std::mutex err_mu;
  std::exception_ptr err;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int c = 0; c < threads; ++c) {
    workers.emplace_back([&, c] {
      Load& load = loads[static_cast<std::size_t>(c)];
      std::size_t& cursor = s.cursors[static_cast<std::size_t>(c)];
      try {
        if (c < bulk) {
          bulk_client(s, c < mix.knn_clients, queries, cursor, end, load);
        } else if (mix.singles) {
          single_client(s, queries, cursor, t0, end, load);
        } else {
          mutator(s, t0, end, load);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  Window w;
  w.traced = s.tr != nullptr;
  w.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (err) std::rethrow_exception(err);
  for (Load& load : loads) w.load.absorb(std::move(load));
  require(w.load.stale == 0,
          std::to_string(w.load.stale) +
              " acknowledged updates were not visible to the next probe");
  auto keep = [](auto& dst, auto& src) {
    for (auto& x : src)
      if (dst.size() < 4 * kSamplesPerThread) dst.push_back(std::move(x));
    src.clear();
  };
  keep(s.knn_samples, w.load.knn_samples);
  keep(s.radius_samples, w.load.radius_samples);
  return w;
}

// Counters of every broker (one per shard) and the router's own, at one
// instant.
struct StatsPoint {
  std::vector<service::ServiceStatsSnapshot> brokers;
  service::ServiceStatsSnapshot router;
};

template <class Sys>
StatsPoint take_stats(Sys& sys) {
  StatsPoint p;
  if constexpr (std::is_same_v<Sys, Router>) {
    p.router = sys.stats();
    for (std::uint32_t s = 0; s < sys.shard_count(); ++s)
      p.brokers.push_back(sys.shard_stats(s));
  } else {
    p.brokers.push_back(sys.stats());
  }
  return p;
}

// Service counters summed over the measurement windows (of both systems
// in a traced run): deltas of stats().
struct LayerAcc {
  double seconds = 0.0;
  std::size_t submitted = 0, interactive = 0, punted = 0, expired = 0;
  std::size_t rebuilt_under = 0, flushes = 0, compactions = 0;
  std::size_t abandoned = 0, delta_peak = 0;
  std::vector<double> shard_submitted;
  std::size_t router_submitted = 0, fanout = 0, visits = 0;
  metrics::HistogramSnapshot queue_wait, execute, punt, flush_size,
      update_apply, compaction_build;

  void add(const StatsPoint& a, const StatsPoint& b, double secs) {
    seconds += secs;
    shard_submitted.resize(b.brokers.size(), 0.0);
    for (std::size_t s = 0; s < b.brokers.size(); ++s) {
      const service::ServiceStatsSnapshot& x = a.brokers[s];
      const service::ServiceStatsSnapshot& y = b.brokers[s];
      submitted += y.submitted - x.submitted;
      shard_submitted[s] += static_cast<double>(y.submitted - x.submitted);
      interactive += y.class_interactive - x.class_interactive;
      punted += y.punted - x.punted;
      expired += y.expired - x.expired;
      rebuilt_under += y.rebuilt_under - x.rebuilt_under;
      flushes += y.flushes - x.flushes;
      compactions += y.compactions - x.compactions;
      abandoned += y.compactions_abandoned - x.compactions_abandoned;
      delta_peak = std::max(delta_peak, y.delta_peak);
      queue_wait.merge(y.queue_wait.delta_since(x.queue_wait));
      execute.merge(y.batch_execute.delta_since(x.batch_execute));
      punt.merge(y.punt_latency.delta_since(x.punt_latency));
      flush_size.merge(y.flush_size.delta_since(x.flush_size));
      update_apply.merge(y.update_apply.delta_since(x.update_apply));
      compaction_build.merge(
          y.compaction_build.delta_since(x.compaction_build));
    }
    router_submitted += b.router.submitted - a.router.submitted;
    fanout += b.router.fanout_queries - a.router.fanout_queries;
    visits += b.router.shard_visits - a.router.shard_visits;
  }
};

// Replays the workload's own request batches straight into the base index
// of each shard (one for a single broker), and the leaf-scan kernel over
// its blocks: the layer costs under the broker, with no queue in front.
template <class Home>
void replay_index(Metrics& m, par::ThreadPool& pool,
                  const std::vector<const core::SeparatorIndex<2>*>& shards,
                  Home&& home, std::span<const Pt> queries, bool knn,
                  bool radius) {
  constexpr std::size_t kBatches = 64, kSingles = 256, kKernelQueries = 16;
  std::vector<double> batch_knn, batch_radius, single;
  std::size_t hits = 0, radius_queries = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<std::vector<Pt>> parts(shards.size());
    for (const Pt& q : queries.subspan(b * kBulk, kBulk))
      parts[home(q)].push_back(q);
    if (knn) {
      Timer t;
      for (std::size_t s = 0; s < shards.size(); ++s)
        if (!parts[s].empty())
          require(shards[s]->batch_knn(pool, parts[s], kK).size() ==
                      parts[s].size(),
                  "replay: batch_knn row count");
      batch_knn.push_back(t.seconds() * 1e6);
    }
    if (radius) {
      Timer t;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (parts[s].empty()) continue;
        for (const auto& row :
             shards[s]->batch_radius(pool, parts[s], kRadius))
          hits += row.size();
        radius_queries += parts[s].size();
      }
      batch_radius.push_back(t.seconds() * 1e6);
    }
  }
  if (knn) {
    for (const Pt& q : queries.subspan(0, kSingles)) {
      Timer t;
      require(shards[home(q)]->knn(q, kK).size() == kK, "replay: knn row");
      single.push_back(t.seconds() * 1e6);
    }
  }
  m["core.separator_index.batch_knn_us"] = median(batch_knn);
  m["core.separator_index.knn_us"] = median(single);
  m["core.separator_index.batch_radius_us"] = median(batch_radius);
  m["core.separator_index.radius_hits_per_query"] =
      ratio(static_cast<double>(hits), static_cast<double>(radius_queries));
  const Pt& q0 = queries[0];
  kernel_metrics(m,
                 kernel_points_per_s<2>(shards[home(q0)]->blocks(),
                                        queries.subspan(0, kKernelQueries)),
                 2);
}

// Checks the rows sampled during the windows against the oracle over the
// static indexed set.
template <class Sys>
void verify_samples(const Served<Sys>& s, par::ThreadPool& pool,
                    std::span<const Pt> points, const Mix& mix) {
  const Oracle<2> oracle{points, {}};
  require(mix.knn_clients == 0 || !s.knn_samples.empty(),
          "no kNN rows were sampled");
  require(mix.radius_clients == 0 || !s.radius_samples.empty(),
          "no radius rows were sampled");
  const std::size_t bad_knn =
      count_bad(pool, s.knn_samples.size(), [&](std::size_t i) {
        return oracle.knn(s.knn_samples[i].q, kK) != s.knn_samples[i].row;
      });
  const std::size_t bad_radius =
      count_bad(pool, s.radius_samples.size(), [&](std::size_t i) {
        return oracle.radius(s.radius_samples[i].q, kRadius) !=
               s.radius_samples[i].row;
      });
  require(bad_knn == 0, std::to_string(bad_knn) + " of " +
                            std::to_string(s.knn_samples.size()) +
                            " sampled kNN rows differ from brute force");
  require(bad_radius == 0, std::to_string(bad_radius) + " of " +
                               std::to_string(s.radius_samples.size()) +
                               " sampled radius rows differ from brute force");
}

// Attempts must equal what the service accepted plus its typed errors.
template <class Sys>
void check_accounting(Served<Sys>& s) {
  const service::ServiceStatsSnapshot st = s.sys->stats();
  require(st.submitted + s.query_errors.load() == s.queries_sent.load(),
          "queries attempted != stats().submitted + typed errors");
  if (s.live)
    require(st.updates_submitted + s.update_errors == s.updates_sent,
            "updates attempted != stats().updates_submitted + typed errors");
}

// The windows of a serving workload, on one system or, traced, on an
// untraced and a traced one in alternation.
template <class Sys>
struct Serving {
  std::unique_ptr<Served<Sys>> untraced, traced;
  std::vector<Window> windows;
  LayerAcc acc;
  par::ThreadPoolStats pool_before, pool_after;
};

template <class Sys, class Make>
Serving<Sys> serve(const Options& o, par::ThreadPool& pool,
                   metrics::TraceRecorder& rec, const Mix& mix,
                   std::span<const Pt> points, std::span<const Pt> queries,
                   Make&& make, Result& r) {
  Serving<Sys> sv;
  sv.untraced = set_up<Sys>(make, nullptr, queries[0], kSetupReps, &r.setup_s);
  if (o.trace) sv.traced = set_up<Sys>(make, &rec, queries[0], 1, nullptr);
  for (Served<Sys>* s : {sv.untraced.get(), sv.traced.get()}) {
    if (s == nullptr || !mix.mutator) continue;
    s->live.emplace(points);
    s->mutator_rng = Rng(o.seed ^ 0x6d7574617465ULL);
  }
  std::fprintf(stderr, "%s: n=%zu setup %.3f s\n", o.workload.c_str(),
               points.size(), median(r.setup_s));
  // Untimed, but its answers are checked like any other window's.
  for (Served<Sys>* s : {sv.untraced.get(), sv.traced.get()})
    if (s != nullptr) run_window(*s, mix, queries, o.warmup_s());
  const int total = o.trace ? 2 * o.windows() : o.windows();
  sv.pool_before = pool.stats();
  for (int w = 0; w < total; ++w) {
    Served<Sys>& s = o.trace && w % 2 == 1 ? *sv.traced : *sv.untraced;
    const StatsPoint before = take_stats(*s.sys);
    Window win = run_window(s, mix, queries, o.window_s());
    const StatsPoint after = take_stats(*s.sys);
    sv.acc.add(before, after, win.seconds);
    r.attempted += win.load.ops;
    r.failed += win.load.failed;
    std::fprintf(stderr, "  window %d/%d%s: %.0f queries/s\n", w + 1, total,
                 win.traced ? " (traced)" : "", win.qps());
    sv.windows.push_back(std::move(win));
  }
  sv.pool_after = pool.stats();
  return sv;
}

void put_quantiles(Metrics& m, const std::string& prefix,
                   const std::vector<Window>& windows,
                   std::vector<double> Load::*field) {
  std::vector<double> p50, p99;
  for (const Window& w : windows) {
    if (w.traced || (w.load.*field).empty()) continue;
    p50.push_back(quantile(w.load.*field, 0.50));
    p99.push_back(quantile(w.load.*field, 0.99));
  }
  m[prefix + "_p50_us"] = median(p50);
  m[prefix + "_p99_us"] = median(p99);
}

// End-to-end and per-layer metrics common to the serving workloads.
template <class Sys>
void serving_metrics(const Serving<Sys>& sv, Result& r, bool sharded) {
  std::vector<double> qps, p50, p90, traced_qps, knn_qps, radius_qps, lag;
  for (const Window& w : sv.windows) {
    lag.insert(lag.end(), w.load.lag_us.begin(), w.load.lag_us.end());
    const std::vector<double> us = w.request_us();
    const double w50 = quantile(us, 0.50) / 1e3;
    const double w90 = quantile(us, 0.90) / 1e3;
    r.rows << (r.rows.tellp() > 0 ? "," : "") << "{\"traced\":"
           << (w.traced ? 1 : 0) << ",\"seconds\":" << w.seconds
           << ",\"throughput_qps\":" << w.qps()
           << ",\"request_p50_ms\":" << w50
           << ",\"request_p90_ms\":" << w90
           << ",\"request_p99_ms\":" << quantile(us, 0.99) / 1e3
           << ",\"requests\":" << us.size() << ",\"ops\":" << w.load.ops
           << ",\"failed\":" << w.load.failed << "}";
    if (w.traced) {
      traced_qps.push_back(w.qps());
      continue;
    }
    qps.push_back(w.qps());
    p50.push_back(w50);
    p90.push_back(w90);
    knn_qps.push_back(
        ratio(static_cast<double>(w.load.knn_queries), w.seconds));
    radius_qps.push_back(
        ratio(static_cast<double>(w.load.radius_queries), w.seconds));
  }
  r.e2e["throughput_qps"] = median(qps);
  r.e2e["request_p50_ms"] = median(p50);
  r.e2e["request_p90_ms"] = median(p90);
  r.e2e["setup_s"] = median(r.setup_s);

  Metrics& m = r.layer;
  const LayerAcc& a = sv.acc;
  m["bench.knn_qps"] = median(knn_qps);
  m["bench.radius_qps"] = median(radius_qps);
  put_quantiles(m, "bench.knn", sv.windows, &Load::knn_us);
  put_quantiles(m, "bench.radius", sv.windows, &Load::radius_us);
  put_quantiles(m, "bench.single", sv.windows, &Load::single_us);
  put_quantiles(m, "bench.update", sv.windows, &Load::update_us);
  m["bench.generator_lag_p99_us"] = quantile(lag, 0.99);
  m["bench.trace_overhead"] =
      traced_qps.empty() ? 0.0 : median(qps) / median(traced_qps) - 1.0;

  const double request_p50_us = r.e2e["request_p50_ms"] * 1e3;
  const double execute_p50_us = a.execute.p50_us();
  const std::string qb = "service.query_broker.";
  m[qb + "queue_wait_p50_us"] = a.queue_wait.p50_us();
  m[qb + "queue_wait_p99_us"] = a.queue_wait.p99_us();
  m[qb + "execute_p50_us"] = execute_p50_us;
  m[qb + "execute_p99_us"] = a.execute.p99_us();
  m[qb + "flush_size_mean"] = a.flush_size.mean();
  m[qb + "flushes_per_s"] = ratio(static_cast<double>(a.flushes), a.seconds);
  m[qb + "punt_p50_us"] = a.punt.p50_us();
  m[qb + "punt_p99_us"] = a.punt.p99_us();
  m[qb + "punted_share"] = ratio(static_cast<double>(a.punted),
                                 static_cast<double>(a.interactive));
  m[qb + "expired_share"] = ratio(static_cast<double>(a.expired),
                                  static_cast<double>(a.submitted));
  m[qb + "request_overhead_us"] =
      sharded ? 0.0 : request_p50_us - execute_p50_us;
  const SpanTable& t = r.spans;
  auto flushes = t.find("flush");
  m[qb + "flush_self_us"] =
      flushes == t.end()
          ? 0.0
          : ratio(flushes->second.self_s * 1e6,
                  static_cast<double>(flushes->second.count));

  const std::string dt = "service.delta_tier.";
  m[dt + "update_apply_p50_us"] = a.update_apply.p50_us();
  m[dt + "update_apply_p99_us"] = a.update_apply.p99_us();
  m[dt + "compactions"] = static_cast<double>(a.compactions);
  m[dt + "compaction_build_p50_ms"] = a.compaction_build.p50_us() / 1e3;
  m[dt + "compactions_abandoned"] = static_cast<double>(a.abandoned);
  m[dt + "delta_peak"] = static_cast<double>(a.delta_peak);
  m[dt + "rebuilt_under_share"] = ratio(static_cast<double>(a.rebuilt_under),
                                        static_cast<double>(a.submitted));

  const std::string sr = "service.shard_router.";
  double most = 0.0, sum = 0.0;
  for (double v : a.shard_submitted) {
    most = std::max(most, v);
    sum += v;
  }
  const double shards = static_cast<double>(a.shard_submitted.size());
  m[sr + "boundary_fanout"] = ratio(static_cast<double>(a.fanout),
                                    static_cast<double>(a.router_submitted));
  m[sr + "shard_visits_per_query"] =
      ratio(static_cast<double>(a.visits),
            static_cast<double>(a.router_submitted));
  m[sr + "shard_imbalance"] = sharded ? ratio(most, sum / shards) : 0.0;
  m[sr + "shard_execute_p50_us"] = sharded ? execute_p50_us : 0.0;
  m[sr + "request_overhead_us"] =
      sharded ? request_p50_us - execute_p50_us : 0.0;

  pool_metrics(m, sv.pool_before, sv.pool_after, a.seconds,
               static_cast<double>(a.submitted));
  m["core.separator_index.build_s"] = span_mean(t, "index_build");
  // The all-kNN engine is bypassed.
  set_zero(m, {"core.engine.separator_search_s", "core.engine.split_s",
               "core.engine.correction_s", "core.engine.separator_attempts",
               "core.engine.cut_balls", "core.engine.corrected_balls",
               "core.engine.correction_yield", "core.engine.punts",
               "core.engine.march_aborts", "core.engine.model_work",
               "core.engine.model_depth"});
}

Result run_knn_serve(const Options& o) {
  Result r;
  Rng rng(o.seed);
  const std::vector<Pt> pts =
      workload::gaussian_clusters<2>(o.serve_n(), 12, 0.02, rng);
  // Queries are data points with jitter, as in searching a point cloud.
  std::vector<Pt> queries(kQueryPool);
  for (Pt& q : queries) {
    q = pts[rng.below(pts.size())];
    for (int d = 0; d < 2; ++d) q[d] += rng.normal(0.0, 1e-4);
  }
  par::ThreadPool pool(0);
  metrics::TraceRecorder rec;
  const Mix mix{.knn_clients = 2, .singles = true};
  auto make = [&](metrics::TraceRecorder* tr) {
    service::BrokerConfig cfg;
    cfg.trace = tr;
    return std::make_unique<Broker>(std::span<const Pt>(pts), cfg, pool);
  };
  Serving<Broker> sv = serve<Broker>(o, pool, rec, mix, pts, queries, make, r);
  if (o.trace) {
    r.spans = span_table(rec);
    write_trace(o.workload, o.seed, rec);
  }
  for (Served<Broker>* s : {sv.untraced.get(), sv.traced.get()}) {
    if (s == nullptr) continue;
    verify_samples(*s, pool, pts, mix);
    check_accounting(*s);
  }
  serving_metrics(sv, r, false);
  const auto snap = sv.untraced->sys->current_snapshot();
  replay_index(r.layer, pool, {snap->index.get()},
               [](const Pt&) { return 0u; }, queries, true, false);
  no_snapshot_metrics(r.layer);
  return r;
}

Result run_radius_live(const Options& o) {
  Result r;
  Rng rng(o.seed);
  const std::vector<Pt> pts = workload::uniform_cube<2>(o.serve_n(), rng);
  const std::vector<Pt> queries = workload::uniform_cube<2>(kQueryPool, rng);
  const std::vector<Pt> battery = workload::uniform_cube<2>(kBatterySize, rng);
  par::ThreadPool pool(0);
  metrics::TraceRecorder rec;
  const Mix mix{.radius_clients = 2, .mutator = true};
  auto make = [&](metrics::TraceRecorder* tr) {
    service::BrokerConfig cfg;
    cfg.trace = tr;
    return std::make_unique<Broker>(std::span<const Pt>(pts), cfg, pool);
  };
  Serving<Broker> sv = serve<Broker>(o, pool, rec, mix, pts, queries, make, r);

  // At quiescence: a battery against the live set the bench tracked.
  std::vector<KnnRow> live_knn;
  std::vector<RadiusRow> live_radius;
  for (Served<Broker>* s : {sv.untraced.get(), sv.traced.get()}) {
    if (s == nullptr) continue;
    std::vector<KnnRow> k;
    std::vector<RadiusRow> rr;
    require(submit(*s, battery.size(),
                   [&] { k = s->sys->bulk_knn(battery, kK); }) &&
                submit(*s, battery.size(),
                       [&] { rr = s->sys->bulk_radius(battery, kRadius); }),
            "radius_live: the quiescence battery was rejected");
    std::vector<Pt> live_pts;
    std::vector<std::uint32_t> live_ids;
    s->live->flatten(live_pts, live_ids);
    const Oracle<2> oracle{live_pts, live_ids};
    const std::size_t bad =
        count_bad(pool, battery.size(), [&](std::size_t i) {
          return oracle.knn(battery[i], kK) != k[i] ||
                 oracle.radius(battery[i], kRadius) != rr[i];
        });
    require(bad == 0, "radius_live: " + std::to_string(bad) +
                          " battery queries differ from the tracked live set");
    if (s == sv.untraced.get()) {
      live_knn = std::move(k);
      live_radius = std::move(rr);
    }
  }

  // Snapshot save and cold start; the cold broker must answer the
  // battery byte-identically to the live one.
  Served<Broker>& u = *sv.untraced;
  const std::string path =
      "radius_live-seed" + std::to_string(o.seed) + ".snapshot";
  std::vector<double> save_s, load_s, cold_s;
  std::uintmax_t bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer ts;
    require(u.sys->save_snapshot(path), "radius_live: save_snapshot failed");
    save_s.push_back(ts.seconds());
    bytes = std::filesystem::file_size(path);
    Timer tc;
    Broker cold(path, service::BrokerConfig{}, pool);
    load_s.push_back(tc.seconds());
    const KnnRow first = cold.knn(battery[0], kK);
    cold_s.push_back(tc.seconds());
    require(first == live_knn[0] &&
                cold.bulk_knn(battery, kK) == live_knn &&
                cold.bulk_radius(battery, kRadius) == live_radius,
            "radius_live: the cold-started broker answers differently");
  }
  std::filesystem::remove(path);
  for (Served<Broker>* s : {sv.untraced.get(), sv.traced.get()})
    if (s != nullptr) check_accounting(*s);

  if (o.trace) {
    r.spans = span_table(rec);
    write_trace(o.workload, o.seed, rec);
  }
  serving_metrics(sv, r, false);
  const auto snap = u.sys->current_snapshot();
  replay_index(r.layer, pool, {snap->index.get()},
               [](const Pt&) { return 0u; }, queries, false, true);
  Metrics& m = r.layer;
  m["io.snapshot_file.save_s"] = median(save_s);
  m["io.snapshot_file.load_s"] = median(load_s);
  m["io.snapshot_file.snapshot_bytes"] = static_cast<double>(bytes);
  m["io.snapshot_file.bytes_per_point"] =
      ratio(static_cast<double>(bytes),
            static_cast<double>(u.live->live.size()));
  m["bench.cold_start_s"] = median(cold_s);
  return r;
}

Result run_sharded_mixed(const Options& o) {
  Result r;
  Rng rng(o.seed);
  const std::vector<Pt> pts = workload::uniform_cube<2>(o.serve_n(), rng);
  const std::vector<Pt> queries = workload::uniform_cube<2>(kQueryPool, rng);
  par::ThreadPool pool(0);
  metrics::TraceRecorder rec;
  const Mix mix{.knn_clients = 1, .radius_clients = 1};
  auto make = [&](metrics::TraceRecorder* tr) {
    service::ShardRouterConfig cfg;
    cfg.shards = 4;
    cfg.broker.trace = tr;
    return std::make_unique<Router>(std::span<const Pt>(pts), cfg, pool);
  };
  Serving<Router> sv = serve<Router>(o, pool, rec, mix, pts, queries, make, r);
  if (o.trace) {
    r.spans = span_table(rec);
    write_trace(o.workload, o.seed, rec);
  }
  for (Served<Router>* s : {sv.untraced.get(), sv.traced.get()}) {
    if (s == nullptr) continue;
    verify_samples(*s, pool, pts, mix);
    check_accounting(*s);
  }
  serving_metrics(sv, r, true);
  Router& router = *sv.untraced->sys;
  std::vector<Broker::SnapshotPtr> snaps;
  std::vector<const core::SeparatorIndex<2>*> shards;
  for (std::uint32_t s = 0; s < router.shard_count(); ++s) {
    snaps.push_back(router.shard(s).current_snapshot());
    shards.push_back(snaps.back()->index.get());
  }
  replay_index(
      r.layer, pool, shards,
      [&](const Pt& q) { return router.shard_function().shard_of(q); },
      queries, true, true);
  no_snapshot_metrics(r.layer);
  return r;
}

// --------------------------------------------------------------- output

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, value] : m)
    out += (out.size() > 1 ? "," : "") + quoted(name) + ":" + num(value);
  return out + "}";
}

void print_result(const Options& o, const Result& r) {
  const char* commit = std::getenv("SEPDC_BENCH_COMMIT");
  std::ostringstream js;
  js << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"smoke\":" << (o.smoke ? "true" : "false") << ",\"host\":{"
     << "\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"isa\":"
     << quoted(knn::kernels::isa_name(knn::kernels::active_isa()))
     << ",\"compiler\":" << quoted(__VERSION__)
     << ",\"build_type\":" << quoted(SEPDC_BENCH_BUILD_TYPE)
     << ",\"commit\":" << quoted(commit != nullptr ? commit : "unknown")
     << ",\"seed\":" << o.seed << "}"
     << ",\"correct\":true,\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"end_to_end\":" << object(r.e2e)
     << ",\"per_layer\":" << object(r.layer) << ",\"setup_samples_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    js << (i ? "," : "") << num(r.setup_s[i]);
  js << "],\"windows\":[" << r.rows.str() << "],\"spans\":{";
  bool first = true;
  for (const auto& [name, s] : r.spans) {
    js << (first ? "" : ",") << quoted(name) << ":{\"count\":" << s.count
       << ",\"total_s\":" << num(s.total_s) << ",\"self_s\":" << num(s.self_s)
       << "}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("workload", "",
           "allknn_clustered3d | knn_serve | radius_live | sharded_mixed")
      .flag("seed", "1", "input seed")
      .flag("seconds", "30", "measured seconds")
      .flag("trace", "0", "1: per-layer run (alternate untraced/traced)")
      .flag("smoke", "false", "reduced sizes, same code paths and checks");
  if (!cli.parse(argc, argv)) return 0;
  Options o;
  o.workload = cli.get("workload");
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  o.seconds = cli.get_double("seconds");
  o.trace = cli.get_bool("trace");
  o.smoke = cli.get_bool("smoke");
  if (!(o.seconds > 0.0)) {
    std::fprintf(stderr, "sepdc_bench: --seconds must be positive\n");
    return 2;
  }
  try {
    const std::map<std::string, Result (*)(const Options&)> workloads = {
        {"allknn_clustered3d", run_allknn},
        {"knn_serve", run_knn_serve},
        {"radius_live", run_radius_live},
        {"sharded_mixed", run_sharded_mixed}};
    const auto run = workloads.find(o.workload);
    if (run == workloads.end()) {
      std::fprintf(stderr, "sepdc_bench: unknown --workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    Result r = run->second(o);
    r.e2e["peak_rss_mb"] = peak_rss_mb();
    print_result(o, r);
    return 0;
  } catch (const Failure& f) {
    std::fprintf(stderr, "sepdc_bench: %s: check failed: %s\n",
                 o.workload.c_str(), f.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sepdc_bench: %s: error: %s\n", o.workload.c_str(),
                 e.what());
  }
  return 1;
}
