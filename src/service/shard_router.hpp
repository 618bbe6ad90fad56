// Separator-based sharding: scale the service past one broker.
//
// The paper's intersection-number bound O(k^(1/d) n^((d-1)/d)) says a
// sphere separator cuts only a vanishing fraction of the neighborhood
// balls — so the same separators that drive the index recursion make a
// natural *shard function*: cut the point set into S regions down the
// top of a PartitionForest, run one completely independent QueryBroker
// (snapshot store + delta tier + flusher) per region, and fan a query
// out beyond its home shard only when its ball crosses a separator
// surface. Boundary traffic is the measured `boundary_fanout` fraction
// in ServiceStats; everything else runs shared-nothing and scales with
// the shard count (docs/sharding.md).
//
// Result contracts are the single-broker ones, byte for byte: every
// shard answers with exact kernel distances over its disjoint subset of
// the live set, rows arrive sorted by (dist2, external id), and the
// router's k-way merge preserves exactly that order — sharded ==
// single-broker == brute force, including tie order (pinned by
// service_shard_differential_test).
//
// k-NN fan-out is two-phase: the home shard (the leaf shard_of(q) lands
// in) answers first; if its k-th hit bounds a ball that stays inside the
// home region, that row is already the global answer. Otherwise the
// query visits exactly the shards whose region the ball overlaps
// (classify(Ball) counts tangency as Cut, so boundary ties always fan
// out) and the rows merge by (dist2, id). The fan-out ball is inflated
// by ~1e-9 relative before classification so kernel/sqrt rounding can
// only cause extra visits, never a missed point. Radius queries scatter
// to the overlapping shards directly. Inserts route by shard_of(p);
// removes probe ownership (ids are unique across shards because insert
// checks liveness router-wide before routing).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/partition_forest.hpp"
#include "core/separator_index.hpp"
#include "geometry/ball.hpp"
#include "io/snapshot_file.hpp"
#include "parallel/thread_pool.hpp"
#include "service/query_broker.hpp"
#include "support/assert.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sepdc::service {

// The shard function: an immutable cut — the top few nodes of a
// separator forest, repacked in preorder — mapping points to shard ids
// and balls to the set of shards they overlap. Shard ids are the cut's
// leaves numbered in preorder (equivalently: by ascending node id),
// which is also the on-disk convention (io::SectionId::kShardNodes).
template <int D>
class ShardFunction {
 public:
  using Node = core::ForestNode<D>;
  using Point = geo::Point<D>;

  static constexpr std::uint32_t kNoShard = 0xffffffffu;

  // Trivial function: one shard covering everything.
  ShardFunction() {
    nodes_.push_back(Node{});
    leaf_shard_.push_back(0);
    shard_count_ = 1;
  }

  // Cuts `points` into (at most) `shards` regions: build a shallow
  // separator index (leaf_size raised to ~n/(4*shards), so the build
  // costs O(n log S), not a full index build), then greedily split the
  // largest region until the cut has `shards` leaves. May stop short
  // when the shallow forest runs out of internal nodes — shard_count()
  // reports what was achieved.
  static ShardFunction build(std::span<const Point> points,
                             std::uint32_t shards,
                             core::SeparatorIndexConfig index_cfg,
                             par::ThreadPool& pool) {
    ShardFunction fn;
    if (shards <= 1 ||
        points.size() < static_cast<std::size_t>(shards) * 2)
      return fn;  // single leaf
    core::SeparatorIndexConfig cut_cfg = index_cfg;
    cut_cfg.leaf_size = std::max<std::size_t>(
        cut_cfg.leaf_size, points.size() / (4 * shards));
    core::SeparatorIndex<D> shallow(points, cut_cfg, pool);
    const core::PartitionForest<D>& forest = shallow.forest();

    // Greedy balance: always split the largest current region (the
    // streaming-partitioner shape — greedy expansion under a region
    // budget), so no shard can end up holding most of the points while
    // siblings sit empty.
    std::set<std::uint32_t> expanded;
    using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (size, id)
    std::priority_queue<Entry> heap;
    heap.push({forest.node(forest.root_id()).size(), forest.root_id()});
    std::size_t regions = 1;
    while (regions < shards && !heap.empty()) {
      const auto [size, id] = heap.top();
      heap.pop();
      const Node& n = forest.node(id);
      if (n.is_leaf()) continue;  // cannot split; stays a cut leaf
      expanded.insert(id);
      ++regions;
      heap.push({forest.node(n.inner).size(), n.inner});
      heap.push({forest.node(n.outer).size(), n.outer});
    }
    fn.nodes_.clear();
    fn.leaf_shard_.clear();
    fn.shard_count_ = 0;
    fn.pack(forest, forest.root_id(), expanded);
    fn.root_ = 0;
    return fn;
  }

  // Rebuilds the function from its serialized form (io::read_shard_file
  // has already validated bounds, acyclicity, and the checksum).
  static ShardFunction from_nodes(std::vector<Node> nodes,
                                  std::uint32_t root) {
    SEPDC_CHECK_MSG(!nodes.empty() && root < nodes.size(),
                    "shard function: invalid serialized cut");
    ShardFunction fn;
    fn.nodes_ = std::move(nodes);
    fn.root_ = root;
    fn.leaf_shard_.assign(fn.nodes_.size(), kNoShard);
    fn.shard_count_ = 0;
    for (std::size_t i = 0; i < fn.nodes_.size(); ++i)
      if (fn.nodes_[i].is_leaf()) fn.leaf_shard_[i] = fn.shard_count_++;
    SEPDC_CHECK_MSG(fn.shard_count_ >= 1,
                    "shard function: cut has no leaves");
    return fn;
  }

  std::uint32_t shard_count() const { return shard_count_; }
  std::uint32_t root() const { return root_; }
  std::span<const Node> nodes() const { return nodes_; }

  // The shard owning point p: descend by classify(Point) — surface
  // points go Inner, exactly the index build's convention, so the
  // function is total and deterministic.
  std::uint32_t shard_of(const Point& p) const {
    std::uint32_t id = root_;
    while (!nodes_[id].is_leaf())
      id = nodes_[id].separator.classify(p) == geo::Side::Inner
               ? nodes_[id].inner
               : nodes_[id].outer;
    return leaf_shard_[id];
  }

  // Every shard whose region the ball overlaps, each exactly once.
  // classify(Ball) errs toward Cut (tangency and a ~1e-12 relative
  // margin both count as crossing), so a point at exactly the ball
  // surface can never hide behind a separator.
  template <class Fn>
  void for_each_overlapping(const geo::Ball<D>& b, Fn&& fn) const {
    std::vector<std::uint32_t> stack{root_};
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      const Node& n = nodes_[id];
      if (n.is_leaf()) {
        fn(leaf_shard_[id]);
        continue;
      }
      const geo::Region r = n.separator.classify(b);
      if (r != geo::Region::Outer) stack.push_back(n.inner);
      if (r != geo::Region::Inner) stack.push_back(n.outer);
    }
  }

 private:
  std::uint32_t pack(const core::PartitionForest<D>& forest,
                     std::uint32_t src,
                     const std::set<std::uint32_t>& expanded) {
    const std::uint32_t id =
        static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    leaf_shard_.push_back(kNoShard);
    const Node& n = forest.node(src);
    nodes_[id].begin = n.begin;  // informative sizes only
    nodes_[id].end = n.end;
    if (expanded.count(src) != 0) {
      nodes_[id].separator = n.separator;
      const std::uint32_t inner = pack(forest, n.inner, expanded);
      const std::uint32_t outer = pack(forest, n.outer, expanded);
      nodes_[id].inner = inner;
      nodes_[id].outer = outer;
    } else {
      leaf_shard_[id] = shard_count_++;
    }
    return id;
  }

  std::vector<Node> nodes_;               // preorder; children after parent
  std::vector<std::uint32_t> leaf_shard_; // node id -> shard id (leaves)
  std::uint32_t root_ = 0;
  std::uint32_t shard_count_ = 0;
};

// Per-router configuration: the desired shard count plus the broker
// config every shard runs with (each shard gets its own flusher thread,
// snapshot store, and delta tier; they share only the thread pool).
struct ShardRouterConfig {
  std::uint32_t shards = 1;
  BrokerConfig broker;
};

// The thin scatter/gather front-end over S shared-nothing brokers.
// Thread-safe the same way a single broker is: any number of client
// threads may query and mutate concurrently. Router-level ServiceStats
// count accepted work and fan-out (submitted/…/fanout_queries/
// shard_visits; the batching/punting taxonomy lives in the per-shard
// broker stats — a router never batches anything itself). A request
// that any shard sheds fails the whole call with QueryError("overload")
// and counts in the router's shed/shed_* counters, so the caller-side
// invariant attempts == submitted + shed holds at the router too.
template <int D>
class ShardRouter : public QueryEntryPoints<ShardRouter<D>, D> {
 public:
  using Broker = QueryBroker<D>;
  using KnnRow = service::KnnRow;
  using RadiusRow = service::RadiusRow;
  using Point = geo::Point<D>;

  // Builds the shard function over `points` (external ids 0..n-1, the
  // single-broker rebuild convention) and one broker per shard, each
  // seeded with exactly the points its region owns.
  ShardRouter(std::span<const Point> points, const ShardRouterConfig& cfg,
              par::ThreadPool& pool)
      : fn_(ShardFunction<D>::build(points, cfg.shards,
                                    cfg.broker.index, pool)),
        brokers_(make_brokers(fn_, points, cfg, pool)) {}

  // Cold-start from a sharded save: `path` is the manifest written by
  // save_current; shard k loads from path + ".shard<k>". Throws
  // io::SnapshotIoError — and starts nothing — when any file is
  // defective or the files disagree on the cut (a torn mix of two
  // different saves' shards).
  ShardRouter(const std::string& path, const ShardRouterConfig& cfg,
              par::ThreadPool& pool)
      : fn_(load_fn(path)),
        brokers_(load_brokers(path, cfg, pool)) {}

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(brokers_.size());
  }
  const ShardFunction<D>& shard_function() const { return fn_; }
  Broker& shard(std::uint32_t s) { return *brokers_[s]; }

  // ------------------------------------------------------- query API
  // knn()/bulk_knn()/radius()/bulk_radius() (QueryEntryPoints) all land
  // here, a single-query call being a one-query request: one
  // scatter/gather (scatter_gather below) whose per-shard sub-requests
  // carry the request's class, budget and bulk-entry flag, so a shard
  // counts them as it would count the client's own call.
  Reply serve(const Request<D>& req) {
    req.validate();
    Reply out = req.empty_reply();
    if (req.queries.empty()) return out;
    try {
      scatter_gather(req, out);
    } catch (const QueryError& e) {
      // A shard shed the request: nothing was answered, so the router
      // counts it as shed too (attempts == submitted + shed holds here).
      if (e.field() == "overload") account_shed(stats_, req.cls, req.size());
      throw;
    }
    return out;
  }

  // ------------------------------------------------------ update API
  // Same as-of-submission and validation-before-mutation contracts as
  // the broker's. Insert checks liveness router-wide before routing so
  // an external id stays unique across shards; concurrent conflicting
  // updates of the *same id* are the caller's race, exactly as they are
  // on a single broker. Single insert()/remove() are one-element bulk
  // calls.

  void insert(std::uint32_t id, const Point& p) {
    insert_bulk({&id, 1}, {&p, 1});
  }

  void remove(std::uint32_t id) { remove_bulk({&id, 1}); }

  // Bulk mutation: validated all-or-nothing at the router (any bad
  // element rejects the whole batch before any shard mutates), then
  // applied as one sub-batch — one view publication — per shard.
  // Visibility is per shard: a concurrent reader can briefly see shard
  // A's half of the batch before shard B's lands (docs/sharding.md
  // failure modes); when the call returns, everything is visible.
  void insert_bulk(std::span<const std::uint32_t> ids,
                   std::span<const Point> points) {
    SEPDC_CHECK_MSG(ids.size() == points.size(),
                    "router insert_bulk: ids and points must be parallel");
    if (ids.empty()) return;
    std::set<std::uint32_t> batch;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      check_insert(ids[i], points[i]);
      if (contains(ids[i]))
        throw QueryError("id", "insert of an id that is already live");
      if (!batch.insert(ids[i]).second)
        throw QueryError("id", "bulk insert repeats an id");
    }
    std::vector<std::vector<std::uint32_t>> sub_ids(shard_count());
    std::vector<std::vector<Point>> sub_pts(shard_count());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint32_t s = fn_.shard_of(points[i]);
      sub_ids[s].push_back(ids[i]);
      sub_pts[s].push_back(points[i]);
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (!sub_ids[s].empty())
        shard(s).insert_bulk(sub_ids[s], sub_pts[s]);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.inserts, ids.size());
  }

  void remove_bulk(std::span<const std::uint32_t> ids) {
    if (ids.empty()) return;
    std::set<std::uint32_t> batch;
    std::vector<std::vector<std::uint32_t>> sub_ids(shard_count());
    for (std::uint32_t id : ids) {
      const std::uint32_t owner = owner_of(id);
      if (owner == ShardFunction<D>::kNoShard)
        throw QueryError("id", "remove of an id that is not live");
      if (!batch.insert(id).second)
        throw QueryError("id", "bulk remove repeats an id");
      sub_ids[owner].push_back(id);
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (!sub_ids[s].empty()) shard(s).remove_bulk(sub_ids[s]);
    ServiceStats::add(stats_.updates_submitted, ids.size());
    ServiceStats::add(stats_.removes, ids.size());
  }

  bool contains(std::uint32_t id) const {
    for (const auto& b : brokers_)
      if (b->contains(id)) return true;
    return false;
  }

  bool compact() {
    bool any = false;
    for (const auto& b : brokers_) any |= b->compact();
    return any;
  }

  void drain_rebuilds() {
    for (const auto& b : brokers_) b->drain_rebuilds();
  }

  // ----------------------------------------------------- persistence

  // Serializes the shard function plus every shard's current view:
  // path + ".shard<k>" per shard (each an atomic tmp + rename; a
  // base-less shard writes the stub format), then the manifest at
  // `path` — written last, so the manifest rename is the commit point
  // of the save. bootstrap refuses a mix of files whose cut checksums
  // disagree. Concurrent saves serialize on save_mu_.
  bool save_current(const std::string& path) SEPDC_EXCLUDES(save_mu_) {
    LockGuard lock(save_mu_);
    const std::uint64_t seq = ++save_seq_;
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      shard(s).save_shard(shard_path(path, s), fn_.nodes(),
                          shard_count(), s, fn_.root());
    io::save_shard_stub<D>(path, fn_.nodes(), shard_count(),
                           io::kShardManifestId, fn_.root(), seq);
    ServiceStats::add(stats_.snapshot_saves, 1);
    last_saved_seq_.store(seq, std::memory_order_release);
    return true;
  }

  std::uint64_t last_saved_seq() const {
    return last_saved_seq_.load(std::memory_order_acquire);
  }

  static std::string shard_path(const std::string& manifest,
                                std::uint32_t s) {
    return manifest + ".shard" + std::to_string(s);
  }

  // ------------------------------------------------------ observation

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const auto& b : brokers_) n += b->live_count();
    return n;
  }

  // Router-level stats: accepted queries, fan-out, updates, saves.
  ServiceStatsSnapshot stats() const { return stats_.snapshot(); }
  ServiceStatsSnapshot shard_stats(std::uint32_t s) const {
    return brokers_[s]->stats();
  }

  // Rolled-up view: every shard broker's snapshot merged
  // (ServiceStatsSnapshot::merge — counters sum, max_flush_queries and
  // delta_peak take the max, histograms merge bucket-wise; the gauges
  // stay per shard, read them via shard_stats()) with the router's
  // fan-out accounting grafted on top. boundary_fanout is computed
  // against the *router's* submitted count: per-shard submissions
  // intentionally double-count fanned queries (that duplication is
  // exactly the boundary cost the paper bounds).
  ServiceStatsSnapshot aggregated_stats() const {
    ServiceStatsSnapshot agg;
    for (const auto& b : brokers_) agg.merge(b->stats());
    const ServiceStatsSnapshot mine = stats_.snapshot();
    agg.fanout_queries = mine.fanout_queries;
    agg.shard_visits = mine.shard_visits;
    agg.boundary_fanout = mine.boundary_fanout;
    return agg;
  }

 private:
  using BrokerVec = std::vector<std::unique_ptr<Broker>>;
  using Groups = std::vector<std::vector<std::uint32_t>>;  // per shard

  static BrokerVec make_brokers(const ShardFunction<D>& fn,
                                std::span<const Point> points,
                                const ShardRouterConfig& cfg,
                                par::ThreadPool& pool) {
    std::vector<std::vector<std::uint32_t>> ids(fn.shard_count());
    std::vector<std::vector<Point>> pts(fn.shard_count());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint32_t s = fn.shard_of(points[i]);
      ids[s].push_back(static_cast<std::uint32_t>(i));
      pts[s].push_back(points[i]);
    }
    BrokerVec brokers;
    brokers.reserve(fn.shard_count());
    for (std::uint32_t s = 0; s < fn.shard_count(); ++s)
      brokers.push_back(std::make_unique<Broker>(
          std::span<const Point>(pts[s]),
          std::span<const std::uint32_t>(ids[s]), cfg.broker, pool));
    return brokers;
  }

  static ShardFunction<D> load_fn(const std::string& path) {
    io::LoadedShardFile<D> manifest = io::read_shard_file<D>(path);
    if (manifest.shard_id != io::kShardManifestId)
      throw io::SnapshotIoError(
          io::SnapshotError::kBadStructure,
          "not a shard manifest (shard_id != manifest sentinel): " +
              path);
    return ShardFunction<D>::from_nodes(std::move(manifest.nodes),
                                        manifest.root);
  }

  static BrokerVec load_brokers(const std::string& path,
                                const ShardRouterConfig& cfg,
                                par::ThreadPool& pool) {
    io::LoadedShardFile<D> manifest = io::read_shard_file<D>(path);
    BrokerVec brokers;
    brokers.reserve(manifest.shard_count);
    for (std::uint32_t s = 0; s < manifest.shard_count; ++s) {
      const std::string spath = shard_path(path, s);
      io::LoadedShardFile<D> f = io::read_shard_file<D>(spath);
      if (f.shard_count != manifest.shard_count || f.shard_id != s ||
          f.cut_checksum != manifest.cut_checksum)
        throw io::SnapshotIoError(
            io::SnapshotError::kBadStructure,
            "shard file disagrees with the manifest (torn sharded "
            "save?): " + spath);
      if (f.empty_base) {
        // The shard had no built base at save time: its live set is
        // exactly the saved delta, which becomes this broker's base.
        brokers.push_back(std::make_unique<Broker>(
            std::span<const Point>(f.delta.points),
            std::span<const std::uint32_t>(f.delta.ids), cfg.broker,
            pool));
      } else {
        brokers.push_back(
            std::make_unique<Broker>(spath, cfg.broker, pool));
      }
    }
    return brokers;
  }

  // ----------------------------------------------------- fan-out math

  // The ball that must stay inside the home region for the home row to
  // be the global k-NN answer: radius = k-th distance, inflated by a
  // ~1e-9 relative margin so sqrt/kernel rounding can only widen the
  // fan-out (extra shard visits cost latency; a missed visit would cost
  // a row — never trade that direction).
  static double fanout_radius(double kth_dist2) {
    const double r = std::sqrt(kth_dist2);
    return r + 1e-9 * (r + 1.0);
  }

  std::vector<std::uint32_t> knn_fanout_targets(const Point& q,
                                                std::size_t k,
                                                const KnnRow& home_row,
                                                std::uint32_t home) const {
    std::vector<std::uint32_t> targets;
    if (shard_count() == 1) return targets;
    if (home_row.size() < k) {
      // The home shard cannot even fill the row: every other shard may
      // contribute.
      for (std::uint32_t s = 0; s < shard_count(); ++s)
        if (s != home) targets.push_back(s);
      return targets;
    }
    const geo::Ball<D> ball{q, fanout_radius(home_row.back().dist2)};
    fn_.for_each_overlapping(ball, [&](std::uint32_t s) {
      if (s != home) targets.push_back(s);
    });
    return targets;
  }

  // ------------------------------------------------------ scatter/gather

  // Phase 1 sends each query to its home shard (k-NN) or to every shard
  // its ball overlaps (radius); phase 2 sends each k-NN query whose
  // inflated k-th ball crosses a separator to the other shards that
  // ball overlaps. Rows merge under (dist2, id): shards are disjoint, so
  // rows never share an id, the order is strict, and each merged row is
  // bit-identical to the single-broker row.
  void scatter_gather(const Request<D>& req, Reply& out) {
    const std::size_t n = req.size();
    std::size_t visits = 0;
    std::size_t fanned = 0;
    Groups groups(shard_count());
    std::vector<std::uint32_t> home(req.is_knn() ? n : 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (req.is_knn()) {
        home[i] = fn_.shard_of(req.queries[i]);
        groups[home[i]].push_back(i);
        ++visits;
        continue;
      }
      std::size_t targets = 0;
      fn_.for_each_overlapping(geo::Ball<D>{req.queries[i], req.radius},
                               [&](std::uint32_t s) {
                                 groups[s].push_back(i);
                                 ++targets;
                               });
      visits += targets;
      if (targets > 1) ++fanned;
    }
    scatter_to(req, groups, out);

    if (!req.is_knn()) {
      for (RadiusRow& row : out.radius) sort_radius_row(row);
    } else {
      // Phase 2: the home row is the answer unless its k-th ball
      // crosses a separator.
      for (std::vector<std::uint32_t>& g : groups) g.clear();
      std::vector<std::uint32_t> crossed;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::vector<std::uint32_t> targets = knn_fanout_targets(
            req.queries[i], req.k, out.knn[i], home[i]);
        if (targets.empty()) continue;
        crossed.push_back(i);
        visits += targets.size();
        for (std::uint32_t t : targets) groups[t].push_back(i);
      }
      scatter_to(req, groups, out);
      for (std::uint32_t i : crossed) {
        KnnRow& row = out.knn[i];
        std::sort(row.begin(), row.end());
        if (row.size() > req.k) row.resize(req.k);
      }
      fanned = crossed.size();
    }

    account_submitted(stats_, req);
    ServiceStats::add(
        req.is_knn() ? stats_.knn_answered : stats_.radius_answered, n);
    ServiceStats::add(stats_.shard_visits, visits);
    ServiceStats::add(stats_.fanout_queries, fanned);
  }

  // Sends each shard its group of the request's queries as one
  // sub-request (the groups in flight concurrently) and appends every
  // returned row to its query's row in `out`.
  void scatter_to(const Request<D>& req, const Groups& groups,
                  Reply& out) {
    std::vector<std::uint32_t> active;
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (!groups[s].empty()) active.push_back(s);
    std::vector<Reply> replies(active.size());
    scatter(active.size(), [&](std::size_t a) {
      const std::vector<std::uint32_t>& group = groups[active[a]];
      std::vector<Point> queries;
      std::vector<std::uint32_t> exclude;
      queries.reserve(group.size());
      for (std::uint32_t i : group) {
        queries.push_back(req.queries[i]);
        if (!req.exclude.empty()) exclude.push_back(req.exclude[i]);
      }
      Request<D> sub = req;
      sub.queries = queries;
      sub.exclude = exclude;
      replies[a] = shard(active[a]).serve(sub);
    });
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::vector<std::uint32_t>& group = groups[active[a]];
      for (std::size_t j = 0; j < group.size(); ++j) {
        if (req.is_knn()) {
          append_row(out.knn[group[j]], replies[a].knn[j]);
        } else {
          append_row(out.radius[group[j]], replies[a].radius[j]);
        }
      }
    }
  }

  template <class Row>
  static void append_row(Row& dst, Row& src) {
    if (dst.empty()) dst = std::move(src);
    else dst.insert(dst.end(), src.begin(), src.end());
  }

  std::uint32_t owner_of(std::uint32_t id) const {
    for (std::uint32_t s = 0; s < shard_count(); ++s)
      if (brokers_[s]->contains(id)) return s;
    return ShardFunction<D>::kNoShard;
  }

  // Runs n independent sub-tasks, the first on the calling thread and
  // the rest on dedicated joiner threads. NOT on the shared pool: a
  // scattered sub-request parks inside the target broker until its
  // flusher answers, and a parked task in the pool queue can be stolen
  // by a helping wait — including a flusher helping inside a batch
  // kernel, which then blocks on a flush only it can perform (observed
  // as a hard deadlock on a single-core host, where every scatter task
  // waits for a helper). Every task runs to completion before return;
  // the first error — typically a shard's QueryError — is rethrown
  // after the join.
  template <class Fn>
  void scatter(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (n == 1) {
      fn(std::size_t{0});
      return;
    }
    Mutex err_mu;
    std::exception_ptr err SEPDC_GUARDED_BY(err_mu);
    auto run_one = [&fn, &err_mu, &err](std::size_t i) {
      try {
        fn(i);
      } catch (...) {
        LockGuard lock(err_mu);
        if (!err) err = std::current_exception();
      }
    };
    std::vector<std::thread> joiners;
    joiners.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i)
      joiners.emplace_back(run_one, i);
    run_one(std::size_t{0});
    for (std::thread& t : joiners) t.join();
    LockGuard lock(err_mu);
    if (err) std::rethrow_exception(err);
  }

  const ShardFunction<D> fn_;
  const BrokerVec brokers_;
  // Router-level accounting (ServiceStats is self-synchronizing:
  // relaxed atomics, exact after quiescence).
  ServiceStats stats_;

  // Lock protocol: save_mu_ serializes whole sharded saves (per-shard
  // writes are individually atomic; the manifest written last under the
  // lock is the save's commit point) and guards the save sequence
  // number. last_saved_seq_ mirrors it for lock-free observation
  // (store-release after the manifest rename, load-acquire by readers).
  Mutex save_mu_;
  std::uint64_t save_seq_ SEPDC_GUARDED_BY(save_mu_) = 0;
  std::atomic<std::uint64_t> last_saved_seq_{0};
};

}  // namespace sepdc::service
