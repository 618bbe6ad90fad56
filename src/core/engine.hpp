// Separator-based parallel divide and conquer for the k-neighborhood
// system / k-nearest-neighbor graph (§5 and §6 of the paper).
//
// One engine implements both algorithms:
//   Parallel Nearest Neighborhood (§6): sphere-separator partition,
//     parallel recursion, then correction of the balls the separator cuts
//     — fast correction by marching cut balls down the other side's
//     partition tree (Lemma 6.3), punting to the §3 query structure when
//     there are too many cut balls or the march frontier explodes (§4).
//   Simple Parallel Divide-and-Conquer (§5): hyperplane median partition
//     with corrections always routed through the query structure.
//
// The engine runs on a real thread pool and simultaneously accounts model
// cost (work/depth) in the parallel vector model; the measured depth is
// the quantity Lemma 5.1 / Theorem 6.1 bound.
//
// Execution substrate: the recursion records its partition tree in an
// arena-backed PartitionForest (one contiguous node vector, atomic bump
// allocation — see partition_forest.hpp) and reports through a shared
// RunContext (relaxed-atomic counters, per-node random streams keyed by
// recursion path — see run_context.hpp). Node random streams depend only
// on (seed, path), so same-seed runs are identical regardless of the
// thread schedule or pool size.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/diagnostics.hpp"
#include "core/partition_forest.hpp"
#include "core/query_tree.hpp"
#include "core/run_context.hpp"
#include "core/separator_search.hpp"
#include "geometry/constants.hpp"
#include "geometry/point.hpp"
#include "geometry/separator_shape.hpp"
#include "knn/block_store.hpp"
#include "knn/kernels.hpp"
#include "knn/result.hpp"
#include "knn/topk.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "pvm/machine.hpp"
#include "separator/hyperplane.hpp"
#include "separator/mttv.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace sepdc::core {

template <int D>
class NearestNeighborEngine {
 public:
  struct Output {
    knn::KnnResult knn;  // rows indexed by original point id
    pvm::Cost cost;      // parallel-vector-model cost of the whole run
    Diagnostics diag;
    PartitionForest<D> forest;  // the §6 partition tree, flat
    RunReport report;
  };

  static Output run(std::span<const geo::Point<D>> points, const Config& cfg,
                    par::ThreadPool& pool) {
    cfg.validate();
    SEPDC_CHECK_MSG(!points.empty(), "empty input");
    NearestNeighborEngine engine(points, cfg, pool);
    return engine.execute();
  }

 private:
  NearestNeighborEngine(std::span<const geo::Point<D>> points,
                        const Config& cfg, par::ThreadPool& pool)
      : points_(points),
        cfg_(cfg),
        pool_(pool),
        n_(points.size()),
        result_(knn::KnnResult::empty(points.size(), cfg.k)),
        perm_(points.size()),
        forest_(PartitionForest<D>::for_points(points.size())),
        leaf_blocks_(2 * points.size()),
        ctx_(cfg.seed, cfg.trace) {
    for (std::size_t i = 0; i < n_; ++i)
      perm_[i] = static_cast<std::uint32_t>(i);
    base_size_ = std::max({cfg_.base_case_floor,
                           cfg_.base_case_k_factor * (cfg_.k + 1),
                           static_cast<std::size_t>(pvm::ceil_log2(n_))});
  }

  // Spawn pool tasks only for large subproblems: small ones run inline.
  // This keeps the task count O(n / grain), which bounds the depth of
  // helping-wait chains (a waiting thread executes other queued tasks,
  // so thousands of tiny tasks could otherwise nest on one stack). The
  // model cost is charged as parallel either way — the recursion is
  // logically parallel; inlining is an execution-engine choice. solve(),
  // correct() and fast_correct()'s leaf scans all spawn at this grain.
  static constexpr std::size_t kSpawnGrain = 8192;

  // One strand's result: its forest slot and its subtree's model cost.
  // Diagnostics no longer ride the recursion — they go to ctx_ directly.
  struct SolveResult {
    std::uint32_t node = kNoChild;
    pvm::Cost cost;
  };

  Output execute() {
    SolveResult root =
        solve(0, static_cast<std::uint32_t>(n_), RunContext::root_key(), 0);
    forest_.set_root(root.node);
    forest_.finalize();

    Diagnostics diag = ctx_.snapshot();
    diag.tree_height = forest_.height();

    RunReport report;
    report.seed = cfg_.seed;
    report.cost = root.cost;
    report.diag = diag;
    report.forest_nodes = forest_.node_count();
    report.forest_leaves = diag.leaves;
    report.forest_height = diag.tree_height;
    report.threads = pool_.concurrency();

    return Output{std::move(result_), root.cost, std::move(diag),
                  std::move(forest_), std::move(report)};
  }

  // ---------------------------------------------------------------- solve

  SolveResult solve(std::uint32_t begin, std::uint32_t end,
                    std::uint64_t key, std::size_t depth) {
    const std::size_t m = end - begin;
    if (m <= base_size_) return solve_base(begin, end);

    Rng rng = ctx_.stream(key);
    pvm::Ledger ledger;

    // Trace only the nodes big enough to spawn: the same grain that
    // bounds the task count bounds the span count, so a trace stays a
    // few hundred readable events instead of one per recursion node.
    metrics::TraceRecorder* tr = m >= kSpawnGrain ? ctx_.trace() : nullptr;

    metrics::TraceSpan sep_span(tr, "separator_search", "engine");
    auto shape = choose_separator(begin, end, rng, depth, ledger);
    sep_span.end();
    if (!shape) {
      // Unsplittable node (e.g. all points identical): solve directly.
      SolveResult base = solve_base(begin, end);
      RunContext::add(ctx_.brute_force_fallbacks, 1);
      base.cost += ledger.total();
      return base;
    }
    RunContext::add(ctx_.nodes, 1);

    metrics::TraceSpan split_span(tr, "split", "engine");
    std::uint32_t mid = partition_range(begin, end, *shape);
    split_span.end();
    ledger.charge(pvm::pack_cost(m, cfg_.cost));
    SEPDC_ASSERT(mid > begin && mid < end);

    std::uint32_t id = forest_.allocate();

    SolveResult inner, outer;
    const std::uint64_t inner_key = RunContext::child_key(key, 0);
    const std::uint64_t outer_key = RunContext::child_key(key, 1);
    if (m >= kSpawnGrain) {
      par::parallel_invoke(
          pool_,
          [&] { inner = solve(begin, mid, inner_key, depth + 1); },
          [&] { outer = solve(mid, end, outer_key, depth + 1); });
    } else {
      inner = solve(begin, mid, inner_key, depth + 1);
      outer = solve(mid, end, outer_key, depth + 1);
    }
    ledger.charge_parallel(inner.cost, outer.cost);

    Rng correction_rng = rng.split();
    metrics::TraceSpan corr_span(tr, "correction", "engine");
    correct(begin, mid, end, *shape, inner.node, outer.node, correction_rng,
            depth, ledger);
    corr_span.end();

    ForestNode<D>& node = forest_.node(id);
    node.begin = begin;
    node.end = end;
    node.separator = *shape;
    node.inner = inner.node;
    node.outer = outer.node;
    return SolveResult{id, ledger.total()};
  }

  // ------------------------------------------------------------ base case

  SolveResult solve_base(std::uint32_t begin, std::uint32_t end) {
    const std::size_t m = end - begin;
    const std::size_t k = cfg_.k;
    RunContext::add(ctx_.nodes, 1);
    RunContext::add(ctx_.leaves, 1);
    pvm::Cost cost;

    std::uint32_t id = forest_.allocate();
    ForestNode<D>& node = forest_.node(id);
    node.begin = begin;
    node.end = end;

    auto box = geo::Aabb<D>::empty();
    for (std::uint32_t i = begin; i < end; ++i)
      box.expand(points_[perm_[i]]);

    // Pack this leaf's payload as SoA blocks, in leaf-local Morton order,
    // for the all-pairs scan below and the Fast-Correction merge scans.
    // perm_ keeps its order: it sets the order of the cut balls, which
    // the punt path's query-tree build depends on. Safe without
    // synchronization: the slot is indexed by the freshly allocated
    // forest id (unique to this task), and a correction only marches a
    // subtree after parallel_invoke joined the task that built it — by
    // which point perm_[begin, end) is final.
    const std::vector<std::uint32_t> order = morton_order(begin, end, box);
    auto blocks = std::make_unique<knn::PointBlockStore<D>>();
    blocks->append_range(
        m,
        [&](std::size_t j) -> const geo::Point<D>& {
          return points_[perm_[begin + order[j]]];
        },
        [&](std::size_t j) { return perm_[begin + order[j]]; });
    const knn::PointBlockStore<D>& leaf = *blocks;
    leaf_blocks_[id] = std::move(blocks);

    if (box.extent() == 0.0 && m > 1) {
      // All points in the range are identical: everyone's k nearest are
      // the k smallest other ids (distance 0, ties broken by id to match
      // the brute-force oracle exactly).
      std::vector<std::uint32_t> ids(perm_.begin() + begin,
                                     perm_.begin() + end);
      std::sort(ids.begin(), ids.end());
      const std::size_t take = std::min(k, m - 1);
      for (std::uint32_t i = begin; i < end; ++i) {
        std::uint32_t self = perm_[i];
        auto nbr = result_.row_neighbors(self);
        auto d2 = result_.row_dist2(self);
        std::size_t written = 0;
        for (std::uint32_t other : ids) {
          if (other == self) continue;
          nbr[written] = other;
          d2[written] = 0.0;
          if (++written == take) break;
        }
      }
      cost += pvm::Cost{static_cast<std::uint64_t>(m * k), 1};
      return SolveResult{id, cost};
    }

    // All-pairs base case ("m time using m processors"): depth m, work m².
    // One kernel call gives a point its distances to the whole leaf; the
    // blocks are offered nearest-first (its own block, then outward in
    // Morton order), so the k-th bound tightens after a block or two and
    // offer_block's pre-check rejects the rest. TopK keeps the k smallest
    // (dist2, id) entries whatever the offer order, and the kernel is
    // bit-identical to geo::distance2, so rows match the plain j-loop.
    constexpr std::size_t kWidth = knn::PointBlockStore<D>::kWidth;
    const std::size_t nb = leaf.block_count();
    std::vector<double> dist2s(nb * kWidth);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t self = perm_[begin + order[j]];
      knn::kernels::dist2_blocks(leaf.block_coords(0), nb, D,
                                 points_[self].coords.data(),
                                 dist2s.data());
      knn::TopK best(k);
      auto offer = [&](std::size_t b) {
        best.offer_block(dist2s.data() + b * kWidth, leaf.block_ids(b),
                         leaf.block_lanes(b), self);
      };
      const std::size_t home = j / kWidth;
      offer(home);
      for (std::size_t lo = home, hi = home + 1; lo > 0 || hi < nb;) {
        if (hi < nb) offer(hi++);
        if (lo > 0) offer(--lo);
      }
      write_row(self, best);
    }
    cost += pvm::Cost{static_cast<std::uint64_t>(m) * m,
                      static_cast<std::uint64_t>(m)};
    return SolveResult{id, cost};
  }

  // Positions 0..m-1 of perm_[begin, end) sorted by a leaf-local Morton
  // key: each axis quantized to kBits bits over the leaf's bounding box
  // (clamped to [0, 2^kBits - 1]; a flat axis quantizes to 0), bits
  // interleaved, ties broken by position.
  std::vector<std::uint32_t> morton_order(std::uint32_t begin,
                                          std::uint32_t end,
                                          const geo::Aabb<D>& box) const {
    constexpr int kBits = std::min(10, 64 / D);  // 10 bits up to D = 6
    constexpr double kCells = static_cast<double>(1u << kBits);
    constexpr std::uint32_t kMax = (1u << kBits) - 1;
    double scale[D];
    for (int d = 0; d < D; ++d) {
      const double ext = box.hi[d] - box.lo[d];
      scale[d] = ext > 0.0 ? kCells / ext : 0.0;
    }
    const std::uint32_t m = end - begin;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(m);
    for (std::uint32_t j = 0; j < m; ++j) {
      const geo::Point<D>& p = points_[perm_[begin + j]];
      std::uint64_t key = 0;
      for (int d = 0; d < D; ++d) {
        const double t = (p[d] - box.lo[d]) * scale[d];
        const std::uint64_t cell =
            t >= kMax ? kMax : t > 0.0 ? static_cast<std::uint32_t>(t) : 0;
        for (int bit = 0; bit < kBits; ++bit)
          key |= ((cell >> bit) & 1u) << (bit * D + d);
      }
      keyed[j] = {key, j};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::uint32_t> order(m);
    for (std::uint32_t j = 0; j < m; ++j) order[j] = keyed[j].second;
    return order;
  }

  void write_row(std::uint32_t id, knn::TopK& best) {
    auto sorted = best.take_sorted();
    auto nbr = result_.row_neighbors(id);
    auto d2 = result_.row_dist2(id);
    std::size_t s = 0;
    for (; s < sorted.size(); ++s) {
      nbr[s] = sorted[s].index;
      d2[s] = sorted[s].dist2;
    }
    for (; s < cfg_.k; ++s) {
      nbr[s] = knn::KnnResult::kInvalid;
      d2[s] = std::numeric_limits<double>::infinity();
    }
  }

  // ------------------------------------------------------- separator step

  std::optional<geo::SeparatorShape<D>> choose_separator(
      std::uint32_t begin, std::uint32_t end, Rng& rng, std::size_t depth,
      pvm::Ledger& ledger) {
    const std::size_t m = end - begin;
    auto at = [&](std::size_t i) {
      return points_[perm_[begin + i]];
    };
    auto outcome = find_point_separator<D>(
        m, at, cfg_.partition, geo::splitting_ratio(D) + cfg_.delta_slack,
        cfg_.max_separator_attempts, static_cast<int>(depth % D), rng,
        cfg_.cost);
    ledger.charge(outcome.cost);
    RunContext::add(ctx_.separator_attempts, outcome.attempts);
    RunContext::bump_max(ctx_.max_attempts_at_node, outcome.attempts);
    if (outcome.fallback) RunContext::add(ctx_.separator_fallbacks, 1);
    return outcome.shape;
  }

  std::uint32_t partition_range(std::uint32_t begin, std::uint32_t end,
                                const geo::SeparatorShape<D>& shape) {
    std::vector<std::uint32_t> inner_ids, outer_ids;
    inner_ids.reserve(end - begin);
    outer_ids.reserve(end - begin);
    for (std::uint32_t i = begin; i < end; ++i) {
      std::uint32_t id = perm_[i];
      if (shape.classify(points_[id]) == geo::Side::Inner)
        inner_ids.push_back(id);
      else
        outer_ids.push_back(id);
    }
    std::copy(inner_ids.begin(), inner_ids.end(), perm_.begin() + begin);
    std::copy(outer_ids.begin(), outer_ids.end(),
              perm_.begin() + begin + inner_ids.size());
    return begin + static_cast<std::uint32_t>(inner_ids.size());
  }

  // ---------------------------------------------------------- correction

  geo::Ball<D> ball_of(std::uint32_t id) const {
    return geo::Ball<D>{points_[id], std::sqrt(result_.radius2(id))};
  }

  void correct(std::uint32_t begin, std::uint32_t mid, std::uint32_t end,
               const geo::SeparatorShape<D>& shape, std::uint32_t inner_tree,
               std::uint32_t outer_tree, Rng& rng, std::size_t depth,
               pvm::Ledger& ledger) {
    const std::size_t m = end - begin;

    // Cut balls per side (Lemma 6.1: only these can be wrong).
    std::vector<std::uint32_t> cut_inner, cut_outer;
    for (std::uint32_t i = begin; i < mid; ++i) {
      std::uint32_t id = perm_[i];
      if (shape.classify(ball_of(id)) == geo::Region::Cut)
        cut_inner.push_back(id);
    }
    for (std::uint32_t i = mid; i < end; ++i) {
      std::uint32_t id = perm_[i];
      if (shape.classify(ball_of(id)) == geo::Region::Cut)
        cut_outer.push_back(id);
    }
    ledger.charge(pvm::map_cost(m));
    ledger.charge(pvm::pack_cost(m, cfg_.cost));

    const std::size_t iota = cut_inner.size() + cut_outer.size();
    ctx_.record_level(depth, m, iota);
    RunContext::add(ctx_.total_cut_balls, iota);
    RunContext::bump_max(ctx_.max_cut_balls, iota);
    RunContext::bump_max(ctx_.max_cut_fraction,
                         static_cast<double>(iota) /
                             static_cast<double>(m));
    if (iota == 0) return;

    // Theorem 2.1 bounds the expected cut count by O(k^(1/d) m^((d-1)/d));
    // a punt should signal *bad luck*, not ordinary k growth, so the
    // threshold carries the k^(1/d) factor.
    const double mu =
        geo::separator_exponent(D) + cfg_.mu_slack;
    const double punt_threshold =
        cfg_.punt_iota_scale *
        std::pow(static_cast<double>(cfg_.k), 1.0 / D) *
        std::pow(static_cast<double>(m), mu);
    const bool force_punt =
        cfg_.correction == CorrectionPolicy::AlwaysPunt ||
        (cfg_.correction == CorrectionPolicy::Hybrid &&
         static_cast<double>(iota) >= punt_threshold);
    const std::size_t march_budget =
        cfg_.correction == CorrectionPolicy::FastOnly
            ? std::numeric_limits<std::size_t>::max()
            : static_cast<std::size_t>(cfg_.march_budget_factor *
                                       static_cast<double>(m)) +
                  1;

    // The two sides touch disjoint rows; run them in parallel and charge
    // their model costs as parallel strands. Diagnostics go straight to
    // the shared context (relaxed atomics), so nothing needs merging.
    // As in solve(): spawn only when the node is large enough to be worth
    // a task (and to keep helping-wait chains shallow).
    const bool spawn = m >= kSpawnGrain;
    pvm::Cost cost_a, cost_b;
    Rng rng_a = rng.split();
    Rng rng_b = rng.split();
    auto side_a = [&] {
      cost_a = correct_side(cut_inner, outer_tree, mid, end, force_punt,
                            march_budget, spawn, rng_a);
    };
    auto side_b = [&] {
      cost_b = correct_side(cut_outer, inner_tree, begin, mid, force_punt,
                            march_budget, spawn, rng_b);
    };
    if (spawn) {
      par::parallel_invoke(pool_, side_a, side_b);
    } else {
      side_a();
      side_b();
    }
    ledger.charge_parallel(cost_a, cost_b);
  }

  // Corrects the cut balls of one side against the opposite side's points
  // [tb, te) using its partition subtree. `spawn` says whether this node
  // is at or above the spawn grain. Returns the model cost.
  pvm::Cost correct_side(const std::vector<std::uint32_t>& cut_ids,
                         std::uint32_t target_tree, std::uint32_t tb,
                         std::uint32_t te, bool force_punt,
                         std::size_t march_budget, bool spawn, Rng& rng) {
    pvm::Ledger ledger;
    if (cut_ids.empty()) return ledger.total();
    if (!force_punt) {
      if (fast_correct(cut_ids, target_tree, te - tb, march_budget, spawn,
                       ledger)) {
        RunContext::add(ctx_.fast_corrections, 1);
        return ledger.total();
      }
      RunContext::add(ctx_.march_aborts, 1);
    }
    RunContext::add(ctx_.punts, 1);
    punt_correct(cut_ids, tb, te, rng, ledger);
    return ledger.total();
  }

  // §6.2 Fast Correction: march the cut balls down the opposite partition
  // subtree to their reachable leaves, then rebuild each ball's k-NN row
  // from its own-side row plus the leaf candidates. The march is
  // level-synchronous over the flat forest: the frontier is a plain
  // vector of (ball, node-id) pairs. Returns false (leaving rows
  // untouched) if the frontier exceeds the budget at any level.
  bool fast_correct(const std::vector<std::uint32_t>& cut_ids,
                    std::uint32_t target_tree, std::size_t target_size,
                    std::size_t march_budget, bool spawn,
                    pvm::Ledger& ledger) {
    struct Active {
      std::uint32_t ball;  // index into cut_ids
      std::uint32_t node;  // forest slot
    };
    std::vector<geo::Ball<D>> balls(cut_ids.size());
    std::vector<double> radius2(cut_ids.size());
    for (std::size_t i = 0; i < cut_ids.size(); ++i) {
      balls[i] = ball_of(cut_ids[i]);
      radius2[i] = result_.radius2(cut_ids[i]);
    }
    ledger.charge(pvm::map_cost(cut_ids.size()));

    std::vector<std::vector<std::uint32_t>> leaves(cut_ids.size());
    std::vector<Active> frontier;
    frontier.reserve(cut_ids.size() * 2);
    for (std::size_t i = 0; i < cut_ids.size(); ++i)
      frontier.push_back({static_cast<std::uint32_t>(i), target_tree});

    std::size_t peak = frontier.size();
    std::uint64_t march_work = 0;
    std::vector<Active> next;
    while (!frontier.empty()) {
      peak = std::max(peak, frontier.size());
      if (frontier.size() > march_budget) return false;
      next.clear();
      for (const Active& a : frontier) {
        const ForestNode<D>& node = forest_.node(a.node);
        if (node.is_leaf()) {
          leaves[a.ball].push_back(a.node);
          continue;
        }
        geo::Region region = node.separator.classify(balls[a.ball]);
        if (region != geo::Region::Outer)
          next.push_back({a.ball, node.inner});
        if (region != geo::Region::Inner)
          next.push_back({a.ball, node.outer});
      }
      march_work += frontier.size();
      if (cfg_.fast_charging == FastCorrectionCharging::LevelSync) {
        ledger.charge(pvm::map_cost(frontier.size()));
        ledger.charge(pvm::scan_cost(frontier.size(), cfg_.cost));
      }
      frontier.swap(next);
    }
    // Lemma 6.2 diagnostic: only meaningful at nodes large enough for the
    // asymptotics to speak (tiny nodes trivially reach O(m) pairs).
    if (target_size >= 256) {
      RunContext::bump_max(ctx_.max_march_fraction,
                           static_cast<double>(peak) /
                               static_cast<double>(target_size));
    }

    // Leaf scans + row merges (rows are disjoint: parallel over balls,
    // inline below the spawn grain). Every lane of every reached leaf is
    // scanned: the Paper charging below counts scanned lanes.
    std::atomic<std::uint64_t> scan_work{0};
    std::atomic<std::uint64_t> changed{0};
    auto merge_ball = [&](std::size_t b) {
      std::uint32_t self = cut_ids[b];
      knn::TopK merged(cfg_.k);
      seed_from_row(self, merged);
      std::uint64_t scans = 0;
      for (std::uint32_t leaf_id : leaves[b]) {
        // Blockwise closed-ball merge over the leaf's SoA payload (packed
        // in solve_base): one kernel call per block chunk instead of one
        // geo::distance2 per point.
        const knn::PointBlockStore<D>& lb = *leaf_blocks_[leaf_id];
        lb.scan(lb.all(), points_[self],
                [&](const double* dist2s, const std::uint32_t* ids,
                    std::size_t lanes) {
                  scans += lanes;
                  knn::kernels::filter_closed_ball(
                      dist2s, ids, lanes, radius2[b],
                      [&](std::uint32_t other, double d2) {
                        merged.offer(d2, other);
                      });
                });
      }
      scan_work.fetch_add(scans, std::memory_order_relaxed);
      if (rewrite_row(self, merged))
        changed.fetch_add(1, std::memory_order_relaxed);
    };
    if (spawn) {
      par::parallel_for(pool_, 0, cut_ids.size(), merge_ball,
                        /*grain=*/16);
    } else {
      for (std::size_t b = 0; b < cut_ids.size(); ++b) merge_ball(b);
    }
    RunContext::add(ctx_.corrected_balls,
                    changed.load(std::memory_order_relaxed));

    if (cfg_.fast_charging == FastCorrectionCharging::Paper) {
      // Lemma 6.3 accounting: all reachability labels in one elementwise
      // step, root-path ANDs via one SCAN, candidate gather + k-selection
      // in a constant number of steps.
      const std::uint64_t scanned = scan_work.load(std::memory_order_relaxed);
      ledger.charge(pvm::Cost{march_work, 1});
      ledger.charge(pvm::scan_cost(march_work, cfg_.cost));
      ledger.charge(pvm::Cost{scanned, 1});
      ledger.charge(pvm::reduce_cost(scanned, cfg_.cost));
    } else {
      const std::uint64_t scanned = scan_work.load(std::memory_order_relaxed);
      ledger.charge(pvm::Cost{scanned, 1});
      ledger.charge(pvm::reduce_cost(scanned, cfg_.cost));
    }
    return true;
  }

  // Punt correction: build the §3 query structure over the cut balls and
  // batch-query the opposite side's points through it.
  void punt_correct(const std::vector<std::uint32_t>& cut_ids,
                    std::uint32_t tb, std::uint32_t te, Rng& rng,
                    pvm::Ledger& ledger) {
    std::vector<geo::Ball<D>> balls(cut_ids.size());
    for (std::size_t i = 0; i < cut_ids.size(); ++i)
      balls[i] = ball_of(cut_ids[i]);
    ledger.charge(pvm::map_cost(cut_ids.size()));

    typename NeighborhoodQueryTree<D>::Params params;
    params.leaf_size = cfg_.query_leaf_size;
    params.delta_limit = geo::splitting_ratio(D) + cfg_.delta_slack;
    params.mu = geo::separator_exponent(D) + cfg_.mu_slack;
    params.iota_scale = cfg_.query_iota_scale;
    params.iota_fraction = cfg_.query_iota_fraction;
    params.max_attempts = cfg_.max_separator_attempts;
    params.cost = cfg_.cost;

    // Punts are rare by design, so every query-tree build is traced.
    metrics::TraceSpan build_span(ctx_.trace(), "query_tree_build",
                                  "engine");
    NeighborhoodQueryTree<D> qt(std::move(balls), params, rng.split(),
                                pool_);
    build_span.end();
    ledger.charge(qt.stats().cost);
    RunContext::add(ctx_.query_builds, 1);
    RunContext::bump_max(ctx_.query_build_height, qt.height());

    // Rank-indexed candidate buffers: the batch query touches each rank
    // from exactly one worker, so no synchronization is needed.
    const std::size_t count = te - tb;
    std::vector<std::vector<std::pair<std::uint32_t, double>>> per_rank(
        count);
    pvm::Cost qcost = qt.batch_query(
        pool_, count,
        [&](std::size_t rank) { return points_[perm_[tb + rank]]; },
        [&](std::size_t rank, std::uint32_t ball_idx, double d2) {
          per_rank[rank].emplace_back(ball_idx, d2);
        },
        Containment::Closed);
    ledger.charge(qcost);

    // Regroup by ball (one pack in the model).
    std::vector<std::vector<knn::TopK::Entry>> per_ball(cut_ids.size());
    std::uint64_t pairs = 0;
    for (std::size_t rank = 0; rank < count; ++rank) {
      std::uint32_t point_id = perm_[tb + rank];
      for (auto [ball_idx, d2] : per_rank[rank]) {
        per_ball[ball_idx].push_back(knn::TopK::Entry{d2, point_id});
        ++pairs;
      }
    }
    ledger.charge(pvm::pack_cost(pairs, cfg_.cost));

    std::atomic<std::uint64_t> changed{0};
    par::parallel_for(
        pool_, 0, cut_ids.size(),
        [&](std::size_t b) {
          std::uint32_t self = cut_ids[b];
          knn::TopK merged(cfg_.k);
          seed_from_row(self, merged);
          for (const auto& e : per_ball[b]) merged.offer(e.dist2, e.index);
          if (rewrite_row(self, merged))
            changed.fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/16);
    RunContext::add(ctx_.corrected_balls,
                    changed.load(std::memory_order_relaxed));
    ledger.charge(pvm::map_cost(pairs));
    ledger.charge(pvm::reduce_cost(pairs, cfg_.cost));
  }

  void seed_from_row(std::uint32_t id, knn::TopK& into) const {
    auto nbr = result_.row_neighbors(id);
    auto d2 = result_.row_dist2(id);
    for (std::size_t s = 0; s < cfg_.k; ++s) {
      if (nbr[s] == knn::KnnResult::kInvalid) break;
      into.offer(d2[s], nbr[s]);
    }
  }

  // Writes the merged selection back; returns true when the row changed.
  bool rewrite_row(std::uint32_t id, knn::TopK& merged) {
    auto sorted = merged.take_sorted();
    auto nbr = result_.row_neighbors(id);
    auto d2 = result_.row_dist2(id);
    bool changed = false;
    std::size_t s = 0;
    for (; s < sorted.size(); ++s) {
      if (nbr[s] != sorted[s].index || d2[s] != sorted[s].dist2)
        changed = true;
      nbr[s] = sorted[s].index;
      d2[s] = sorted[s].dist2;
    }
    for (; s < cfg_.k; ++s) {
      if (nbr[s] != knn::KnnResult::kInvalid) changed = true;
      nbr[s] = knn::KnnResult::kInvalid;
      d2[s] = std::numeric_limits<double>::infinity();
    }
    return changed;
  }

  std::span<const geo::Point<D>> points_;
  Config cfg_;
  par::ThreadPool& pool_;
  std::size_t n_;
  knn::KnnResult result_;
  std::vector<std::uint32_t> perm_;
  PartitionForest<D> forest_;
  // SoA leaf payloads for Fast Correction, indexed by forest node id
  // (slots for the forest's full 2n-1 arena). Each slot is written once
  // by the task that allocates the leaf in solve_base and read only after
  // that subtree's parallel_invoke joined — publication rides the same
  // join edge that publishes perm_ and the forest node itself.
  std::vector<std::unique_ptr<knn::PointBlockStore<D>>> leaf_blocks_;
  RunContext ctx_;
  std::size_t base_size_ = 0;
};

// Convenience wrappers -----------------------------------------------------

// Parallel Nearest Neighborhood (§6): the paper's headline algorithm.
template <int D>
typename NearestNeighborEngine<D>::Output parallel_nearest_neighborhood(
    std::span<const geo::Point<D>> points, const Config& cfg,
    par::ThreadPool& pool) {
  Config c = cfg;
  c.partition = PartitionRule::MttvSphere;
  c.correction = CorrectionPolicy::Hybrid;
  return NearestNeighborEngine<D>::run(points, c, pool);
}

// Simple Parallel Divide-and-Conquer (§5): hyperplane cuts, corrections
// always through the query structure.
template <int D>
typename NearestNeighborEngine<D>::Output simple_parallel_dnc(
    std::span<const geo::Point<D>> points, const Config& cfg,
    par::ThreadPool& pool) {
  Config c = cfg;
  c.partition = PartitionRule::HyperplaneMedian;
  c.correction = CorrectionPolicy::AlwaysPunt;
  return NearestNeighborEngine<D>::run(points, c, pool);
}

}  // namespace sepdc::core
