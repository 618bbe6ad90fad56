// kd-tree with k-nearest-neighbor and range queries.
//
// This is the sequential baseline standing in for Vaidya's O(kn log n)
// algorithm (the paper's work benchmark): building the tree and answering
// one k-NN query per point gives the k-neighborhood system in O(kn log n)
// expected time for fixed d. It also serves as a fast oracle for tests,
// tools and benches at sizes where brute force is too slow; the query
// service does not use it (it searches its SeparatorIndex directly).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "geometry/aabb.hpp"
#include "geometry/point.hpp"
#include "knn/block_store.hpp"
#include "knn/kernels.hpp"
#include "knn/result.hpp"
#include "knn/topk.hpp"
#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace sepdc::knn {

template <int D>
class KdTree {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    geo::Aabb<D> box;
    std::uint32_t left = kNone;
    std::uint32_t right = kNone;
    std::uint32_t begin = 0;  // leaf payload range in ids_
    std::uint32_t end = 0;
    // Leaf payload as SoA blocks (see pack_leaf_blocks).
    BlockRange blocks;
    bool is_leaf() const { return left == kNone; }
  };

  // Builds over a copy of the point span. `leaf_size` caps leaf occupancy.
  explicit KdTree(std::span<const geo::Point<D>> points,
                  std::size_t leaf_size = 16)
      : points_(points.begin(), points.end()),
        ids_(points.size()),
        leaf_size_(std::max<std::size_t>(leaf_size, 1)) {
    // Ids are 32-bit with kInvalid as sentinel; a larger input would
    // silently truncate (same guard as PartitionForest::for_points).
    SEPDC_CHECK_MSG(points.size() < KnnResult::kInvalid,
                    "KdTree: point count exceeds the 32-bit id space");
    std::iota(ids_.begin(), ids_.end(), 0u);
    if (!points_.empty()) {
      nodes_.reserve(2 * points_.size() / leaf_size_ + 2);
      root_ = build(0, points_.size());
      pack_leaf_blocks();
    }
  }

  std::size_t size() const { return points_.size(); }

  // k nearest neighbors of an arbitrary query point. When `exclude` is a
  // valid point id, that point is skipped (used for self-exclusion).
  TopK query(const geo::Point<D>& q, std::size_t k,
             std::uint32_t exclude = KnnResult::kInvalid) const {
    TopK best(k);
    if (root_ != kNone) search(root_, q, exclude, best);
    return best;
  }

  // Invokes fn(id, dist2) for every point inside the *closed* ball:
  // distance(point, center) <= radius. Same contract as
  // SeparatorIndex::for_each_in_ball (docs/kernels.md "closed-ball
  // contract"), so as an oracle it returns byte-identical boundary
  // points to the index. A radius of exactly 0 therefore finds points
  // coincident with the center.
  template <class Fn>
  void for_each_in_ball(const geo::Point<D>& center, double radius,
                        Fn fn) const {
    if (root_ == kNone || radius < 0.0) return;
    range_search(root_, center, radius * radius, fn);
  }

  // Optional observability hook: when set, every leaf scan records its
  // lane count (valid points scanned) into the histogram. The Histogram
  // is lock-free (relaxed atomics), so concurrent all_knn queries may
  // share one instance; the pointer must outlive the queries.
  void set_scan_histogram(metrics::Histogram* hist) { scan_hist_ = hist; }

  // k-NN of every indexed point (self excluded), thread-parallel.
  KnnResult all_knn(par::ThreadPool& pool, std::size_t k) const {
    KnnResult result = KnnResult::empty(points_.size(), k);
    par::parallel_for(pool, 0, points_.size(), [&](std::size_t i) {
      TopK best = query(points_[i], k, static_cast<std::uint32_t>(i));
      auto sorted = best.take_sorted();
      auto nbr = result.row_neighbors(i);
      auto d2 = result.row_dist2(i);
      for (std::size_t s = 0; s < sorted.size(); ++s) {
        nbr[s] = sorted[s].index;
        d2[s] = sorted[s].dist2;
      }
    });
    return result;
  }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  // Re-packs every leaf's payload into the SoA block store so leaf scans
  // run through the batched kernels instead of per-point AoS gathers.
  // Runs once after build(): the recursion is over, so node payload
  // ranges in ids_ are final.
  void pack_leaf_blocks() {
    blocks_.reserve_points(points_.size());
    for (Node& node : nodes_) {
      if (!node.is_leaf()) continue;
      node.blocks = blocks_.append_range(
          node.end - node.begin,
          [&](std::size_t j) -> const geo::Point<D>& {
            return points_[ids_[node.begin + j]];
          },
          [&](std::size_t j) { return ids_[node.begin + j]; });
    }
  }

  std::uint32_t build(std::size_t begin, std::size_t end) {
    Node node;
    node.box = geo::Aabb<D>::empty();
    for (std::size_t i = begin; i < end; ++i)
      node.box.expand(points_[ids_[i]]);
    std::uint32_t idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(node);
    if (end - begin <= leaf_size_ || node.box.extent() == 0.0) {
      nodes_[idx].begin = static_cast<std::uint32_t>(begin);
      nodes_[idx].end = static_cast<std::uint32_t>(end);
      return idx;
    }
    int axis = node.box.widest_axis();
    std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(ids_.begin() + static_cast<std::ptrdiff_t>(begin),
                     ids_.begin() + static_cast<std::ptrdiff_t>(mid),
                     ids_.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return points_[a][axis] < points_[b][axis];
                     });
    std::uint32_t l = build(begin, mid);
    std::uint32_t r = build(mid, end);
    nodes_[idx].left = l;
    nodes_[idx].right = r;
    return idx;
  }

  void search(std::uint32_t node_idx, const geo::Point<D>& q,
              std::uint32_t exclude, TopK& best) const {
    const Node& node = nodes_[node_idx];
    // Strict pruning: a node at exactly the current worst distance may
    // still hold an equal-distance neighbor with a smaller index, and the
    // deterministic tie-break must see it to match brute force exactly.
    if (node.box.distance2(q) > best.worst_dist2()) return;
    if (node.is_leaf()) {
      if (scan_hist_) scan_hist_->record(node.end - node.begin);
      blocks_.scan(node.blocks, q,
                   [&](const double* dist2s, const std::uint32_t* ids,
                       std::size_t lanes) {
                     best.offer_block(dist2s, ids, lanes, exclude);
                   });
      return;
    }
    // Visit the nearer child first for better pruning.
    double dl = nodes_[node.left].box.distance2(q);
    double dr = nodes_[node.right].box.distance2(q);
    if (dl <= dr) {
      search(node.left, q, exclude, best);
      search(node.right, q, exclude, best);
    } else {
      search(node.right, q, exclude, best);
      search(node.left, q, exclude, best);
    }
  }

  template <class Fn>
  void range_search(std::uint32_t node_idx, const geo::Point<D>& center,
                    double radius2, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    // Closed-ball pruning: a box at distance exactly `radius` may still
    // hold a boundary point, so only strictly-farther boxes are skipped.
    if (node.box.distance2(center) > radius2) return;
    if (node.is_leaf()) {
      if (scan_hist_) scan_hist_->record(node.end - node.begin);
      blocks_.scan(node.blocks, center,
                   [&](const double* dist2s, const std::uint32_t* ids,
                       std::size_t lanes) {
                     kernels::filter_closed_ball(dist2s, ids, lanes,
                                                 radius2, fn);
                   });
      return;
    }
    range_search(node.left, center, radius2, fn);
    range_search(node.right, center, radius2, fn);
  }

  std::vector<geo::Point<D>> points_;
  std::vector<std::uint32_t> ids_;
  std::size_t leaf_size_ = 16;
  std::vector<Node> nodes_;
  PointBlockStore<D> blocks_;
  std::uint32_t root_ = kNone;
  metrics::Histogram* scan_hist_ = nullptr;
};

}  // namespace sepdc::knn
