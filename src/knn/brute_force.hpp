// Brute-force k-nearest neighbors: the correctness oracle for every other
// algorithm in the library, and the base case of the divide-and-conquer
// ("if m <= log n, deterministically compute ... by testing all pairs").
#pragma once

#include <span>

#include "geometry/point.hpp"
#include "knn/block_store.hpp"
#include "knn/result.hpp"
#include "knn/topk.hpp"
#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"

namespace sepdc::knn {

namespace detail {

// One brute-force row: scan the whole block store against points[i],
// self excluded, and write the sorted row. TopK keeps the k smallest
// (dist2, id) entries whatever the offer order, and the kernel is
// bit-identical to geo::distance2, so the row — tie-breaks included —
// matches the classic j-loop exactly.
template <int D>
void brute_force_row(const PointBlockStore<D>& store,
                     std::span<const geo::Point<D>> points, std::size_t i,
                     std::size_t k, KnnResult& result) {
  TopK best(k);
  store.scan(store.all(), points[i],
             [&](const double* dist2s, const std::uint32_t* ids,
                 std::size_t lanes) {
               best.offer_block(dist2s, ids, lanes,
                                static_cast<std::uint32_t>(i));
             });
  auto sorted = best.take_sorted();
  auto nbr = result.row_neighbors(i);
  auto d2 = result.row_dist2(i);
  for (std::size_t s = 0; s < sorted.size(); ++s) {
    nbr[s] = sorted[s].index;
    d2[s] = sorted[s].dist2;
  }
}

}  // namespace detail

// All-pairs k-NN over `points` (self excluded). Rows are padded when
// points.size() <= k.
template <int D>
KnnResult brute_force(std::span<const geo::Point<D>> points, std::size_t k) {
  const std::size_t n = points.size();
  SEPDC_CHECK_MSG(n < KnnResult::kInvalid,
                  "brute_force: point count exceeds the 32-bit id space");
  KnnResult result = KnnResult::empty(n, k);
  PointBlockStore<D> store(points);
  for (std::size_t i = 0; i < n; ++i)
    detail::brute_force_row(store, points, i, k, result);
  return result;
}

// Thread-parallel brute force (rows are independent) — oracle at larger n.
template <int D>
KnnResult brute_force_parallel(par::ThreadPool& pool,
                               std::span<const geo::Point<D>> points,
                               std::size_t k) {
  const std::size_t n = points.size();
  SEPDC_CHECK_MSG(n < KnnResult::kInvalid,
                  "brute_force: point count exceeds the 32-bit id space");
  KnnResult result = KnnResult::empty(n, k);
  const PointBlockStore<D> store(points);  // shared, read-only after build
  par::parallel_for(pool, 0, n, [&](std::size_t i) {
    detail::brute_force_row(store, points, i, k, result);
  });
  return result;
}

}  // namespace sepdc::knn
