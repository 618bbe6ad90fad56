// Bounded top-k selector over (distance², index) pairs.
//
// A small binary max-heap keeping the k smallest entries under the total
// order (dist2, index). With distinct indices the kept set is a function
// of the offered set alone, so offer order never changes a result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/assert.hpp"

namespace sepdc::knn {

class TopK {
 public:
  struct Entry {
    double dist2;
    std::uint32_t index;

    // Heap/order comparison: greater distance is "worse"; ties broken by
    // larger index being worse, making selection deterministic.
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
      return a.index < b.index;
    }

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.dist2 == b.dist2 && a.index == b.index;
    }
  };

  explicit TopK(std::size_t k) : k_(k) { heap_.reserve(k); }

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  // Squared distance of the current k-th best (+inf while not full):
  // candidates at or beyond this bound cannot improve the result. With
  // k = 0 nothing can be kept, so the bound is -inf and every block and
  // every search box is pruned.
  double worst_dist2() const {
    if (!full()) return std::numeric_limits<double>::infinity();
    return k_ != 0 ? heap_.front().dist2
                   : -std::numeric_limits<double>::infinity();
  }

  // Offers a candidate; keeps it iff it beats the current k-th best.
  void offer(double dist2, std::uint32_t index) {
    if (k_ == 0) return;
    Entry e{dist2, index};
    if (!full()) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end());
      return;
    }
    if (!(e < heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end());
  }

  // Offers one block's worth of kernel-computed candidates
  // (block_store.hpp scan shape). `count` is the valid lane count — pad
  // lanes must be excluded by count, not by distance, because offer()
  // accepts any value while the heap is not yet full.
  //
  // Fast path: once the heap is full, almost every block of a leaf scan
  // is entirely beyond the current k-th bound; a branchless sweep
  // rejects those blocks in ~two ops per lane before the per-lane offer
  // loop runs. The pre-check uses <= so candidates tying the bound still
  // reach offer(), which adjudicates ties by index. The sooner the bound
  // tightens, the more blocks the sweep rejects, which is why the engine's
  // base case offers a leaf's nearest blocks first.
  void offer_block(const double* dist2s, const std::uint32_t* ids,
                   std::size_t count,
                   std::uint32_t exclude = 0xffffffffu) {
    const double bound = worst_dist2();  // +inf while not yet full
    bool any = false;
    for (std::size_t j = 0; j < count; ++j) any |= (dist2s[j] <= bound);
    if (!any) return;
    for (std::size_t j = 0; j < count; ++j) {
      if (ids[j] == exclude) continue;
      offer(dist2s[j], ids[j]);
    }
  }

  // Destructively extracts entries sorted by increasing distance.
  std::vector<Entry> take_sorted() {
    std::sort_heap(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  std::vector<Entry> heap_;
};

}  // namespace sepdc::knn
