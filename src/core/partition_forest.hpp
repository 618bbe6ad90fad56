// Arena-backed partition forest: the flat replacement for the pointer
// tree the divide-and-conquer recursion used to materialize.
//
// All nodes of one run live in a single contiguous vector; children are
// referenced by 32-bit indices (kNoChild marks a leaf). Forked subtasks
// claim slots with an atomic bump allocator, so the parallel recursion
// appends without locking; every slot is written by exactly one task and
// parents only touch their own slot after joining their children, so the
// structure is race-free by construction. Slot numbers depend on the
// thread schedule — consumers that need a schedule-independent view
// traverse in preorder or level order, both of which are fully determined
// by the logical tree shape.
//
// The §6 Fast Correction ball-march (Lemma 6.3) and the SeparatorIndex
// queries are level-synchronous walks over this structure; the flat
// layout keeps them cache-friendly and lets frontiers be plain vectors of
// 32-bit ids instead of pointer chases.
//
// Storage is an arena::ArenaVec<Node>: heap-owned while a build mutates
// it, or a borrowed view over an mmap-ed snapshot section (adopt()), in
// which case the forest serves queries directly out of the file mapping
// with zero deserialization. Node layout is pinned below — the disk
// format (docs/persistence.md) depends on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/separator_shape.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"

namespace sepdc::core {

// Sentinel child index: a node with inner == kNoChild is a leaf.
inline constexpr std::uint32_t kNoChild = 0xffffffffu;

template <int D>
struct ForestNode {
  // Range [begin, end) into the owning structure's permutation array.
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  // Child slots; kNoChild on both for leaves. Valid iff both are set.
  std::uint32_t inner = kNoChild;
  std::uint32_t outer = kNoChild;

  // Valid iff the node is internal.
  geo::SeparatorShape<D> separator{};

  bool is_leaf() const { return inner == kNoChild; }
  std::uint32_t size() const { return end - begin; }
};

// Layout pins (docs/persistence.md): ForestNode<D> is written raw into
// snapshot section `forest_nodes` and read back by view over the mapping.
// 16 bytes of range/child ids + SeparatorShape<D> (kind + sphere +
// halfspace + flip, 16D + 32 bytes with padding) = 16D + 48.
SEPDC_PIN_TRIVIAL_LAYOUT(ForestNode<2>, 80, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(ForestNode<3>, 96, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(ForestNode<4>, 112, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(ForestNode<5>, 128, 8);

template <int D>
class PartitionForest {
 public:
  using Node = ForestNode<D>;

  PartitionForest() = default;

  // Capacity for a partition of `point_count` points: leaves hold at
  // least one point and are disjoint, so a binary partition tree has at
  // most 2n - 1 nodes.
  static PartitionForest for_points(std::size_t point_count) {
    // Point ranges and node ids are 32-bit; 2n - 1 slots must stay below
    // the kNoChild sentinel. The check makes the narrowing in the builders
    // (size_t counts -> uint32_t begin/end/ids) explicit and safe instead
    // of silently wrapping at ~4B points.
    SEPDC_CHECK_MSG(point_count <= (std::size_t{1} << 31),
                    "PartitionForest: point count exceeds the 32-bit "
                    "index space");
    PartitionForest f;
    f.reset(point_count == 0 ? 1 : 2 * point_count - 1);
    return f;
  }

  // Adopts an already-built node arena as a borrowed view (the zero-copy
  // snapshot load path, io/snapshot_file.hpp). The nodes are served
  // directly out of `nodes` — typically an mmap-ed file section that must
  // outlive the forest. The view is immutable: allocate()/reset() on an
  // adopted forest fail the ArenaVec ownership check.
  static PartitionForest adopt(std::span<const Node> nodes,
                               std::uint32_t root) {
    SEPDC_CHECK_MSG(!nodes.empty() && root < nodes.size(),
                    "PartitionForest::adopt: root outside the node arena");
    PartitionForest f;
    f.nodes_ = arena::ArenaVec<Node>::view_of(nodes);
    f.used_.store(static_cast<std::uint32_t>(nodes.size()),
                  std::memory_order_relaxed);
    f.root_ = root;
    return f;
  }

  // The whole node arena (allocated prefix) — what snapshot save writes.
  std::span<const Node> nodes() const {
    return {nodes_.data(), node_count()};
  }

  // Re-arms the arena with a fixed capacity. Not thread-safe; call before
  // handing the forest to forked builders.
  void reset(std::size_t capacity) {
    SEPDC_CHECK_MSG(capacity < kNoChild,
                    "PartitionForest: capacity exceeds the 32-bit node-id "
                    "space");
    nodes_.assign(capacity, Node{});
    used_.store(0, std::memory_order_relaxed);
    root_ = kNoChild;
  }

  // Claims one slot. Safe to call concurrently from forked subtasks; the
  // returned slot is exclusively owned by the caller.
  std::uint32_t allocate() {
    std::uint32_t id = used_.fetch_add(1, std::memory_order_relaxed);
    SEPDC_CHECK_MSG(id < nodes_.size(), "partition forest arena overflow");
    return id;
  }

  Node& node(std::uint32_t id) { return nodes_[id]; }
  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  Node& operator[](std::uint32_t id) { return nodes_[id]; }
  const Node& operator[](std::uint32_t id) const { return nodes_[id]; }

  void set_root(std::uint32_t id) { root_ = id; }
  std::uint32_t root_id() const { return root_; }
  const Node& root() const {
    SEPDC_ASSERT(root_ != kNoChild);
    return nodes_[root_];
  }

  bool empty() const { return root_ == kNoChild; }
  std::size_t node_count() const {
    return used_.load(std::memory_order_relaxed);
  }

  // Trims the arena to the allocated prefix. Single-threaded; ids stay
  // valid.
  void finalize() {
    nodes_.resize(node_count());
    nodes_.shrink_to_fit();
  }

  std::size_t point_count() const { return empty() ? 0 : root().size(); }

  std::size_t leaf_count() const {
    std::size_t leaves = 0;
    preorder([&](std::uint32_t id) {
      if (nodes_[id].is_leaf()) ++leaves;
    });
    return leaves;
  }

  // Height with leaves at height 1.
  std::size_t height() const {
    if (empty()) return 0;
    std::size_t h = 0;
    level_order([&](std::uint32_t, std::size_t level) {
      h = level + 1 > h ? level + 1 : h;
    });
    return h;
  }

  // Depth-first preorder (node before children, inner before outer);
  // iterative, so adversarially deep trees cannot overflow the stack.
  // The visit order depends only on the logical tree shape, never on the
  // schedule that allocated the slots.
  template <class Fn>
  void preorder(Fn fn) const {
    if (empty()) return;
    std::vector<std::uint32_t> stack{root_};
    while (!stack.empty()) {
      std::uint32_t id = stack.back();
      stack.pop_back();
      fn(id);
      const Node& n = nodes_[id];
      if (!n.is_leaf()) {
        stack.push_back(n.outer);  // inner visited first
        stack.push_back(n.inner);
      }
    }
  }

  // Breadth-first level order: fn(id, level) with the root at level 0.
  // Within a level, nodes appear in the (deterministic) left-to-right
  // order of the previous level's expansion.
  template <class Fn>
  void level_order(Fn fn) const {
    if (empty()) return;
    std::vector<std::uint32_t> frontier{root_}, next;
    std::size_t level = 0;
    while (!frontier.empty()) {
      next.clear();
      for (std::uint32_t id : frontier) {
        fn(id, level);
        const Node& n = nodes_[id];
        if (!n.is_leaf()) {
          next.push_back(n.inner);
          next.push_back(n.outer);
        }
      }
      frontier.swap(next);
      ++level;
    }
  }

 private:
  arena::ArenaVec<Node> nodes_;
  std::atomic<std::uint32_t> used_{0};
  std::uint32_t root_ = kNoChild;

 public:
  // Movable (the atomic cursor needs explicit handling); not copyable to
  // keep accidental whole-arena copies out of hot paths.
  PartitionForest(PartitionForest&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        used_(other.used_.load(std::memory_order_relaxed)),
        root_(other.root_) {
    other.used_.store(0, std::memory_order_relaxed);
    other.root_ = kNoChild;
  }
  PartitionForest& operator=(PartitionForest&& other) noexcept {
    if (this != &other) {
      nodes_ = std::move(other.nodes_);
      used_.store(other.used_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      root_ = other.root_;
      other.used_.store(0, std::memory_order_relaxed);
      other.root_ = kNoChild;
    }
    return *this;
  }
  PartitionForest(const PartitionForest&) = delete;
  PartitionForest& operator=(const PartitionForest&) = delete;
};

}  // namespace sepdc::core
