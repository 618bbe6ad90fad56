// Schedule-independence regression suite: the same seed must produce the
// same run regardless of the physical thread count. Randomness is keyed
// to recursion paths (not to threads or arena slots), cost composes over
// the logical fork-join tree, and every shared diagnostic counter is a
// sum or max — so k-NN rows, the forest shape, the model cost, and the
// diagnostics snapshot all have to match bit for bit between a 1-worker
// and a 4-worker pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "knn/kernels.hpp"
#include "workload/generators.hpp"

namespace sepdc::core {
namespace {

// The schedule-independent shape of a forest: preorder sequence of
// (begin, end, leaf?). Arena slot numbers depend on the allocation
// schedule, so two equal-shape forests may number their slots
// differently; the preorder view is the canonical form.
template <int D>
std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> shape_of(
    const PartitionForest<D>& f) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> shape;
  f.preorder([&](std::uint32_t id) {
    const auto& n = f.node(id);
    shape.emplace_back(n.begin, n.end, n.is_leaf());
  });
  return shape;
}

template <int D>
void expect_same_run(const typename NearestNeighborEngine<D>::Output& a,
                     const typename NearestNeighborEngine<D>::Output& b) {
  // Results.
  EXPECT_EQ(a.knn.neighbors, b.knn.neighbors);
  EXPECT_EQ(a.knn.dist2, b.knn.dist2);
  // Model cost.
  EXPECT_EQ(a.cost.work, b.cost.work);
  EXPECT_EQ(a.cost.depth, b.cost.depth);
  // Forest shape (canonical preorder view).
  EXPECT_EQ(shape_of(a.forest), shape_of(b.forest));
  EXPECT_EQ(a.forest.node_count(), b.forest.node_count());
  EXPECT_EQ(a.forest.height(), b.forest.height());
  // Full diagnostics snapshot, histograms included.
  EXPECT_EQ(a.diag.nodes, b.diag.nodes);
  EXPECT_EQ(a.diag.leaves, b.diag.leaves);
  EXPECT_EQ(a.diag.tree_height, b.diag.tree_height);
  EXPECT_EQ(a.diag.separator_attempts, b.diag.separator_attempts);
  EXPECT_EQ(a.diag.max_attempts_at_node, b.diag.max_attempts_at_node);
  EXPECT_EQ(a.diag.separator_fallbacks, b.diag.separator_fallbacks);
  EXPECT_EQ(a.diag.brute_force_fallbacks, b.diag.brute_force_fallbacks);
  EXPECT_EQ(a.diag.fast_corrections, b.diag.fast_corrections);
  EXPECT_EQ(a.diag.punts, b.diag.punts);
  EXPECT_EQ(a.diag.march_aborts, b.diag.march_aborts);
  EXPECT_EQ(a.diag.total_cut_balls, b.diag.total_cut_balls);
  EXPECT_EQ(a.diag.max_cut_balls, b.diag.max_cut_balls);
  EXPECT_EQ(a.diag.max_cut_fraction, b.diag.max_cut_fraction);
  EXPECT_EQ(a.diag.max_march_fraction, b.diag.max_march_fraction);
  EXPECT_EQ(a.diag.corrected_balls, b.diag.corrected_balls);
  EXPECT_EQ(a.diag.query_builds, b.diag.query_builds);
  EXPECT_EQ(a.diag.query_build_height, b.diag.query_build_height);
  EXPECT_EQ(a.diag.points_by_level, b.diag.points_by_level);
  EXPECT_EQ(a.diag.cuts_by_level, b.diag.cuts_by_level);
  // Report mirrors the run.
  EXPECT_EQ(a.report.seed, b.report.seed);
  EXPECT_EQ(a.report.forest_nodes, b.report.forest_nodes);
  EXPECT_EQ(a.report.forest_leaves, b.report.forest_leaves);
  EXPECT_EQ(a.report.forest_height, b.report.forest_height);
}

TEST(Determinism, PoolSizeOneVersusFourIdenticalRuns) {
  Rng rng(512);
  auto pts = workload::gaussian_clusters<2>(12000, 6, 0.02, rng);
  std::span<const geo::Point<2>> span(pts);
  Config cfg;
  cfg.k = 3;
  cfg.seed = 20260806;

  par::ThreadPool solo(1);
  par::ThreadPool quad(4);
  auto a = NearestNeighborEngine<2>::run(span, cfg, solo);
  auto b = NearestNeighborEngine<2>::run(span, cfg, quad);
  expect_same_run<2>(a, b);
}

TEST(Determinism, HoldsUnderHostileConfigs) {
  // The punt/abort paths allocate query trees and march frontiers; they
  // must stay schedule-independent too.
  Rng rng(513);
  auto pts = workload::uniform_cube<2>(9000, rng);
  std::span<const geo::Point<2>> span(pts);

  Config cfg;
  cfg.k = 2;
  cfg.seed = 31337;
  cfg.march_budget_factor = 0.01;  // frequent aborts -> punts

  par::ThreadPool solo(1);
  par::ThreadPool quad(4);
  auto a = NearestNeighborEngine<2>::run(span, cfg, solo);
  auto b = NearestNeighborEngine<2>::run(span, cfg, quad);
  expect_same_run<2>(a, b);
  EXPECT_GT(a.diag.punts, 0u);
}

TEST(Determinism, RepeatedRunsOnSamePoolIdentical) {
  Rng rng(514);
  auto pts = workload::generate<2>(workload::Kind::Duplicates, 6000, rng);
  std::span<const geo::Point<2>> span(pts);
  Config cfg;
  cfg.k = 2;
  cfg.seed = 99;
  auto& pool = par::ThreadPool::global();
  auto a = NearestNeighborEngine<2>::run(span, cfg, pool);
  auto b = NearestNeighborEngine<2>::run(span, cfg, pool);
  expect_same_run<2>(a, b);
}

// Every base-case and Fast-Correction distance comes from
// kernels::dist2_blocks, whose paths are bit-identical (docs/kernels.md),
// so which path the dispatcher picks cannot change a run.
template <int D, class Run>
void expect_dispatch_invariant(Run run) {
  namespace kernels = knn::kernels;
  struct ClearForcedIsa {
    ~ClearForcedIsa() { kernels::clear_forced_isa(); }
  } clear_on_exit;
  kernels::force_isa(kernels::Isa::Scalar);
  auto scalar = run();
  kernels::clear_forced_isa();
  ASSERT_EQ(kernels::active_isa(), kernels::Isa::Avx2);
  auto dispatched = run();
  expect_same_run<D>(scalar, dispatched);
}

TEST(Determinism, KernelDispatchDoesNotChangeTheRun) {
  knn::kernels::clear_forced_isa();
  if (!knn::kernels::avx2_usable() ||
      knn::kernels::active_isa() != knn::kernels::Isa::Avx2)
    GTEST_SKIP() << "the dispatched path is the scalar path here";
  auto& pool = par::ThreadPool::global();

  Rng rng(516);
  const auto clustered = workload::gaussian_clusters<2>(12000, 6, 0.02, rng);
  Config cfg;
  cfg.k = 3;
  cfg.seed = 7;
  expect_dispatch_invariant<2>([&] {
    return parallel_nearest_neighborhood<2>(
        std::span<const geo::Point<2>>(clustered), cfg, pool);
  });

  // §5: every side punts through the query structure.
  const auto uniform = workload::uniform_cube<2>(8000, rng);
  cfg.k = 2;
  expect_dispatch_invariant<2>([&] {
    auto out = simple_parallel_dnc<2>(
        std::span<const geo::Point<2>>(uniform), cfg, pool);
    EXPECT_GT(out.diag.punts, 0u);
    return out;
  });

  // Duplicates give (dist2, id) ties; 300 copies of one point make a node
  // no separator can split, which the identical-points shortcut solves.
  auto dups = workload::generate<2>(workload::Kind::Duplicates, 6000, rng);
  dups.insert(dups.end(), 300, dups.front());
  cfg.k = 4;
  expect_dispatch_invariant<2>([&] {
    auto out = parallel_nearest_neighborhood<2>(
        std::span<const geo::Point<2>>(dups), cfg, pool);
    EXPECT_GT(out.diag.brute_force_fallbacks, 0u);
    return out;
  });

  const auto clustered3 = workload::gaussian_clusters<3>(8000, 4, 0.03, rng);
  cfg.k = 5;
  expect_dispatch_invariant<3>([&] {
    return parallel_nearest_neighborhood<3>(
        std::span<const geo::Point<3>>(clustered3), cfg, pool);
  });
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison above has teeth: a different seed
  // changes the separator draws and thus (almost surely) the forest.
  Rng rng(515);
  auto pts = workload::uniform_cube<2>(8000, rng);
  std::span<const geo::Point<2>> span(pts);
  Config cfg;
  cfg.k = 1;
  auto& pool = par::ThreadPool::global();
  cfg.seed = 1;
  auto a = NearestNeighborEngine<2>::run(span, cfg, pool);
  cfg.seed = 2;
  auto b = NearestNeighborEngine<2>::run(span, cfg, pool);
  EXPECT_NE(shape_of(a.forest), shape_of(b.forest));
  // Both still exact: rows agree even though the trees differ.
  EXPECT_EQ(a.knn.dist2, b.knn.dist2);
}

}  // namespace
}  // namespace sepdc::core
