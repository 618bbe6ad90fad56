// The mutable delta tier: live inserts/removes over immutable snapshots.
//
// The broker's point set used to be frozen between full rebuilds. This
// file adds the standard LSM-shaped fix (ParGeo-style incremental side
// structures; see docs/updates.md): queries answer from a *live view*
//
//   base IndexSnapshot  — the big immutable separator index,
//   sealed DeltaSegment — updates frozen for an in-flight compaction,
//   active DeltaSegment — updates applied since the last seal,
//
// where each DeltaSegment is an immutable batch of added points (packed
// into SoA PointBlockStore blocks so the same dist2 kernels that scan
// index leaves scan the delta) plus a sorted tombstone set. Shadowing is
// strictly top-down: a segment's tombstones mask hits from the tiers
// *below* it (active masks sealed and base; sealed masks base) and never
// its own adds, so remove-then-reinsert of one id inside one segment
// works with a tombstone and an add side by side.
//
// Point identity: clients name points by *external* id (a uint32 they
// choose; 0xffffffff is reserved as the pad/no-exclude sentinel). The
// base index stores internal positions 0..n-1; IndexSnapshot carries an
// external-id map that is always strictly increasing, so a base row
// sorted by (dist2, internal) is already sorted by (dist2, external) —
// the merge below is a plain sorted-stream merge and the service-wide
// (dist2, id) tie-break survives translation. Compaction sorts live
// points by external id to maintain exactly this invariant.
//
// Concurrency protocol (mirrors snapshot.hpp's generation discipline):
// all mutable state lives behind the annotated mu_; every mutation
// re-publishes an immutable LiveView through one atomic shared_ptr
// store, and readers take one acquire load — a reader can never observe
// a half-applied update or a torn (base, delta) pair, and an update is
// visible to every query submitted after the updating call returned
// ("as-of-submission" semantics). The view_ atomic is on the idiom
// linter's allowlist for exactly this single-writer-publish /
// many-reader-load protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "knn/block_store.hpp"
#include "knn/topk.hpp"
#include "service/request.hpp"
#include "service/snapshot.hpp"
#include "support/assert.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sepdc::service {

// One immutable batch of updates. `ids`/`points` are the added points
// sorted by external id (parallel arrays, also packed into SoA blocks
// for the distance kernels); `tombstones` is the sorted set of
// lower-tier ids this segment masks.
template <int D>
class DeltaSegment {
 public:
  using Point = geo::Point<D>;
  using Ptr = std::shared_ptr<const DeltaSegment>;

  DeltaSegment() = default;

  // `ids` strictly increasing and parallel to `points`; `tombstones`
  // strictly increasing. Both may be empty.
  static Ptr make(std::vector<std::uint32_t> ids,
                  std::vector<Point> points,
                  std::vector<std::uint32_t> tombstones) {
    SEPDC_ASSERT(ids.size() == points.size());
    auto seg = std::make_shared<DeltaSegment>();
    seg->ids_ = std::move(ids);
    seg->points_ = std::move(points);
    seg->tombstones_ = std::move(tombstones);
    if (!seg->ids_.empty()) {
      seg->blocks_.reserve_points(seg->ids_.size());
      seg->blocks_.append_range(
          seg->ids_.size(),
          [&](std::size_t j) -> const Point& { return seg->points_[j]; },
          [&](std::size_t j) { return seg->ids_[j]; });
    }
    return seg;
  }

  // Shared all-empty segment: the common steady state allocates nothing.
  static const Ptr& empty_segment() {
    static const Ptr kEmpty = std::make_shared<const DeltaSegment>();
    return kEmpty;
  }

  std::span<const std::uint32_t> ids() const { return ids_; }
  std::span<const Point> points() const { return points_; }
  std::span<const std::uint32_t> tombstones() const { return tombstones_; }
  std::size_t add_count() const { return ids_.size(); }
  std::size_t tombstone_count() const { return tombstones_.size(); }
  bool empty() const { return ids_.empty() && tombstones_.empty(); }

  bool has_add(std::uint32_t id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }

  bool has_tombstone(std::uint32_t id) const {
    return std::binary_search(tombstones_.begin(), tombstones_.end(), id);
  }

  // The added point for `id`, or nullptr when this segment does not add
  // it.
  const Point* find_add(std::uint32_t id) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return nullptr;
    return &points_[static_cast<std::size_t>(it - ids_.begin())];
  }

  // Offers every unmasked add to `best`, kernel-computed distances in
  // lane order (same shape as an index leaf scan, so tie adjudication is
  // identical). `masker` is the segment above this one (its tombstones
  // shadow our adds); null for the top tier.
  void scan_knn(const Point& q, knn::TopK& best, std::uint32_t exclude,
                const DeltaSegment* masker) const {
    if (ids_.empty()) return;
    blocks_.scan(blocks_.all(), q,
                 [&](const double* dist2s, const std::uint32_t* lane_ids,
                     std::size_t lanes) {
                   for (std::size_t j = 0; j < lanes; ++j) {
                     const std::uint32_t id = lane_ids[j];
                     if (id == exclude) continue;
                     if (masker != nullptr && masker->has_tombstone(id))
                       continue;
                     best.offer(dist2s[j], id);
                   }
                 });
  }

  // Emits every unmasked add inside the closed ball (d2 <= r*r, the
  // service-wide boundary contract) as emit(id, dist2).
  template <class Emit>
  void scan_radius(const Point& q, double r, const DeltaSegment* masker,
                   Emit&& emit) const {
    if (ids_.empty()) return;
    const double r2 = r * r;
    blocks_.scan(blocks_.all(), q,
                 [&](const double* dist2s, const std::uint32_t* lane_ids,
                     std::size_t lanes) {
                   for (std::size_t j = 0; j < lanes; ++j) {
                     if (!(dist2s[j] <= r2)) continue;
                     const std::uint32_t id = lane_ids[j];
                     if (masker != nullptr && masker->has_tombstone(id))
                       continue;
                     emit(id, dist2s[j]);
                   }
                 });
  }

 private:
  std::vector<std::uint32_t> ids_;   // strictly increasing external ids
  std::vector<Point> points_;        // parallel to ids_
  std::vector<std::uint32_t> tombstones_;  // strictly increasing
  knn::PointBlockStore<D> blocks_;   // ids_/points_ packed for kernels
};

// One coherent (base, sealed, active) triple. Immutable after
// publication; readers grab the whole thing with one atomic load, so a
// compaction swap can never pair a new base with the delta that was
// already folded into it (which would resurrect duplicates) or an old
// base with an emptied delta (which would lose updates).
template <int D>
struct LiveView {
  using Point = geo::Point<D>;
  using SnapshotPtr = typename SnapshotStore<D>::Ptr;
  using SegmentPtr = typename DeltaSegment<D>::Ptr;

  std::uint64_t seq = 0;    // strictly monotone publication counter
  SnapshotPtr base;         // never null (may be the empty generation)
  SegmentPtr sealed;        // null unless a compaction is in flight
  SegmentPtr active;        // never null (may be the empty segment)

  bool has_base() const { return base != nullptr && base->index != nullptr; }

  // Is this base hit shadowed by a delta-tier removal?
  bool base_masked(std::uint32_t ext) const {
    return active->has_tombstone(ext) ||
           (sealed != nullptr && sealed->has_tombstone(ext));
  }

  // Upper bound on base hits a query may lose to tombstones — the k-NN
  // over-fetch margin: asking the base for k + tombstone_count() always
  // survives filtering with >= k live hits (when the base has them).
  std::size_t tombstone_count() const {
    return active->tombstone_count() +
           (sealed != nullptr ? sealed->tombstone_count() : 0);
  }

  // Exact: every tombstone masks exactly one live lower-tier id and
  // every add introduces exactly one new id (LiveStore validates both at
  // mutation time), so the signed sum telescopes.
  std::size_t live_count() const {
    std::size_t n = base->point_count;
    if (sealed != nullptr)
      n += sealed->add_count() - sealed->tombstone_count();
    return n + active->add_count() - active->tombstone_count();
  }

  bool contains(std::uint32_t ext) const { return find(ext) != nullptr; }

  // The live point named `ext`, top tier wins; nullptr when dead/absent.
  const Point* find(std::uint32_t ext) const {
    if (const Point* p = active->find_add(ext)) return p;
    if (active->has_tombstone(ext)) return nullptr;
    if (sealed != nullptr) {
      if (const Point* p = sealed->find_add(ext)) return p;
      if (sealed->has_tombstone(ext)) return nullptr;
    }
    if (!has_base()) return nullptr;
    std::uint32_t internal = base->internal_id(ext);
    if (internal == IndexSnapshot<D>::kNoId) return nullptr;
    return &base->index->points()[internal];
  }

  // Every live delta point inside the closed ball, as emit(id, dist2).
  template <class Emit>
  void for_each_delta_in_ball(const Point& q, double r,
                              Emit&& emit) const {
    if (sealed != nullptr) sealed->scan_radius(q, r, active.get(), emit);
    active->scan_radius(q, r, nullptr, emit);
  }
};

// Merges one k-NN answer: `base_rows` are the base index's sorted
// (dist2, internal-id) entries fetched with the over-fetch margin
// (k + view.tombstone_count()); the result is the k nearest *live*
// points in external ids, sorted by (dist2, id) — bit-equal to a brute
// force over the live set because every stream already carries exact
// kernel distances and the external-id map preserves base sort order.
template <int D>
std::vector<knn::TopK::Entry> merge_knn_rows(
    const LiveView<D>& view, const geo::Point<D>& q, std::size_t k,
    std::uint32_t exclude, std::span<const knn::TopK::Entry> base_rows) {
  std::vector<knn::TopK::Entry> base;
  if (view.has_base() && !base_rows.empty()) {
    base.reserve(std::min(base_rows.size(), k));
    for (const knn::TopK::Entry& e : base_rows) {
      const std::uint32_t ext = view.base->external_id(e.index);
      if (ext == exclude || view.base_masked(ext)) continue;
      base.push_back({e.dist2, ext});
      if (base.size() == k) break;
    }
  }
  knn::TopK best(k);
  if (view.sealed != nullptr)
    view.sealed->scan_knn(q, best, exclude, view.active.get());
  view.active->scan_knn(q, best, exclude, nullptr);
  if (best.size() == 0) return base;  // steady state: no delta, no work
  std::vector<knn::TopK::Entry> delta = best.take_sorted();

  std::vector<knn::TopK::Entry> out;
  out.reserve(std::min(k, base.size() + delta.size()));
  std::size_t i = 0;
  std::size_t j = 0;
  while (out.size() < k && (i < base.size() || j < delta.size())) {
    const bool take_base =
        j == delta.size() || (i < base.size() && base[i] < delta[j]);
    out.push_back(take_base ? base[i++] : delta[j++]);
  }
  return out;
}

// The delta of a view flattened to sit directly on its base: the state
// save_snapshot serializes and bootstrap replays. Deterministic (sorted
// by id), so save -> load -> save round-trips byte-identically even when
// the saved view was mid-compaction.
template <int D>
struct FlatDelta {
  std::vector<std::uint32_t> ids;
  std::vector<geo::Point<D>> points;
  std::vector<std::uint32_t> tombstones;
};

template <int D>
FlatDelta<D> flatten_delta(const LiveView<D>& view) {
  std::map<std::uint32_t, geo::Point<D>> adds;
  std::set<std::uint32_t> tombs;
  const DeltaSegment<D>& active = *view.active;
  for (std::size_t i = 0; i < active.add_count(); ++i)
    adds.emplace(active.ids()[i], active.points()[i]);
  for (std::uint32_t t : active.tombstones()) {
    // Active tombstones over sealed adds vanish with the sealed add;
    // only masks of *base* ids survive flattening.
    if (view.has_base() &&
        view.base->internal_id(t) != IndexSnapshot<D>::kNoId)
      tombs.insert(t);
  }
  if (view.sealed != nullptr) {
    const DeltaSegment<D>& sealed = *view.sealed;
    for (std::uint32_t t : sealed.tombstones()) tombs.insert(t);
    for (std::size_t i = 0; i < sealed.add_count(); ++i) {
      const std::uint32_t id = sealed.ids()[i];
      if (active.has_add(id) || active.has_tombstone(id)) continue;
      adds.emplace(id, sealed.points()[i]);
    }
  }
  FlatDelta<D> flat;
  flat.ids.reserve(adds.size());
  flat.points.reserve(adds.size());
  for (const auto& [id, p] : adds) {
    flat.ids.push_back(id);
    flat.points.push_back(p);
  }
  flat.tombstones.assign(tombs.begin(), tombs.end());
  return flat;
}

// The mutable coordinator: owns the update maps under mu_ and publishes
// immutable LiveViews. One LiveStore per broker; updates serialize on
// mu_ (they are rare and tiny next to queries), reads never touch it.
template <int D>
class LiveStore {
 public:
  using Point = geo::Point<D>;
  using SnapshotPtr = typename SnapshotStore<D>::Ptr;
  using SegmentPtr = typename DeltaSegment<D>::Ptr;
  using ViewPtr = std::shared_ptr<const LiveView<D>>;

  struct UpdateOutcome {
    std::size_t delta_pending = 0;  // adds + tombstones across both segments
    std::uint64_t seq = 0;          // publication that made it visible
  };

  // A sealed compaction's inputs. `epoch` pins the world the job was
  // sealed against: any reset (rebuild/bootstrap) bumps the epoch, and a
  // job whose epoch went stale is abandoned instead of installed.
  struct CompactionJob {
    std::uint64_t epoch = 0;
    SnapshotPtr base;
    SegmentPtr sealed;
  };

  // Wait-free: one atomic acquire load (null only before the first
  // reset; the broker installs a base before serving).
  ViewPtr current() const {
    return view_.load(std::memory_order_acquire);
  }

  // Full reset: `base` becomes the world, the delta is dropped, any
  // in-flight compaction is orphaned (its epoch goes stale). The rebuild
  // and bootstrap path.
  void reset(SnapshotPtr base) SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    reset_locked(std::move(base));
  }

  // Reset that loses races gracefully: installs `base` only when it is
  // strictly newer than the current one (concurrent rebuilds resolve the
  // same way SnapshotStore::publish does). Returns false when discarded.
  bool install_rebuilt(SnapshotPtr base) SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    if (base_ != nullptr && base_->version >= base->version) return false;
    reset_locked(std::move(base));
    return true;
  }

  // Cold-start: `base` plus a replayed flat delta (bootstrap path).
  void reset_with_delta(SnapshotPtr base, std::vector<std::uint32_t> ids,
                        std::vector<Point> points,
                        std::vector<std::uint32_t> tombstones)
      SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    reset_locked(std::move(base));
    for (std::size_t i = 0; i < ids.size(); ++i)
      adds_.emplace(ids[i], points[i]);
    tombs_.insert(tombstones.begin(), tombstones.end());
    publish_locked();
  }

  // One-element insert_bulk / remove_bulk: same checks, same
  // all-or-nothing contract, visible to every query submitted after
  // return.
  UpdateOutcome insert(std::uint32_t id, const Point& p)
      SEPDC_EXCLUDES(mu_) {
    return insert_bulk({&id, 1}, {&p, 1});
  }
  UpdateOutcome remove(std::uint32_t id) SEPDC_EXCLUDES(mu_) {
    return remove_bulk({&id, 1});
  }

  // Bulk insert under one view publication. Validation is all-or-
  // nothing: every id must be fresh (not reserved, not live, not
  // repeated inside the batch) and every point finite *before* anything
  // is applied — a batch with one bad entry throws QueryError and
  // changes nothing. The whole batch then lands in a single
  // publish_locked(), so readers see either none of it or all of it
  // (and seq advances by exactly one).
  UpdateOutcome insert_bulk(std::span<const std::uint32_t> ids,
                            std::span<const Point> points)
      SEPDC_EXCLUDES(mu_) {
    SEPDC_ASSERT(ids.size() == points.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      check_insert(ids[i], points[i]);
    LockGuard lock(mu_);
    std::set<std::uint32_t> batch_ids;
    for (std::uint32_t id : ids) {
      if (live_locked(id))
        throw QueryError("id", "insert of an id that is already live");
      if (!batch_ids.insert(id).second)
        throw QueryError("id", "bulk insert repeats an id");
    }
    for (std::size_t i = 0; i < ids.size(); ++i)
      adds_.emplace(ids[i], points[i]);
    publish_locked();
    return outcome_locked();
  }

  // Bulk remove under one view publication; same all-or-nothing
  // validation (every id live, none repeated) and single-publication
  // visibility as insert_bulk.
  UpdateOutcome remove_bulk(std::span<const std::uint32_t> ids)
      SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    std::set<std::uint32_t> batch_ids;
    for (std::uint32_t id : ids) {
      if (!live_locked(id))
        throw QueryError("id", "remove of an id that is not live");
      if (!batch_ids.insert(id).second)
        throw QueryError("id", "bulk remove repeats an id");
    }
    for (std::uint32_t id : ids) {
      // Removing our own add erases it; a pre-existing tombstone for
      // the lower-tier incarnation of this id stays in place.
      auto it = adds_.find(id);
      if (it != adds_.end()) {
        adds_.erase(it);
      } else {
        tombs_.insert(id);
      }
    }
    publish_locked();
    return outcome_locked();
  }

  // Freezes the active segment for compaction. Returns nullopt — and
  // changes nothing — when a compaction is already in flight or there is
  // nothing to compact.
  std::optional<CompactionJob> seal() SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    if (sealed_ != nullptr || (adds_.empty() && tombs_.empty()))
      return std::nullopt;
    sealed_ = make_segment_locked();
    adds_.clear();
    tombs_.clear();
    publish_locked();
    return CompactionJob{epoch_, base_, sealed_};
  }

  // Installs the compacted base and drops the sealed segment — in one
  // publication, so no reader ever pairs the new base with the delta
  // that was folded into it. Returns false (and installs nothing) when
  // the job's epoch went stale.
  bool finish_compaction(const CompactionJob& job, SnapshotPtr next)
      SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    if (epoch_ != job.epoch || sealed_ == nullptr) return false;
    SEPDC_ASSERT(sealed_ == job.sealed);
    base_ = std::move(next);
    sealed_ = nullptr;
    publish_locked();
    return true;
  }

  // Build-failure path: folds the sealed segment back under the active
  // updates so nothing is lost, then clears the seal so a later
  // compaction can retry. No-op when the epoch went stale.
  void cancel_compaction(const CompactionJob& job) SEPDC_EXCLUDES(mu_) {
    LockGuard lock(mu_);
    if (epoch_ != job.epoch || sealed_ == nullptr) return;
    LiveView<D> v;
    v.base = base_;
    v.sealed = sealed_;
    v.active = make_segment_locked();
    FlatDelta<D> flat = flatten_delta(v);
    adds_.clear();
    tombs_.clear();
    for (std::size_t i = 0; i < flat.ids.size(); ++i)
      adds_.emplace(flat.ids[i], flat.points[i]);
    tombs_.insert(flat.tombstones.begin(), flat.tombstones.end());
    sealed_ = nullptr;
    publish_locked();
  }

 private:
  void reset_locked(SnapshotPtr base) SEPDC_REQUIRES(mu_) {
    base_ = std::move(base);
    sealed_ = nullptr;
    adds_.clear();
    tombs_.clear();
    ++epoch_;
    publish_locked();
  }

  bool live_locked(std::uint32_t id) const SEPDC_REQUIRES(mu_) {
    if (adds_.count(id) != 0) return true;
    if (tombs_.count(id) != 0) return false;
    if (sealed_ != nullptr) {
      if (sealed_->has_add(id)) return true;
      if (sealed_->has_tombstone(id)) return false;
    }
    return base_ != nullptr && base_->index != nullptr &&
           base_->internal_id(id) != IndexSnapshot<D>::kNoId;
  }

  SegmentPtr make_segment_locked() const SEPDC_REQUIRES(mu_) {
    if (adds_.empty() && tombs_.empty())
      return DeltaSegment<D>::empty_segment();
    std::vector<std::uint32_t> ids;
    std::vector<Point> points;
    ids.reserve(adds_.size());
    points.reserve(adds_.size());
    for (const auto& [id, p] : adds_) {
      ids.push_back(id);
      points.push_back(p);
    }
    return DeltaSegment<D>::make(
        std::move(ids), std::move(points),
        std::vector<std::uint32_t>(tombs_.begin(), tombs_.end()));
  }

  void publish_locked() SEPDC_REQUIRES(mu_) {
    auto v = std::make_shared<LiveView<D>>();
    v->seq = ++seq_;
    v->base = base_;
    v->sealed = sealed_;
    v->active = make_segment_locked();
    view_.store(std::move(v), std::memory_order_release);
  }

  UpdateOutcome outcome_locked() const SEPDC_REQUIRES(mu_) {
    UpdateOutcome out;
    out.delta_pending = adds_.size() + tombs_.size() +
                        (sealed_ != nullptr
                             ? sealed_->add_count() +
                                   sealed_->tombstone_count()
                             : 0);
    out.seq = seq_;
    return out;
  }

  // Lock protocol (machine-checked under clang -Wthread-safety): mu_
  // guards every mutable field; view_ is the lone atomic — written only
  // under mu_ (store-release), read lock-free (load-acquire), so the
  // published LiveView is always internally consistent.
  mutable Mutex mu_;
  SnapshotPtr base_ SEPDC_GUARDED_BY(mu_);
  SegmentPtr sealed_ SEPDC_GUARDED_BY(mu_);
  std::map<std::uint32_t, Point> adds_ SEPDC_GUARDED_BY(mu_);
  std::set<std::uint32_t> tombs_ SEPDC_GUARDED_BY(mu_);
  std::uint64_t seq_ SEPDC_GUARDED_BY(mu_) = 0;
  std::uint64_t epoch_ SEPDC_GUARDED_BY(mu_) = 0;
  std::atomic<std::shared_ptr<const LiveView<D>>> view_{nullptr};
};

}  // namespace sepdc::service
