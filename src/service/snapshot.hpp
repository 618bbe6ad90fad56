// Immutable index snapshots with atomic shared_ptr handoff.
//
// The serving problem: many reader threads query one spatial index while
// a background writer periodically rebuilds it over fresh points. Locking
// the index for the duration of a rebuild stalls every reader for the
// whole build (tens of milliseconds at serving sizes). Instead the store
// publishes *generations*: each rebuild constructs a complete
// IndexSnapshot off to the side and installs it with one atomic
// shared_ptr store. Readers grab the current generation with one atomic
// load and keep a reference for as long as their query runs — a reader
// can never observe a half-built index, and an old generation stays alive
// until its last in-flight query drops the reference.
//
// Versions are strictly monotone. Concurrent rebuilds are allowed: each
// claims a version up front, and publication is a CAS loop that only
// installs a strictly newer generation, so a slow stale build can never
// clobber a fresher one (it is counted as discarded instead).
//
// Concurrency note for the static-analysis layer (docs/static_analysis.md):
// this file is deliberately lock-free — there is no capability for
// -Wthread-safety to track. The whole point of the design is that the
// snapshot handoff *escapes* the broker's queue lock: build() runs with
// no lock held, publish() is a bare CAS on slot_, and readers only ever
// execute one atomic load. The invariants that replace lock discipline
// (slot_ only moves to strictly newer versions; a published snapshot is
// immutable) are asserted here and exercised by service_concurrency_test.
// The atomics below are on the idiom linter's allowlist for exactly this
// reason; new mutable state in this file must either be atomic with a
// documented protocol or move behind an annotated sepdc::Mutex.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/separator_index.hpp"
#include "io/snapshot_file.hpp"
#include "parallel/thread_pool.hpp"
#include "service/service_stats.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace sepdc::service {

// One published generation. Everything in here is immutable after
// construction; readers share it by shared_ptr<const IndexSnapshot>.
template <int D>
struct IndexSnapshot {
  // "No such id" sentinel; equals the index kNoExclude / block pad id.
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  std::uint64_t version = 0;
  // The separator-based partition index: batched, punted and fast-lane
  // queries all search it, so every path shares one (dist2, id) order.
  // Null only in an *empty* generation (zero points — a delta-only
  // service before its first compaction).
  std::shared_ptr<const core::SeparatorIndex<D>> index;
  std::size_t point_count = 0;
  double build_seconds = 0.0;
  // Internal position -> client-visible external id. Null means the
  // identity map (a generation built straight from a client point span).
  // When set it is strictly increasing with size point_count, so sorting
  // by (dist2, internal) and by (dist2, external) coincide — the delta
  // tier's merge depends on exactly this (see delta_tier.hpp).
  std::shared_ptr<const std::vector<std::uint32_t>> external_ids;

  std::uint32_t external_id(std::uint32_t internal) const {
    return external_ids == nullptr ? internal : (*external_ids)[internal];
  }

  // Internal position for an external id, or kNoId when this generation
  // does not index it.
  std::uint32_t internal_id(std::uint32_t ext) const {
    if (external_ids == nullptr)
      return ext < point_count ? ext : kNoId;
    auto it = std::lower_bound(external_ids->begin(),
                               external_ids->end(), ext);
    if (it == external_ids->end() || *it != ext) return kNoId;
    return static_cast<std::uint32_t>(it - external_ids->begin());
  }
};

template <int D>
class SnapshotStore {
 public:
  using Snapshot = IndexSnapshot<D>;
  using Ptr = std::shared_ptr<const Snapshot>;

  // Builds generation `version` without publishing it. With a trace
  // recorder, the index build emits an "index_build" span.
  // `external_ids`, when non-null, names
  // points[i] as (*external_ids)[i] to clients (strictly increasing —
  // compaction sorts live points by external id precisely to satisfy
  // this); null keeps the identity map.
  static Ptr build(std::span<const geo::Point<D>> points,
                   const core::SeparatorIndexConfig& cfg,
                   par::ThreadPool& pool, std::uint64_t version,
                   metrics::TraceRecorder* trace = nullptr,
                   std::shared_ptr<const std::vector<std::uint32_t>>
                       external_ids = nullptr) {
    SEPDC_CHECK_MSG(!points.empty(), "snapshot over empty point set");
    SEPDC_CHECK_MSG(external_ids == nullptr ||
                        external_ids->size() == points.size(),
                    "external id map disagrees with the point count");
    Timer timer;
    auto snap = std::make_shared<Snapshot>();
    snap->version = version;
    {
      metrics::TraceSpan span(trace, "index_build", "snapshot");
      snap->index = std::make_shared<const core::SeparatorIndex<D>>(
          points, cfg, pool);
    }
    snap->point_count = points.size();
    snap->build_seconds = timer.seconds();
    snap->external_ids = std::move(external_ids);
    return snap;
  }

  // The zero-point generation: no structures, nothing to query. Lets a
  // broker start delta-only (every answer comes from the live tier until
  // the first compaction builds a real base).
  static Ptr make_empty(std::uint64_t version) {
    auto snap = std::make_shared<Snapshot>();
    snap->version = version;
    return snap;
  }

  // Wait-free for readers: one atomic shared_ptr load.
  Ptr current() const { return slot_.load(std::memory_order_acquire); }

  // Version of the currently published generation (0 before the first
  // publish).
  std::uint64_t version() const {
    Ptr cur = current();
    return cur ? cur->version : 0;
  }

  // Claims the next version number for a rebuild about to start.
  std::uint64_t claim_version() {
    return versions_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Atomically installs `next` iff it is strictly newer than the current
  // generation. Returns true when published; false means a newer
  // generation won the race and `next` was discarded.
  bool publish(Ptr next, ServiceStats* stats = nullptr) {
    SEPDC_CHECK_MSG(next && next->version > 0, "publishing null snapshot");
    Ptr cur = slot_.load(std::memory_order_acquire);
    while (!cur || next->version > cur->version) {
      if (slot_.compare_exchange_weak(cur, next,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        if (stats) ServiceStats::add(stats->snapshots_published, 1);
        return true;
      }
    }
    if (stats) ServiceStats::add(stats->snapshots_discarded, 1);
    return false;
  }

  // ----------------------------------------------------- persistence
  // See docs/persistence.md. Both entry points throw io::SnapshotIoError
  // on any file defect and never publish a partially-loaded generation.

  // Serializes the currently published generation to `path` (atomic:
  // tmp file + rename) with an empty delta. Returns false — and writes
  // nothing — when no generation has been published yet or the current
  // generation is empty (a snapshot file needs a built base; the broker
  // serializes base *and* delta coherently via its own save_snapshot).
  bool save_current(const std::string& path, ServiceStats* stats = nullptr,
                    metrics::TraceRecorder* trace = nullptr) const {
    Ptr cur = current();
    if (!cur || cur->index == nullptr) return false;
    metrics::TraceSpan span(trace, "index_save", "snapshot");
    io::SnapshotSidecar<D> sidecar;
    if (cur->external_ids != nullptr)
      sidecar.external_ids = *cur->external_ids;
    io::save_snapshot<D>(path, *cur->index, cur->version, sidecar);
    if (stats) ServiceStats::add(stats->snapshot_saves, 1);
    return true;
  }

  // Bootstraps a generation from a snapshot file: mmaps `path`,
  // validates, adopts the mapping zero-copy, and publishes under a
  // *freshly claimed* version (the on-disk version came from another
  // store's lifetime; trusting it could deadlock this store's
  // strictly-monotone publication). Returns the claimed version. On
  // throw, the store still serves whatever it served before.
  // `out_delta`, when non-null, receives the file's flattened pending
  // delta (inserts/tombstones saved mid-stream) for the caller to replay
  // into its live tier — the store itself publishes only the base.
  std::uint64_t bootstrap_from(const std::string& path,
                               ServiceStats* stats = nullptr,
                               metrics::TraceRecorder* trace = nullptr,
                               io::LoadedDelta<D>* out_delta = nullptr) {
    Timer timer;
    std::uint64_t version = claim_version();
    auto snap = std::make_shared<Snapshot>();
    {
      metrics::TraceSpan span(trace, "index_load", "snapshot");
      io::LoadedSnapshot<D> loaded = io::load_snapshot<D>(path);
      snap->version = version;
      snap->index = std::move(loaded.index);
      snap->point_count = loaded.point_count;
      if (!loaded.external_ids.empty())
        snap->external_ids =
            std::make_shared<const std::vector<std::uint32_t>>(
                std::move(loaded.external_ids));
      if (out_delta != nullptr) *out_delta = std::move(loaded.delta);
    }
    snap->build_seconds = timer.seconds();
    publish(snap, stats);
    if (stats) {
      ServiceStats::add(stats->snapshot_loads, 1);
      stats->index_load.record_seconds(timer.seconds());
    }
    return version;
  }

  // Build + publish. Returns the claimed version (published unless a
  // concurrent rebuild finished a newer one first).
  std::uint64_t rebuild(std::span<const geo::Point<D>> points,
                        const core::SeparatorIndexConfig& cfg,
                        par::ThreadPool& pool,
                        ServiceStats* stats = nullptr) {
    if (stats) ServiceStats::add(stats->rebuilds, 1);
    std::uint64_t version = claim_version();
    publish(build(points, cfg, pool, version), stats);
    return version;
  }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> slot_{nullptr};
  std::atomic<std::uint64_t> versions_{0};
};

}  // namespace sepdc::service
