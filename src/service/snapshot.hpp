// Immutable index generations: what the query service publishes.
//
// The serving problem: many reader threads query one spatial index while
// a background writer periodically rebuilds it over fresh points. Locking
// the index for the duration of a rebuild stalls every reader for the
// whole build (tens of milliseconds at serving sizes). Instead the service
// publishes *generations*: each rebuild, compaction or cold start
// constructs a complete IndexSnapshot off to the side, and the live store
// (delta_tier.hpp) installs it in one live-view publication. Readers keep
// a reference to the generation for as long as their query runs — a
// reader can never observe a half-built index, and an old generation
// stays alive until its last in-flight query drops the reference.
//
// This file only makes generations: build() over points, make_empty(),
// and load() from a snapshot file. None of them publishes or orders
// anything — LiveStore is the one published slot and the one version
// counter — so nothing here is shared or mutable after construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/separator_index.hpp"
#include "io/snapshot_file.hpp"
#include "parallel/thread_pool.hpp"
#include "service/request.hpp"
#include "service/service_stats.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace sepdc::service {

// One published generation. Everything in here is immutable after
// construction; readers share it by shared_ptr<const IndexSnapshot>.
template <int D>
struct IndexSnapshot {
  using Ptr = std::shared_ptr<const IndexSnapshot>;

  std::uint64_t version = 0;
  // The separator-based partition index: batched, punted and fast-lane
  // queries all search it, so every path shares one (dist2, id) order.
  // Null only in an *empty* generation (zero points — a delta-only
  // service before its first compaction).
  std::shared_ptr<const core::SeparatorIndex<D>> index;
  std::size_t point_count = 0;
  // Internal position -> client-visible external id. Null means the
  // identity map (a generation built straight from a client point span).
  // When set it is strictly increasing with size point_count, so sorting
  // by (dist2, internal) and by (dist2, external) coincide — the delta
  // tier's merge depends on exactly this (see delta_tier.hpp).
  std::shared_ptr<const std::vector<std::uint32_t>> external_ids;

  std::uint32_t external_id(std::uint32_t internal) const {
    return external_ids == nullptr ? internal : (*external_ids)[internal];
  }

  // Internal position for an external id, or kReservedId when this
  // generation does not index it.
  std::uint32_t internal_id(std::uint32_t ext) const {
    if (external_ids == nullptr)
      return ext < point_count ? ext : kReservedId;
    auto it = std::lower_bound(external_ids->begin(),
                               external_ids->end(), ext);
    if (it == external_ids->end() || *it != ext) return kReservedId;
    return static_cast<std::uint32_t>(it - external_ids->begin());
  }

  // Builds generation `version` over `points`. With a trace recorder,
  // the index build emits an "index_build" span. `external_ids`, when
  // non-null, names points[i] as (*external_ids)[i] to clients (strictly
  // increasing — compaction sorts live points by external id precisely
  // to satisfy this); null keeps the identity map.
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
    auto snap = std::make_shared<IndexSnapshot>();
    snap->version = version;
    {
      metrics::TraceSpan span(trace, "index_build", "snapshot");
      snap->index = std::make_shared<const core::SeparatorIndex<D>>(
          points, cfg, pool);
    }
    snap->point_count = points.size();
    snap->external_ids = std::move(external_ids);
    return snap;
  }

  // The zero-point generation: no structures, nothing to query. Lets a
  // broker start delta-only (every answer comes from the live tier until
  // the first compaction builds a real base).
  static Ptr make_empty(std::uint64_t version) {
    auto snap = std::make_shared<IndexSnapshot>();
    snap->version = version;
    return snap;
  }

  // Loads generation `version` from a snapshot file (docs/persistence.md):
  // mmaps `path`, validates it, and adopts the mapping zero-copy. The
  // caller claims `version` locally: the on-disk version came from
  // another service's lifetime, and trusting it could break this one's
  // strictly-monotone publication. `delta` receives the file's flattened
  // pending delta for the caller to install with the base. Throws
  // io::SnapshotIoError — and counts nothing — on any file defect; a
  // good load counts one snapshot_loads and its index_load time.
  static Ptr load(const std::string& path, std::uint64_t version,
                  io::LoadedDelta<D>& delta, ServiceStats* stats = nullptr,
                  metrics::TraceRecorder* trace = nullptr) {
    Timer timer;
    auto snap = std::make_shared<IndexSnapshot>();
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
      delta = std::move(loaded.delta);
    }
    if (stats) {
      ServiceStats::add(stats->snapshot_loads, 1);
      stats->index_load.record_seconds(timer.seconds());
    }
    return snap;
  }
};

}  // namespace sepdc::service
