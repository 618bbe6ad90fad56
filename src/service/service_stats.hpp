// Relaxed-atomic outcome counters for the query service.
//
// Same design as core::RunContext's diagnostics: one ServiceStats is
// shared by every client thread, the flusher, and every rebuild strand.
// Every counter is a sum (or a max), so the final value is independent
// of the interleaving — no locks on the query hot path, and a snapshot
// taken after quiescence is exact.
//
// Outcome taxonomy (per query, mutually exclusive):
//   batched   — answered through a micro-batch flush,
//   punted    — deadline could not survive the batch path, answered
//               immediately through the direct fallback (Punting-Lemma
//               shape: run the fast path only when it can win, otherwise
//               fall back without retrying),
//   fast_lane — the broker was idle (empty queue, no flush in flight) so
//               an interactive-class query took the direct path inline
//               without waiting out a flush interval.
//   batched + punted + fast_lane == submitted.
// Shed requests are counted *outside* this taxonomy: a query rejected by
// admission control (overload) increments only `shed` plus its class
// split (shed == shed_interactive + shed_bulk) — it was never accepted,
// so it never appears in submitted/answered, and the caller-side
// invariant is attempts == submitted + shed.
// Orthogonal markers:
//   expired       — the answer was produced after its deadline (still
//                    exact; the service degrades latency, never results),
//   rebuilt_under — answered while a snapshot rebuild was in flight.
// Flush-trigger taxonomy (per flush, mutually exclusive):
//   flush_by_size + flush_by_deadline + flush_by_stop == flushes
// (a shutdown drain whose size condition was never met counts as
// flush_by_stop, not flush_by_size — the trigger the flusher actually
// acted on, so the trigger mix is trustworthy controller input).
//
// Latency histograms (metrics::Histogram, lock-free log-bucket): the
// counters say *what* happened, the histograms say *where the time
// went*. Recording conventions, and the reconciliation invariants that
// ServiceStatsSnapshot::violations() checks at quiescence:
//   queue_wait    — per batched query: enqueue -> flush swap (ns);
//                   count == batched.
//   batch_execute — per flush: whole execute() duration (ns);
//                   count == flushes.
//   punt_latency  — per punted query: whole fallback answer time (ns);
//                   count == punted.
//   fast_lane_latency — per fast-lane query: whole inline answer time
//                   (ns); count == fast_lane.
//   flush_size    — per flush: total queries in the micro-batch;
//                   count == flushes, sum == batched (sums are exact,
//                   so this reconciles the histogram against the
//                   outcome counters with no bucket error).
//   index_load    — per snapshot bootstrap: whole load_snapshot ->
//                   publish duration (ns); count == snapshot_loads.
//   update_apply  — per insert/remove: apply -> view publication (ns);
//                   count == updates_submitted.
//   compaction_build — per *installed* compaction: seal -> publish (ns);
//                   count == compactions.
// Per-op reconciliation (also checked by violations()):
//   knn_submitted + radius_submitted == submitted,
//   knn_answered == knn_submitted, radius_answered == radius_submitted,
//   updates_submitted == inserts + removes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "support/metrics.hpp"

// Every counter, declared once as X(name, rollup). The snapshot fields,
// the ServiceStats atomics, snapshot() and merge() are generated from
// this list, so they cannot drift apart. `rollup` says how merge()
// combines two services' values: kSum adds (each such count holds per
// shard, so the sum holds for the whole), kMax keeps the larger (high-
// water marks), kGauge keeps this side's value (an operating point is
// per service; summing it means nothing).
#define SEPDC_SERVICE_COUNTERS(X)                                         \
  X(submitted, kSum)          /* queries accepted by the service */       \
  X(batched, kSum)            /* answered via a micro-batch */            \
  X(punted, kSum)             /* answered via the direct fallback */      \
  X(fast_lane, kSum)          /* answered inline on an idle broker */     \
  X(shed, kSum)               /* rejected by admission control */         \
  X(shed_interactive, kSum)   /* shed, interactive class */               \
  X(shed_bulk, kSum)          /* shed, bulk class */                      \
  X(expired, kSum)            /* answered after their deadline */         \
  X(rebuilt_under, kSum)      /* answered while a rebuild was in flight */ \
  X(bulk_requests, kSum)      /* multi-query submissions */               \
  X(class_interactive, kSum)  /* accepted queries, interactive class */   \
  X(class_bulk, kSum)         /* accepted queries, bulk class */          \
  X(flushes, kSum)            /* micro-batches executed */                \
  X(flush_by_size, kSum)      /* flush triggered by max_batch */          \
  X(flush_by_deadline, kSum)  /* flush triggered by flush_interval */     \
  X(flush_by_stop, kSum)      /* shutdown drain, size condition unmet */  \
  X(max_flush_queries, kMax)  /* largest micro-batch seen */              \
  X(rebuilds, kSum)           /* rebuilds started */                      \
  X(snapshots_published, kSum)  /* generations that won publication */    \
  X(snapshots_discarded, kSum)  /* stale builds beaten by a newer one */  \
  X(snapshot_saves, kSum)     /* generations serialized to disk */        \
  X(snapshot_loads, kSum)     /* generations bootstrapped from disk */    \
  X(knn_submitted, kSum)      /* k-NN queries accepted */                 \
  X(radius_submitted, kSum)   /* radius queries accepted */               \
  X(knn_answered, kSum)       /* k-NN queries answered */                 \
  X(radius_answered, kSum)    /* radius queries answered */               \
  X(updates_submitted, kSum)  /* inserts + removes applied */             \
  X(inserts, kSum)            /* live-tier inserts applied */             \
  X(removes, kSum)            /* live-tier removes applied */             \
  X(compactions, kSum)        /* delta -> base merges installed */        \
  X(compactions_abandoned, kSum)  /* sealed but never installed */        \
  X(delta_peak, kMax)         /* largest pending delta seen */            \
  /* Adaptive batching controller (docs/service_architecture.md, "SLO */ \
  /* routing & degradation"): decision counts, then the operating     */ \
  /* point it installed last (gauges: plain stores, last writer wins). */ \
  X(controller_updates, kSum)   /* decisions taken */                     \
  X(controller_tighten, kSum)   /* decisions that shrank the knobs */     \
  X(controller_relax, kSum)     /* decisions that grew the knobs */       \
  X(controller_pressure_tighten, kSum) /* tightened under rebuild or   */ \
                                       /* compaction pressure          */ \
  X(cur_flush_interval_us, kGauge)  /* operating flush interval */        \
  X(cur_max_batch, kGauge)          /* operating batch cap */             \
  /* Sharding (shard_router.hpp): a router counts every accepted query */ \
  /* once in fanout_queries iff it had to visit more than one shard,   */ \
  /* and each shard visit (including the home shard) in shard_visits.  */ \
  X(fanout_queries, kSum)     /* queries that crossed a separator */      \
  X(shard_visits, kSum)       /* total per-shard sub-queries issued */

// Latency / distribution histograms; see the recording conventions at
// the top of this file. merge() combines them bucket-wise.
#define SEPDC_SERVICE_HISTOGRAMS(X)                  \
  X(queue_wait)         /* ns per batched query */   \
  X(batch_execute)      /* ns per flush */           \
  X(punt_latency)       /* ns per punted query */    \
  X(fast_lane_latency)  /* ns per fast-lane query */ \
  X(flush_size)         /* queries per flush */      \
  X(index_load)         /* ns per snapshot bootstrap */ \
  X(update_apply)       /* ns per insert/remove */   \
  X(compaction_build)   /* ns per compaction */

namespace sepdc::service {

// Plain value snapshot, safe to copy around and serialize.
struct ServiceStatsSnapshot {
  enum class Rollup { kSum, kMax, kGauge };

#define SEPDC_FIELD(name, rollup) std::size_t name = 0;
  SEPDC_SERVICE_COUNTERS(SEPDC_FIELD)
#undef SEPDC_FIELD
  // boundary_fanout = fanout_queries / submitted is the measured
  // boundary-crossing fraction the paper's intersection-number bound
  // O(k^(1/d) n^((d-1)/d)) promises stays a vanishing share.
  double boundary_fanout = 0.0;
  double est_batch_us_per_query = 0.0;  // gauge: EWMA batch service cost
#define SEPDC_FIELD(name) metrics::HistogramSnapshot name;
  SEPDC_SERVICE_HISTOGRAMS(SEPDC_FIELD)
#undef SEPDC_FIELD

  // Rolls `other` into this snapshot (ShardRouter::aggregated_stats):
  // kSum counters add, kMax counters keep the larger, histograms merge
  // bucket-wise. Gauges, est_batch_us_per_query and the derived
  // boundary_fanout are per service and stay as they are.
  ServiceStatsSnapshot& merge(const ServiceStatsSnapshot& other) {
#define SEPDC_MERGE(name, r) name = rolled_up(Rollup::r, name, other.name);
    SEPDC_SERVICE_COUNTERS(SEPDC_MERGE)
#undef SEPDC_MERGE
#define SEPDC_MERGE(name) name.merge(other.name);
    SEPDC_SERVICE_HISTOGRAMS(SEPDC_MERGE)
#undef SEPDC_MERGE
    return *this;
  }

  // The accounting invariants, defined once: the "Reconciliation
  // invariants" of docs/observability.md plus the identities in this
  // file's header. They hold for a broker's snapshot, and for a
  // router's aggregated_stats(), taken at quiescence (no request, update
  // or compaction in flight). Returns the name of every invariant that
  // fails; empty means the accounting reconciles. A router's own
  // stats() count accepted queries but never batch, so they are out of
  // scope, as is the caller-side attempts == submitted + shed.
  std::vector<std::string> violations() const {
    // Each invariant is named by its own source text.
#define SEPDC_INVARIANT(lhs, rhs) {#lhs " == " #rhs, (lhs) == (rhs)}
    const std::pair<const char*, bool> invariants[] = {
        SEPDC_INVARIANT(batched + punted + fast_lane, submitted),
        SEPDC_INVARIANT(shed_interactive + shed_bulk, shed),
        SEPDC_INVARIANT(flush_by_size + flush_by_deadline + flush_by_stop,
                        flushes),
        SEPDC_INVARIANT(knn_submitted + radius_submitted, submitted),
        SEPDC_INVARIANT(knn_answered, knn_submitted),
        SEPDC_INVARIANT(radius_answered, radius_submitted),
        SEPDC_INVARIANT(updates_submitted, inserts + removes),
        SEPDC_INVARIANT(queue_wait.count(), batched),
        SEPDC_INVARIANT(punt_latency.count(), punted),
        SEPDC_INVARIANT(fast_lane_latency.count(), fast_lane),
        SEPDC_INVARIANT(batch_execute.count(), flushes),
        SEPDC_INVARIANT(flush_size.count(), flushes),
        SEPDC_INVARIANT(flush_size.sum(), batched),
        SEPDC_INVARIANT(index_load.count(), snapshot_loads),
        SEPDC_INVARIANT(update_apply.count(), updates_submitted),
        SEPDC_INVARIANT(compaction_build.count(), compactions),
    };
#undef SEPDC_INVARIANT
    std::vector<std::string> failed;
    for (const auto& [name, holds] : invariants)
      if (!holds) failed.emplace_back(name);
    return failed;
  }

 private:
  static std::size_t rolled_up(Rollup rollup, std::size_t mine,
                               std::size_t theirs) {
    if (rollup == Rollup::kSum) return mine + theirs;
    if (rollup == Rollup::kMax) return std::max(mine, theirs);
    return mine;  // kGauge
  }
};

class ServiceStats {
 public:
  // Counters and gauges (the gauges hold the broker's operating point,
  // written at construction and by every controller decision so
  // observers can see the adaptation without broker access).
#define SEPDC_ATOMIC(name, rollup) std::atomic<std::size_t> name{0};
  SEPDC_SERVICE_COUNTERS(SEPDC_ATOMIC)
#undef SEPDC_ATOMIC
  // EWMA of per-query batch service time in microseconds; feeds the punt
  // decision (a deadline shorter than the estimated batch-path completion
  // takes the direct fallback instead) and the admission controller (the
  // estimated backlog a new bulk request would join).
  std::atomic<double> est_batch_us_per_query{0.0};
#define SEPDC_HISTOGRAM(name) metrics::Histogram name;
  SEPDC_SERVICE_HISTOGRAMS(SEPDC_HISTOGRAM)
#undef SEPDC_HISTOGRAM

  static void add(std::atomic<std::size_t>& counter, std::size_t v) {
    counter.fetch_add(v, std::memory_order_relaxed);
  }

  // Gauge semantics: last writer wins (the controller is the only
  // writer; readers take whatever operating point was current).
  static void set_gauge(std::atomic<std::size_t>& g, std::size_t v) {
    g.store(v, std::memory_order_relaxed);
  }

  static void bump_max(std::atomic<std::size_t>& m, std::size_t v) {
    std::size_t cur = m.load(std::memory_order_relaxed);
    while (cur < v &&
           !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // CAS loop, not load+store: the flusher is the sole writer today, but
  // the estimator must stay safe as callers grow (multiple broker
  // shards, a warmup prober). The loop guarantees every update applies
  // the EWMA step to the value it actually replaced, so the estimate
  // always stays inside the convex hull of the observations — the
  // invariant the multi-writer stress test pins.
  void observe_batch_cost(double us_per_query) {
    constexpr double kAlpha = 0.25;
    double cur = est_batch_us_per_query.load(std::memory_order_relaxed);
    double next;
    do {
      next = cur == 0.0 ? us_per_query
                        : cur + kAlpha * (us_per_query - cur);
    } while (!est_batch_us_per_query.compare_exchange_weak(
        cur, next, std::memory_order_relaxed));
  }

  ServiceStatsSnapshot snapshot() const {
    ServiceStatsSnapshot s;
#define SEPDC_LOAD(name, r) s.name = name.load(std::memory_order_relaxed);
    SEPDC_SERVICE_COUNTERS(SEPDC_LOAD)
#undef SEPDC_LOAD
#define SEPDC_LOAD(name) s.name = name.snapshot();
    SEPDC_SERVICE_HISTOGRAMS(SEPDC_LOAD)
#undef SEPDC_LOAD
    s.est_batch_us_per_query =
        est_batch_us_per_query.load(std::memory_order_relaxed);
    s.boundary_fanout =
        s.submitted > 0 ? static_cast<double>(s.fanout_queries) /
                              static_cast<double>(s.submitted)
                        : 0.0;
    return s;
  }
};

}  // namespace sepdc::service

#undef SEPDC_SERVICE_COUNTERS
#undef SEPDC_SERVICE_HISTOGRAMS
