// One client request: the unit every service layer passes along — an op
// (k-NN or radius) over a span of queries, with the op's parameter, a
// per-query exclude (k-NN only), the latency budget, the SLO class, and
// whether it came in through a bulk entry point. QueryBroker and
// ShardRouter turn every query entry point into one Request, validate it
// once, and send it down one code path; the router's per-shard
// sub-requests are Requests too. The helpers below are the only places
// that count a submission or a shed, or check an insert, so every layer
// counts and rejects the same way.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "knn/topk.hpp"
#include "service/service_stats.hpp"
#include "support/assert.hpp"

namespace sepdc::service {

// Thrown at submission for requests the service cannot apply or answer
// meaningfully (k == 0, negative/NaN radius, insert of a live id, remove
// of a dead one). Mirrors core::ConfigError: carries the offending field
// so callers can point at the exact parameter. Validation happens
// *before* the request is accounted or enqueued — an invalid request
// never reaches a batch, never mutates the live set, and never skews the
// outcome counters.
class QueryError : public std::invalid_argument {
 public:
  QueryError(std::string field, const std::string& message)
      : std::invalid_argument("query parameter '" + field +
                              "': " + message),
        field_(std::move(field)) {}

  const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

// Per-request SLO class. Routing metadata, never correctness: both
// classes get exact answers with the identical (dist2, id) tie-break;
// they differ only in which degradations the broker may apply.
//   kInteractive — latency-sensitive: eligible for the idle fast-lane,
//                  never shed by admission control.
//   kBulk        — throughput traffic: always takes the batch/punt
//                  machinery, and may be shed with QueryError("overload")
//                  when the estimated backlog exceeds its admission
//                  budget multiple.
// Entry-point defaults: single-query knn()/radius() submit interactive,
// bulk_knn()/bulk_radius() submit bulk; every entry point accepts an
// explicit class.
enum class SloClass : std::uint8_t { kInteractive = 0, kBulk = 1 };

// Only kNoDeadline *exactly* means "no deadline: never punt, never
// shed, never expires" (unless the request's SLO class carries a
// default budget in SloConfig). A negative budget is not a deadline the
// service can honor and is rejected at the door with
// QueryError("budget") — before any counter moves.
inline constexpr std::chrono::microseconds kNoDeadline{0};

// The reserved external id: the PointBlockStore pad lane and the
// "exclude nothing" sentinel, so never a client point's id.
inline constexpr std::uint32_t kReservedId = 0xffffffffu;

using KnnRow = std::vector<knn::TopK::Entry>;
using RadiusRow = std::vector<std::pair<std::uint32_t, double>>;

// Radius rows are sorted by (dist2, id), like k-NN rows.
inline void sort_radius_row(RadiusRow& row) {
  std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
}

// The rows one Request produced, parallel to its queries. Only the
// vector of the request's op is filled.
struct Reply {
  std::vector<KnnRow> knn;
  std::vector<RadiusRow> radius;
};

enum class Op : std::uint8_t { kKnn, kRadius };

template <int D>
struct Request {
  Op op = Op::kKnn;
  std::span<const geo::Point<D>> queries{};
  std::size_t k = 0;                         // kKnn
  double radius = 0.0;                       // kRadius
  std::span<const std::uint32_t> exclude{};  // kKnn: empty or per query
  std::chrono::microseconds budget = kNoDeadline;
  SloClass cls = SloClass::kInteractive;
  bool bulk_entry = false;  // came in through bulk_knn / bulk_radius

  bool is_knn() const { return op == Op::kKnn; }
  std::size_t size() const { return queries.size(); }
  std::uint32_t exclude_at(std::size_t i) const {
    return exclude.empty() ? kReservedId : exclude[i];
  }

  // Requests that can share one batched kernel call: same op and the
  // same k or radius. Radius compares with ==, which validate() makes
  // safe: a NaN radius would match no group, its own included.
  bool same_group(const Request& other) const {
    return op == other.op &&
           (is_knn() ? k == other.k : radius == other.radius);
  }

  // Throws QueryError naming the bad field; called before anything is
  // counted or enqueued.
  void validate() const {
    SEPDC_CHECK_MSG(exclude.empty() || exclude.size() == queries.size(),
                    "knn: exclude must be empty or per-query");
    if (is_knn()) {
      if (k == 0) throw QueryError("k", "k-NN requires k >= 1");
    } else if (!(std::isfinite(radius) && radius >= 0.0)) {
      throw QueryError("radius", "must be finite and >= 0");
    }
    if (budget < kNoDeadline)
      throw QueryError("budget",
                       "budget must be >= 0; only 0 (kNoDeadline) means "
                       "no deadline");
  }

  // A reply with one empty row per query, in the request's op.
  Reply empty_reply() const {
    Reply reply;
    if (is_knn()) reply.knn.resize(size());
    else reply.radius.resize(size());
    return reply;
  }
};

// The four query entry points, written once for both front ends
// (QueryBroker, ShardRouter): each call becomes one Request handed to
// Service::serve. A single-query call is a one-query request of the
// interactive class; a bulk call is a bulk-entry request of the bulk
// class (the whole bulk shares one wait, so per-query synchronization
// cost amortizes away). `exclude`, when non-empty, carries one point id
// per query to skip — pass the identity to compute an all-k-NN over the
// indexed points.
template <class Service, int D>
class QueryEntryPoints {
 public:
  static constexpr std::uint32_t kNoExclude = kReservedId;
  static constexpr std::chrono::microseconds kNoDeadline =
      service::kNoDeadline;

  KnnRow knn(const geo::Point<D>& q, std::size_t k,
             std::chrono::microseconds budget = kNoDeadline,
             std::uint32_t exclude = kNoExclude,
             SloClass cls = SloClass::kInteractive) {
    std::span<const std::uint32_t> ex;
    if (exclude != kNoExclude) ex = {&exclude, 1};
    return std::move(self().serve({.queries = {&q, 1}, .k = k, .exclude = ex,
                                   .budget = budget, .cls = cls})
                         .knn[0]);
  }

  std::vector<KnnRow> bulk_knn(std::span<const geo::Point<D>> queries,
                               std::size_t k,
                               std::chrono::microseconds budget =
                                   kNoDeadline,
                               std::span<const std::uint32_t> exclude = {},
                               SloClass cls = SloClass::kBulk) {
    return self()
        .serve({.queries = queries, .k = k, .exclude = exclude,
                .budget = budget, .cls = cls, .bulk_entry = true})
        .knn;
  }

  RadiusRow radius(const geo::Point<D>& q, double r,
                   std::chrono::microseconds budget = kNoDeadline,
                   SloClass cls = SloClass::kInteractive) {
    return std::move(self().serve({.op = Op::kRadius, .queries = {&q, 1},
                                   .radius = r, .budget = budget,
                                   .cls = cls})
                         .radius[0]);
  }

  std::vector<RadiusRow> bulk_radius(
      std::span<const geo::Point<D>> queries, double r,
      std::chrono::microseconds budget = kNoDeadline,
      SloClass cls = SloClass::kBulk) {
    return self()
        .serve({.op = Op::kRadius, .queries = queries, .radius = r,
                .budget = budget, .cls = cls, .bulk_entry = true})
        .radius;
  }

 private:
  Service& self() { return static_cast<Service&>(*this); }
};

// Counts one accepted request: submitted, its op's count, its class's
// count, and bulk_requests when it came in through a bulk entry point.
template <int D>
void account_submitted(ServiceStats& stats, const Request<D>& req) {
  ServiceStats::add(stats.submitted, req.size());
  ServiceStats::add(
      req.is_knn() ? stats.knn_submitted : stats.radius_submitted,
      req.size());
  ServiceStats::add(req.cls == SloClass::kInteractive
                        ? stats.class_interactive
                        : stats.class_bulk,
                    req.size());
  if (req.bulk_entry) ServiceStats::add(stats.bulk_requests, 1);
}

// Counts `nqueries` queries shed by admission control, split by class.
inline void account_shed(ServiceStats& stats, SloClass cls,
                         std::size_t nqueries) {
  ServiceStats::add(stats.shed, nqueries);
  ServiceStats::add(cls == SloClass::kInteractive ? stats.shed_interactive
                                                  : stats.shed_bulk,
                    nqueries);
}

// The insert checks that need no live set: the id is not reserved and
// the coordinates are finite.
template <int D>
void check_insert(std::uint32_t id, const geo::Point<D>& p) {
  if (id == kReservedId) throw QueryError("id", "0xffffffff is reserved");
  for (int dim = 0; dim < D; ++dim)
    if (!std::isfinite(p[dim]))
      throw QueryError("point", "coordinates must be finite");
}

}  // namespace sepdc::service
