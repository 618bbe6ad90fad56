// lint-fixture: src/service/snapshot.hpp
//
// A second publication slot for index generations: the live store
// (delta_tier.hpp) is the service's one published state, so an
// atomic<shared_ptr> slot in snapshot.hpp is a second, unreviewed
// publication protocol.
#pragma once

#include <atomic>
#include <memory>

namespace sepdc::service {

struct IndexSnapshot;

struct SnapshotSlotFixture {
  std::atomic<std::shared_ptr<const IndexSnapshot>> slot{nullptr};
};

}  // namespace sepdc::service
