// lint-fixture: src/service/shard_router.hpp
//
// A scatter that starts and joins a thread per shard on every call: the
// create/join cost lands on the request path, and nothing bounds how
// many such threads run at once. The router enqueues into each shard's
// broker and waits instead.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace sepdc::service {

template <class Fn>
void scatter_on_joiners(std::size_t n, Fn&& fn) {
  std::vector<std::thread> joiners;
  joiners.reserve(n);
  for (std::size_t i = 0; i < n; ++i) joiners.emplace_back(fn, i);
  for (std::thread& t : joiners) t.join();
}

}  // namespace sepdc::service
