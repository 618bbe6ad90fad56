// lint-fixture: src/service/query_broker.hpp
//
// The broker's one flusher thread: started by the constructor, joined by
// shutdown(). query_broker.hpp is in RAW_THREAD_ALLOWLIST.
#pragma once

#include <thread>

namespace sepdc::service {

struct BrokerFlusherFixture {
  std::thread flusher;

  template <class Loop>
  void start(Loop&& loop) {
    flusher = std::thread(loop);
  }
  void stop() {
    if (flusher.joinable()) flusher.join();
  }
};

}  // namespace sepdc::service
