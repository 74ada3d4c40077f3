#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.h"

namespace wcp::common {

std::size_t default_threads() {
  if (const char* env = std::getenv("WCP_THREADS"); env && *env) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    WCP_REQUIRE(end != env && *end == '\0' && errno == 0 && v >= 1,
                "WCP_THREADS must be a positive integer, got \"" << env
                                                                 << "\"");
    return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

void fan_out(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)>& job) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto lane = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < std::min(threads, n); ++t)
      helpers.emplace_back(lane);
    lane();
  }  // joins the helpers
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace wcp::common
