#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wcp::common {
namespace {

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("WCP_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3u);
  ::setenv("WCP_THREADS", "1", 1);
  EXPECT_EQ(default_threads(), 1u);
  ::unsetenv("WCP_THREADS");
  EXPECT_GE(default_threads(), 1u);
}

TEST(ThreadPool, DefaultThreadsRejectsInvalidEnvValues) {
  // A thread count of 0 or garbage used to fall back silently to
  // hardware_concurrency(), hiding typos like WCP_THREADS=O8. Every
  // invalid value must now fail loudly.
  for (const char* bad : {"0", "-1", "-8", " ", "4x", "x4", "garbage",
                          "1e3", "0x4", "99999999999999999999"}) {
    ::setenv("WCP_THREADS", bad, 1);
    EXPECT_THROW(default_threads(), std::invalid_argument)
        << "WCP_THREADS=\"" << bad << "\" should be rejected";
  }
  // An empty value means unset, matching the shell's `WCP_THREADS= cmd`.
  ::setenv("WCP_THREADS", "", 1);
  EXPECT_GE(default_threads(), 1u);
  ::unsetenv("WCP_THREADS");
}

TEST(ThreadPool, SingleLaneRunsInOrderOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  fan_out(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, FanOutRunsEveryJobOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> seen(1000);
    fan_out(seen.size(), threads, [&](std::size_t i) { ++seen[i]; });
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
  fan_out(0, 4, [](std::size_t) { FAIL() << "no job to run"; });
}

TEST(ThreadPool, ResultsLandInJobOrder) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::size_t> out(257);
    fan_out(out.size(), threads, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, FirstExceptionInJobOrderPropagates) {
  for (std::size_t threads : {1u, 4u}) {
    std::atomic<int> ran{0};
    try {
      fan_out(100, threads, [&](std::size_t i) {
        ++ran;
        if (i >= 50 && i % 10 == 3) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "53");
    }
    EXPECT_EQ(ran.load(), 100);  // the other jobs still finished
  }
}

}  // namespace
}  // namespace wcp::common
