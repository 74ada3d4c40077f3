#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/error.h"

namespace wcp::common {

std::size_t ThreadPool::default_threads() {
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

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  const std::size_t spawned = threads - 1;
  queues_.resize(spawned);
  workers_.reserve(spawned);
  for (std::size_t w = 0; w < spawned; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(Task task) {
  WCP_CHECK_MSG(task != nullptr, "ThreadPool::submit: empty task");
  if (workers_.empty()) {
    // Serial pool: run inline. Collectives never reach this path (they only
    // enqueue helpers when workers exist), so inline execution here cannot
    // recurse into a blocking wait.
    task();
    return;
  }
  {
    std::lock_guard lock(mu_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task& out) {
  // Caller holds mu_. Own queue back (LIFO) first, then steal the front of
  // the first non-empty victim, scanning from the next queue over.
  auto& own = queues_[self];
  if (!own.empty()) {
    out = std::move(own.back());
    own.pop_back();
    return true;
  }
  for (std::size_t d = 1; d < queues_.size(); ++d) {
    auto& victim = queues_[(self + d) % queues_.size()];
    if (!victim.empty()) {
      out = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return try_pop(self, task) || stop_; });
      if (!task) return;  // stop_ with every queue drained
    }
    task();  // exceptions are the collective's job to capture; a bare
             // submit() task must not throw (enforced by callers)
  }
}

std::size_t ThreadPool::resolve_grain(std::size_t n, std::size_t grain) const {
  if (grain > 0) return grain;
  // ~8 chunks per lane: coarse enough to amortize dispatch, fine enough
  // that one slow chunk cannot serialize the tail.
  const std::size_t g = n / (8 * num_threads());
  return std::max<std::size_t>(g, 1);
}

namespace {

/// Shared state of one parallel_for collective. Heap-allocated and held by
/// shared_ptr so helper tasks that dequeue after the collective already
/// completed (their chunks were claimed by faster lanes) find it alive.
struct ForJob {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next_chunk{0};
  std::mutex m;
  std::condition_variable done_cv;
  std::size_t chunks_done = 0;  // guarded by m
  std::exception_ptr error;     // guarded by m; smallest-chunk exception wins
  std::size_t error_chunk = 0;  // guarded by m

  /// Claims and runs chunks until the cursor runs dry.
  void run_chunks() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t b = c * grain;
      const std::size_t e = std::min(n, b + grain);
      std::exception_ptr err;
      try {
        (*body)(b, e);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard lock(m);
      if (err && (!error || c < error_chunk)) {
        error = err;
        error_chunk = c;
      }
      if (++chunks_done == num_chunks) done_cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  const std::size_t g = resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;

  if (workers_.empty() || chunks == 1) {
    // Serial special case: identical iteration order, no pool involvement.
    for (std::size_t b = 0; b < n; b += g) body(b, std::min(n, b + g));
    return;
  }

  auto job = std::make_shared<ForJob>();
  job->n = n;
  job->grain = g;
  job->num_chunks = chunks;
  job->body = &body;

  // One helper per lane that could usefully join; the calling thread is the
  // final participant and guarantees progress even if no helper ever runs.
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([job] { job->run_chunks(); });
  job->run_chunks();

  std::unique_lock lock(job->m);
  job->done_cv.wait(lock, [&] { return job->chunks_done == job->num_chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace wcp::common
