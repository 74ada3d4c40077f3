// Fixed-size work-stealing thread pool — the parallel execution substrate
// for parallel slice construction and batch sweeps.
//
// Design goals, in order:
//   1. Determinism: every collective operation merges results in submission
//      order, regardless of completion order, so parallel detectors can be
//      bit-identical to their serial counterparts.
//   2. No deadlock under nesting: the calling thread always participates in
//      its own parallel_for, so a collective completes even when every
//      worker is busy with outer-level work (help-first scheduling).
//   3. threads == 1 degenerates to plain serial execution on the calling
//      thread — the serial path IS the one-thread special case.
//
// Each worker owns a deque; submit() round-robins tasks across them, the
// owner pops from the back (LIFO, cache-friendly), and idle workers steal
// from the fronts of other queues. parallel_for additionally distributes
// chunks through a shared atomic cursor, which is itself a form of
// work stealing at chunk granularity.
//
// Pool size resolution: an explicit constructor argument wins; 0 defers to
// default_threads(), which honors the WCP_THREADS environment variable and
// falls back to std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wcp::common {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Pool-wide parallelism including the calling thread: `threads` lanes
  /// total, i.e. `threads - 1` spawned workers. 0 = default_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (spawned workers + the calling thread); >= 1.
  [[nodiscard]] std::size_t num_threads() const { return workers_.size() + 1; }

  /// WCP_THREADS env var if set, else hardware_concurrency() (else 1). The
  /// process-wide default for `threads = 0` everywhere. A set-but-invalid
  /// WCP_THREADS (non-numeric, trailing garbage, or < 1) throws
  /// std::invalid_argument instead of silently falling back — a typo in
  /// the variable must not quietly change the thread count.
  static std::size_t default_threads();

  /// Fire-and-forget task; runs on some worker (or inline when the pool
  /// has no workers). Safe to call from inside pool tasks (nested
  /// submission): the task is queued, never run synchronously on the
  /// submitting thread.
  void submit(Task task);

  /// Runs body(begin, end) over disjoint chunks covering [0, n), blocking
  /// until every chunk completed. The calling thread participates, so this
  /// never deadlocks even when nested inside another parallel_for. The
  /// first exception (by chunk order) is rethrown after all chunks finish.
  /// `grain` = max chunk width; 0 picks n / (8 * lanes), clamped to >= 1.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 0);

  /// Element-wise map with deterministic output: out[i] = fn(i), computed
  /// in parallel, returned in index (submission) order. T must be default-
  /// constructible and movable.
  template <typename T>
  std::vector<T> parallel_map(std::size_t n,
                              const std::function<T(std::size_t)>& fn,
                              std::size_t grain = 0) {
    std::vector<T> out(n);
    parallel_for(
        n,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
        },
        grain);
    return out;
  }

  /// Chunked reduction with deterministic merge order: each chunk folds its
  /// indices into a chunk-local accumulator (seeded from `init`), and the
  /// partials are merged left-to-right in chunk order — so the result is
  /// independent of which thread ran which chunk.
  template <typename T>
  T parallel_reduce(std::size_t n, T init,
                    const std::function<void(T&, std::size_t)>& fold,
                    const std::function<void(T&, T&)>& merge,
                    std::size_t grain = 0) {
    if (n == 0) return init;
    const std::size_t g = resolve_grain(n, grain);
    const std::size_t chunks = (n + g - 1) / g;
    std::vector<T> partial(chunks, init);
    parallel_for(
        n,
        [&](std::size_t b, std::size_t e) {
          T& acc = partial[b / g];
          for (std::size_t i = b; i < e; ++i) fold(acc, i);
        },
        g);
    T out = std::move(partial[0]);
    for (std::size_t c = 1; c < chunks; ++c) merge(out, partial[c]);
    return out;
  }

 private:
  [[nodiscard]] std::size_t resolve_grain(std::size_t n,
                                          std::size_t grain) const;
  void worker_loop(std::size_t self);
  /// Pops a task: own queue back first, then steal from other fronts.
  bool try_pop(std::size_t self, Task& out);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Task>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission cursor
  bool stop_ = false;
};

}  // namespace wcp::common
