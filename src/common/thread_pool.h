// Fan-out of independent jobs across threads — the parallel substrate of
// batch sweeps (detect/batch.h), whose rows stay in job order whatever the
// thread count.
//
// Thread count resolution: callers pass an explicit count; 0 defers to
// default_threads(), which honors the WCP_THREADS environment variable and
// falls back to std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace wcp::common {

/// WCP_THREADS env var if set, else hardware_concurrency() (else 1). The
/// process-wide default for `threads = 0` everywhere. A set-but-invalid
/// WCP_THREADS (non-numeric, trailing garbage, or < 1) throws
/// std::invalid_argument instead of silently falling back — a typo in
/// the variable must not quietly change the thread count.
std::size_t default_threads();

/// Runs job(0) ... job(n - 1), each exactly once, on the calling thread
/// plus min(threads, n) - 1 std::jthreads; every lane takes the next job
/// index from one shared counter. Returns once every job has finished,
/// then rethrows the exception of the lowest-numbered job that threw.
/// threads <= 1 runs the jobs in order on the calling thread.
void fan_out(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)>& job);

}  // namespace wcp::common
