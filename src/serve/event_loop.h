// Epoll reactor hosting many `wcp-stream 1` connections on a small fixed
// set of loop threads — the replacement for thread-per-connection.
//
// Architecture:
//
//   - k loop threads (EventLoopOptions::loop_threads), each owning a
//     private epoll instance and an eventfd for wakeups. Every connection
//     belongs to exactly one loop for its whole life (round-robin at
//     accept), so connection state needs no locking — only the short
//     handoff queue from the accepting thread is mutex-protected.
//   - The listener is nonblocking and registered on loop 0. On readiness
//     the loop drains the whole accept queue (accept-storm handling:
//     aborted handshakes are skipped; fd exhaustion backs off briefly
//     instead of spinning on level-triggered readiness, with the kernel
//     backlog absorbing the burst).
//   - Each connection is a nonblocking TcpTransport plus a
//     ConnectionDriver (server.h). On each wakeup the loop drains the
//     complete frames into the driver as one batch, ends the batch (one
//     cumulative ACK), and flushes once: the session's responses only
//     append to the transport's write buffer, and everything the wakeup
//     produced leaves in one send(2), never blocking a loop thread.
//
// Backpressure invariants (see docs/ALGORITHMS.md §14):
//
//   - EPOLLOUT is armed iff the connection has buffered output, so a slow
//     reader costs nothing while the kernel drains.
//   - A connection whose buffered output exceeds write_high_water stops
//     being read (EPOLLIN disarmed) until the buffer drains. Buffered
//     output counts every unwritten byte, including what the current
//     wakeup has appended but not yet flushed. Since the session emits
//     output only in response to input, buffered output is bounded by
//     write_high_water plus the burst one frame can trigger —
//     a slow or stalled client caps its own server-side memory and its
//     TCP window eventually closes, pushing the backpressure to the
//     sender.
//   - The frame-drive loop runs on every wakeup, EPOLLOUT included:
//     complete frames the nonblocking fill already pulled into the frame
//     assembler never re-trigger level-triggered EPOLLIN, so the flush
//     that clears backpressure resumes processing them itself: if the
//     wakeup's flush empties the buffer, the drive loop runs again at
//     once. Frames are left parked only while the flush leaves output
//     buffered, which keeps EPOLLOUT armed — a future wakeup is always
//     scheduled, so parked frames can never strand.
//   - A frame is written whole or the connection is failed with the
//     error surfaced; there is no silent tail-drop path.
//
// Per-connection failures (protocol violations, transport errors, even an
// exception escaping a detection core) are caught at the loop boundary:
// the connection is failed and reported, the daemon survives. Completion
// reports are serialized under one mutex, so concurrent connections never
// interleave output lines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/tcp.h"

namespace wcp::serve {

struct EventLoopOptions {
  /// Loop threads multiplexing the connections (0 = auto: up to 4, bounded
  /// by hardware concurrency).
  std::size_t loop_threads = 0;
  /// Buffered-output bytes above which a connection stops being read
  /// until the kernel drains its socket (per-connection memory bound).
  std::size_t write_high_water = 1u << 20;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Shrinking it
  /// makes backpressure engage sooner; the regression tests use it to
  /// exercise the high-water path deterministically.
  int so_sndbuf = 0;
  ServeOptions serve;
};

class EventLoopServer {
 public:
  /// Called once per completed connection, serialized across loops (safe
  /// to write shared output from). May be empty.
  using Report = std::function<void(std::int64_t id,
                                    const ConnectionResult& result)>;

  /// The listener must outlive the server; it is switched nonblocking.
  EventLoopServer(TcpListener& listener, EventLoopOptions opts,
                  Report report);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Serves until stop(), or — with once > 0 — until that many
  /// connections have completed (no further ones are accepted). Blocks
  /// the calling thread; call at most once.
  void run(std::int64_t once = 0);
  /// Unblocks run() from any thread; in-flight connections are dropped.
  void stop();

  /// Connections completed (and reported) so far.
  [[nodiscard]] std::int64_t served() const;

 private:
  struct Conn;
  struct Loop;

  void loop_main(std::size_t index);
  void on_accept(Loop& loop);
  void adopt_incoming(Loop& loop);
  void add_conn(Loop& loop, std::unique_ptr<Conn> conn);
  void handle_conn(Loop& loop, Conn* conn);
  void finish_or_rearm(Loop& loop, Conn* conn);
  void retire(Loop& loop, Conn* conn);
  static void wake(Loop& loop);

  TcpListener& listener_;
  EventLoopOptions opts_;
  Report report_;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stop_{false};
  std::int64_t once_ = 0;      // set by run() before loops start
  std::int64_t accepted_ = 0;  // touched only on loop 0's thread
  bool listener_retired_ = false;  // --once quota hit; also loop 0 only
  bool started_ = false;

  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::int64_t served_ = 0;

  std::mutex report_mu_;
};

}  // namespace wcp::serve
