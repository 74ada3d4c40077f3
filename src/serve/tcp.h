// TCP backend for the `wcp-stream 1` transport abstraction.
//
// A TcpTransport wraps one connected socket. In blocking mode send()
// writes the whole frame before it returns. In nonblocking mode send()
// only appends the frame to an internal write buffer, and the owner
// flushes: the event loop calls flush() once per wakeup, so every frame a
// wakeup produced leaves in one send(2), and whatever the kernel does not
// take stays buffered for the next flush. send_batch() appends a whole
// batch of frames to the same buffer and, on a blocking socket, flushes
// once, so a client's pump round leaves in one send(2) rather than one
// per frame. A socket error on the send path is surfaced as
// std::runtime_error — a frame (or every frame of a batch) is delivered
// whole or the caller learns why it was not; it is never silently
// truncated, which would desync the peer's frame assembler. receive()
// reassembles frames from the byte stream with a FrameAssembler (TCP has
// no message boundaries).
//
// TcpListener binds a loopback listener — port 0 picks an ephemeral port,
// reported by port(), which is how the tests avoid colliding with anything
// on the host. For the epoll event loop (serve/event_loop.h) the listener
// can be switched nonblocking; try_accept() then drains the accept queue
// without ever blocking a loop thread and absorbs accept-storm transients
// (aborted handshakes, fd exhaustion) instead of throwing.
//
// Everything here is plain POSIX sockets; no external dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "serve/transport.h"

namespace wcp::serve {

class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected socket fd.
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Blocking sockets return with the frame fully written. Nonblocking
  /// sockets only append it to the write buffer (pending_out() grows by
  /// its size); nothing reaches the peer until flush(). Throws
  /// std::runtime_error on a socket error (including send on a transport
  /// whose peer is already gone); no partial frame is ever dropped
  /// silently.
  void send(std::vector<std::uint8_t> frame) override;
  /// send() for a batch: every frame is appended to the write buffer in
  /// order, and a blocking socket then flushes once. The same contract
  /// holds for the batch as a whole: on return every frame was written
  /// whole (blocking) or buffered (nonblocking); otherwise it throws
  /// std::runtime_error and keeps nothing (pending_out() == 0).
  void send_batch(
      std::span<const std::span<const std::uint8_t>> frames) override;
  std::optional<std::vector<std::uint8_t>> receive(bool block) override;
  [[nodiscard]] bool closed() const override;
  void close() override;

  /// Switches the socket to O_NONBLOCK: send() buffers until flush() and
  /// receive() never blocks regardless of its `block` flag.
  void set_nonblocking();
  [[nodiscard]] bool nonblocking() const { return nonblocking_; }
  /// The underlying fd (for epoll registration); -1 once closed.
  [[nodiscard]] int fd() const { return fd_; }

  /// Drains the write buffer. Returns true when it is empty, false when
  /// the kernel buffer filled up first (nonblocking only — arm EPOLLOUT
  /// and call again when writable). Throws std::runtime_error on a socket
  /// error; the buffer is discarded then, since the stream is dead.
  bool flush();
  /// Bytes queued but not yet accepted by the kernel, flushed or not.
  [[nodiscard]] std::size_t pending_out() const {
    return out_.size() - out_off_;
  }

 private:
  /// Reads whatever the socket has; returns false on EOF/error/EAGAIN.
  bool fill(bool block);

  int fd_;
  bool nonblocking_ = false;
  FrameAssembler assembler_;
  bool peer_closed_ = false;
  std::vector<std::uint8_t> out_;  // buffered unwritten bytes
  std::size_t out_off_ = 0;        // consumed prefix of out_
};

class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:port (port 0 = ephemeral) with the
  /// given backlog (deep by default: an accept storm parks in the kernel
  /// queue instead of getting connection-refused). Throws
  /// std::runtime_error if the bind fails (tests treat that as a skip).
  explicit TcpListener(std::uint16_t port, int backlog = 512);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// The listening fd (for epoll registration).
  [[nodiscard]] int fd() const { return fd_; }

  /// Switches the listener to O_NONBLOCK (for try_accept in an event loop).
  void set_nonblocking();

  /// Blocks until a client connects.
  std::unique_ptr<TcpTransport> accept();

  /// Accepts one pending connection, or returns nullptr when none is
  /// ready (EAGAIN) or the process is out of fds/buffers — in the latter
  /// case *resource_pressure is set so the caller can back off briefly
  /// instead of spinning on a level-triggered epoll. Client-side aborts
  /// during the handshake (ECONNABORTED) are skipped, not errors.
  std::unique_ptr<TcpTransport> try_accept(bool* resource_pressure = nullptr);

 private:
  int fd_;
  std::uint16_t port_;
};

/// Connects to host:port; throws std::runtime_error on failure.
std::unique_ptr<TcpTransport> tcp_connect(const std::string& host,
                                          std::uint16_t port);

}  // namespace wcp::serve
