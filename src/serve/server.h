// Server side of a `wcp-stream 1` connection.
//
// ConnectionDriver is the transport-agnostic frame-at-a-time state machine:
// its host feeds it complete raw frames as they arrive, ends each batch
// with end_batch() (one cumulative ACK per batch, see session.h), and the
// driver pushes the session's responses into the transport, classifying
// the three ways a connection ends — clean FINISH, protocol violation (an
// ERROR frame is sent so a misbehaving client learns exactly which frame
// broke the stream instead of seeing a silent hangup), and transport
// failure (the peer is gone; nothing can be sent). Its one host is
// EventLoopServer (serve/event_loop.h): the epoll reactor drives each
// connection's driver only when its socket is ready, multiplexing
// thousands of connections on a few loop threads.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "serve/session.h"
#include "serve/transport.h"

namespace wcp::serve {

struct ConnectionResult {
  ServeStats stats;
  bool clean = false;        ///< FINISH processed (stats frame sent)
  std::string error;         ///< set when the session was failed
};

/// Drives one server-side connection a frame at a time. Not thread-safe;
/// one driver is owned by exactly one connection host.
class ConnectionDriver {
 public:
  ConnectionDriver(Transport& transport, const ServeOptions& opts);

  /// Feeds one complete raw frame (length prefix included). Returns true
  /// while the connection should keep reading; false once it is done
  /// (clean finish or protocol violation — never throws for those).
  /// Transport errors raised while emitting responses (std::runtime_error
  /// from Transport::send) propagate; route them to on_transport_error().
  bool on_frame(std::span<const std::uint8_t> bytes);
  /// Ends the batch of frames fed since the last call: the session ACKs
  /// them all at once. No-op once done. Transport errors propagate as in
  /// on_frame().
  void end_batch();

  /// Peer EOF before FINISH: finalizes (clean only if the session had
  /// already finished).
  void on_peer_closed();
  /// Protocol violation raised outside on_frame (e.g. the frame assembler
  /// rejecting a corrupt length prefix): sends a best-effort ERROR frame
  /// and finalizes, exactly like an in-frame violation.
  void fail_protocol(const std::string& what);
  /// Transport-level failure (send/recv error): finalizes with the
  /// message; nothing more can be sent to this peer.
  void on_transport_error(const std::string& what);

  /// No further frames are expected; result() is final.
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const ConnectionResult& result() const { return result_; }

 private:
  void finalize();

  Transport& transport_;
  Session session_;
  ConnectionResult result_;
  bool done_ = false;
};

}  // namespace wcp::serve
