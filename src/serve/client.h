// Client side of a `wcp-stream 1` connection.
//
// The client enqueues logical frames (hello/subscribe/snapshot/eos/finish),
// stamps sequence numbers, and pump() moves the stream forward: each round
// hands every frame the unacked window has room for to the transport as
// one batch (Transport::send_batch — one socket write over TCP, one send()
// per frame on the pipe) and drains incoming server frames (acks advance
// the window and release the retransmission buffer; verdicts and stats are
// collected; an ERROR frame raises std::runtime_error with the server's
// message).
//
// Loss recovery shares sim/reliable.h's sequence-and-ACK core
// (common/seq_window.h): frames sent but not cumulatively acked stay in
// flight, and retransmit() resends them all as one batch. The driver calls
// it whenever a full pump round makes no progress (on a faulty pipe, frames
// were dropped); the server's resequencer makes redelivery idempotent. An
// ACK past the frames sent raises std::runtime_error.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/seq_window.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace wcp::serve {

struct ClientOptions {
  std::size_t window = 64;  ///< max unacked frames in flight
};

class StreamClient {
 public:
  explicit StreamClient(Transport& transport, ClientOptions opts = {});

  // Frame enqueueing (buffered; sent by pump()).
  void hello(std::uint32_t slots, std::uint32_t num_predicates);
  void subscribe(std::uint32_t sub_id, StreamAlgo algo,
                 std::uint32_t pred_index, std::int64_t max_cuts = -1);
  void snapshot(std::uint32_t slot, std::uint64_t pred_mask,
                std::vector<StateIndex> clock);
  void eos(std::uint32_t slot = kAllSlots);
  void finish();

  /// Sends what the window allows and drains server frames, repeating
  /// until a round moves nothing (ACKs read in one round open the window
  /// for the next). Returns true if anything moved (a frame sent or
  /// received). With `block`, waits for one server frame when nothing else
  /// can progress (reliable transports only — a pipe's receive never
  /// blocks).
  bool pump(bool block = false);
  /// Resends every unacked frame (call after a stalled pump round).
  void retransmit();

  /// STATS received: the server applied the whole stream.
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool idle() const {
    return outbox_.empty() && sent_.in_flight().empty();
  }
  [[nodiscard]] const std::vector<VerdictBody>& verdicts() const {
    return verdicts_;
  }
  [[nodiscard]] const ServeStats& server_stats() const {
    return server_stats_;
  }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }

 private:
  void enqueue(const Frame& f);
  void handle(const Frame& f);

  Transport& transport_;
  ClientOptions opts_;
  std::deque<std::vector<std::uint8_t>> outbox_;  // not yet sent
  SeqSender<std::vector<std::uint8_t>> sent_;    // sent, not yet acked
  /// Views of the frames one send_batch() call carries (reused).
  std::vector<std::span<const std::uint8_t>> batch_;
  std::vector<VerdictBody> verdicts_;
  ServeStats server_stats_;
  bool done_ = false;
  std::int64_t retransmits_ = 0;
};

}  // namespace wcp::serve
