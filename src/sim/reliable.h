// Ack/retransmission transport: exactly-once FIFO delivery over the lossy
// network of sim/fault.h, the reliable channels the paper assumes (§2,
// §3.1). Each channel runs the sequence-and-ACK core (common/seq_window.h);
// this host adds a retransmission timer per unacked frame, backing off
// exponentially up to `rto_cap`, and crash durability: a sender's unacked
// frames and a receiver's stash survive a crash/restart of their process
// (write-ahead-log style), frames in flight to a crashed process are lost,
// and a crashed sender's timers hold off until it restarts.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/metrics.h"
#include "common/seq_window.h"
#include "sim/address.h"
#include "sim/payload.h"

namespace wcp::sim {

class Network;
struct Packet;

/// Transport tuning. All values are virtual-time units.
struct ReliableConfig {
  SimTime rto_initial = 24;  ///< first retransmission timeout
  SimTime rto_cap = 192;     ///< exponential backoff ceiling
  std::int64_t header_bits = 64;  ///< per-frame seq/ack overhead on the wire
};

/// On-the-wire unit of the transport. Data frames carry the logical message
/// (kind/payload/bits) plus a channel sequence number; ack frames carry the
/// next seq the receiver expects. Frames never reach Node::on_packet — the
/// Network routes them through ReliableTransport.
struct ReliableFrame {
  enum class Type : std::uint8_t { kData, kAck };
  Type type = Type::kData;
  std::uint64_t seq = 0;  ///< data: channel seq (from 0); ack: next expected
  MsgKind inner_kind = MsgKind::kApplication;
  std::int64_t inner_bits = 0;
  Payload inner;
};

class ReliableTransport {
 public:
  ReliableTransport(Network& net, ReliableConfig cfg);

  /// Sender entry point: assigns the next channel sequence number, keeps a
  /// retransmittable copy until acked, and transmits over the lossy layer.
  void send(NodeAddr from, NodeAddr to, MsgKind kind, Payload&& payload,
            std::int64_t bits);

  /// Receiver entry point: called by the Network when a frame reaches an
  /// up destination. Handles acks, suppresses duplicates, resequences, and
  /// hands in-order logical packets back to the Network for node delivery.
  void on_frame(Packet&& frame);

 private:
  struct Unacked {
    MsgKind kind;
    Payload payload;
    std::int64_t bits = 0;
    SimTime rto = 0;  ///< current retransmission timeout (backs off)
  };
  struct SenderChannel {
    NodeAddr from, to;
    SeqSender<Unacked> window;
  };

  [[nodiscard]] std::uint64_t channel_key(NodeAddr from, NodeAddr to) const;
  /// Sends frame `seq` of channel `key` and arms its retransmission timer.
  void transmit(std::uint64_t key, std::uint64_t seq);

  Network& net_;
  ReliableConfig cfg_;
  std::unordered_map<std::uint64_t, SenderChannel> senders_;
  std::unordered_map<std::uint64_t, SeqReceiver<ReliableFrame>> receivers_;
};

}  // namespace wcp::sim
