// Ack/retransmission transport: exactly-once FIFO delivery over the lossy
// network that sim/fault.h produces.
//
// The paper assumes reliable channels plus FIFO app->monitor links (§2,
// §3.1). When a FaultPlan drops, duplicates or reorders traffic, channels
// that opted into this transport regain exactly those guarantees:
//   - every logical message is eventually delivered exactly once
//     (per-message sequence numbers; timeout retransmission with
//     exponential backoff capped at `rto_cap`; cumulative acks;
//     duplicate suppression at the receiver),
//   - delivery order per channel equals send order (a resequencing
//     buffer holds out-of-order frames until the gap fills).
//
// The transport lives inside the Network (one instance per run) but its
// state is logically per-node: a sender's unacked buffer and a receiver's
// resequencing buffer model durable per-process transport state that
// survives a crash/restart of that process (write-ahead-log style), while
// frames in flight to a crashed process are lost like any other message.
// Retransmission timers of a crashed sender hold off until it restarts.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/metrics.h"
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
/// receiver's cumulative in-order high-water mark. Frames never reach
/// Node::on_packet — the Network routes them through ReliableTransport.
struct ReliableFrame {
  enum class Type : std::uint8_t { kData, kAck };
  Type type = Type::kData;
  std::int64_t seq = 0;  ///< data: channel sequence (1-based); ack: cumulative
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
    SimTime rto = 0;  ///< current backoff value
  };
  struct SenderChannel {
    NodeAddr from, to;
    std::int64_t next_seq = 0;   ///< last assigned
    std::int64_t acked = 0;      ///< cumulative ack received
    std::map<std::int64_t, Unacked> unacked;
  };
  struct ReceiverChannel {
    std::int64_t delivered = 0;  ///< cumulative in-order high-water mark
    std::map<std::int64_t, ReliableFrame> pending;  ///< out-of-order buffer
  };

  [[nodiscard]] std::uint64_t channel_key(NodeAddr from, NodeAddr to) const;
  void transmit(SenderChannel& ch, std::int64_t seq);
  void arm_retransmit(std::uint64_t key, std::int64_t seq, SimTime delay);
  void on_retransmit_timer(std::uint64_t key, std::int64_t seq);
  void send_ack(NodeAddr receiver, NodeAddr sender, std::int64_t cumulative);

  Network& net_;
  ReliableConfig cfg_;
  std::unordered_map<std::uint64_t, SenderChannel> senders_;
  std::unordered_map<std::uint64_t, ReceiverChannel> receivers_;
};

}  // namespace wcp::sim
