#include "sim/reliable.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "sim/network.h"

namespace wcp::sim {

ReliableTransport::ReliableTransport(Network& net, ReliableConfig cfg)
    : net_(net), cfg_(cfg) {
  WCP_REQUIRE(cfg_.rto_initial >= 1 && cfg_.rto_cap >= cfg_.rto_initial,
              "reliable transport needs 1 <= rto_initial <= rto_cap");
}

std::uint64_t ReliableTransport::channel_key(NodeAddr from, NodeAddr to) const {
  const std::size_t span = 2 * net_.num_processes() + 1;
  return static_cast<std::uint64_t>(from.index(net_.num_processes())) * span +
         to.index(net_.num_processes());
}

void ReliableTransport::send(NodeAddr from, NodeAddr to, MsgKind kind,
                             Payload&& payload, std::int64_t bits) {
  const std::uint64_t key = channel_key(from, to);
  auto& ch = senders_[key];
  ch.from = from;
  ch.to = to;
  const std::int64_t seq = ++ch.next_seq;
  ch.unacked.emplace(
      seq, Unacked{kind, std::move(payload), bits, cfg_.rto_initial});
  transmit(ch, seq);
  arm_retransmit(key, seq, cfg_.rto_initial);
}

void ReliableTransport::transmit(SenderChannel& ch, std::int64_t seq) {
  const auto it = ch.unacked.find(seq);
  if (it == ch.unacked.end()) return;
  ReliableFrame f;
  f.type = ReliableFrame::Type::kData;
  f.seq = seq;
  f.inner_kind = it->second.kind;
  f.inner_bits = it->second.bits;
  f.inner = it->second.payload;  // keep the original for retransmission
  // The frame keeps the logical kind on the wire so per-kind message/bit
  // accounting still reflects what the channel carries.
  net_.raw_send(ch.from, ch.to, it->second.kind, Payload(std::move(f)),
                it->second.bits + cfg_.header_bits);
}

void ReliableTransport::arm_retransmit(std::uint64_t key, std::int64_t seq,
                                       SimTime delay) {
  // node_after, not a plain timer: a crashed sender stops retransmitting
  // until it restarts (its unacked buffer models durable transport state).
  net_.node_after(senders_.at(key).from, delay,
                  [this, key, seq] { on_retransmit_timer(key, seq); });
}

void ReliableTransport::on_retransmit_timer(std::uint64_t key,
                                            std::int64_t seq) {
  const auto it = senders_.find(key);
  if (it == senders_.end()) return;
  SenderChannel& ch = it->second;
  const auto u = ch.unacked.find(seq);
  if (u == ch.unacked.end()) return;  // acked in the meantime
  if (net_.is_down_forever(ch.to)) {
    // Destination crashed with no scheduled restart. Keep the unacked state
    // but stop the timer chain so the simulation can drain.
    return;
  }
  ++net_.fault_counters().retransmits;
  transmit(ch, seq);
  u->second.rto = std::min(u->second.rto * 2, cfg_.rto_cap);
  arm_retransmit(key, seq, u->second.rto);
}

void ReliableTransport::send_ack(NodeAddr receiver, NodeAddr sender,
                                 std::int64_t cumulative) {
  ++net_.fault_counters().acks;
  ReliableFrame f;
  f.type = ReliableFrame::Type::kAck;
  f.seq = cumulative;
  net_.raw_send(receiver, sender, MsgKind::kControl, Payload(std::move(f)),
                cfg_.header_bits);
}

void ReliableTransport::on_frame(Packet&& p) {
  ReliableFrame f = payload_cast<ReliableFrame>(std::move(p.payload));

  if (f.type == ReliableFrame::Type::kAck) {
    // The ack travelled receiver -> sender; the data channel is (to, from).
    const auto it = senders_.find(channel_key(p.to, p.from));
    if (it == senders_.end()) return;
    SenderChannel& ch = it->second;
    if (f.seq <= ch.acked) return;  // stale cumulative ack
    ch.acked = f.seq;
    ch.unacked.erase(ch.unacked.begin(), ch.unacked.upper_bound(f.seq));
    return;
  }

  const std::uint64_t key = channel_key(p.from, p.to);
  ReceiverChannel& rc = receivers_[key];
  if (f.seq <= rc.delivered || rc.pending.contains(f.seq)) {
    ++net_.fault_counters().dup_suppressed;
  } else if (f.seq == rc.delivered + 1) {
    // In order: hand it up, then flush any buffered successors.
    rc.delivered = f.seq;
    net_.deliver_to_node(
        Packet{p.from, p.to, f.inner_kind, f.inner_bits, std::move(f.inner)});
    for (auto nit = rc.pending.find(rc.delivered + 1); nit != rc.pending.end();
         nit = rc.pending.find(rc.delivered + 1)) {
      ReliableFrame nf = std::move(nit->second);
      rc.pending.erase(nit);
      rc.delivered = nf.seq;
      net_.deliver_to_node(Packet{p.from, p.to, nf.inner_kind, nf.inner_bits,
                                  std::move(nf.inner)});
    }
  } else {
    ++net_.fault_counters().resequenced;
    rc.pending.emplace(f.seq, std::move(f));
  }
  // Re-ack on every arrival (including duplicates): a lost ack is repaired
  // by the retransmission it provokes.
  send_ack(p.to, p.from, rc.delivered);
}

}  // namespace wcp::sim
