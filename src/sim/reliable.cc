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
  transmit(key, ch.window.push(Unacked{kind, std::move(payload), bits,
                                       cfg_.rto_initial}));
}

void ReliableTransport::transmit(std::uint64_t key, std::uint64_t seq) {
  SenderChannel& ch = senders_.at(key);
  const Unacked& u = *ch.window.find(seq);
  // The frame copies the payload (the original stays for retransmission)
  // and keeps the logical kind on the wire, so per-kind message/bit
  // accounting still reflects what the channel carries.
  net_.raw_send(ch.from, ch.to, u.kind,
                Payload(ReliableFrame{ReliableFrame::Type::kData, seq, u.kind,
                                      u.bits, u.payload}),
                u.bits + cfg_.header_bits);
  // node_after, not a plain timer: a crashed sender stops retransmitting
  // until it restarts (its unacked buffer models durable transport state).
  net_.node_after(ch.from, u.rto, [this, key, seq] {
    SenderChannel& c = senders_.at(key);
    Unacked* unacked = c.window.find(seq);
    if (unacked == nullptr) return;  // acked in the meantime
    // A destination crashed with no scheduled restart stops the timer
    // chain (the unacked state stays) so the simulation can drain.
    if (net_.is_down_forever(c.to)) return;
    ++net_.fault_counters().retransmits;
    unacked->rto = std::min(unacked->rto * 2, cfg_.rto_cap);
    transmit(key, seq);
  });
}

void ReliableTransport::on_frame(Packet&& p) {
  ReliableFrame f = payload_cast<ReliableFrame>(std::move(p.payload));

  if (f.type == ReliableFrame::Type::kAck) {
    // The ack travelled receiver -> sender; the data channel is (to, from).
    const auto it = senders_.find(channel_key(p.to, p.from));
    if (it == senders_.end()) return;
    WCP_CHECK(it->second.window.ack(f.seq));
    return;
  }

  auto& rc = receivers_[channel_key(p.from, p.to)];
  FaultCounters& counters = net_.fault_counters();
  switch (rc.arrive(f.seq, [&] { return std::move(f); })) {
    case SeqArrival::kDuplicate: ++counters.dup_suppressed; break;
    case SeqArrival::kStashed: ++counters.resequenced; break;
    case SeqArrival::kNext:  // hand it up, then every stashed successor
      for (ReliableFrame* d = &f; d != nullptr; d = rc.advance())
        net_.deliver_to_node(Packet{p.from, p.to, d->inner_kind,
                                    d->inner_bits, std::move(d->inner)});
  }
  // Re-ack on every arrival (including duplicates): a lost ack is repaired
  // by the retransmission it provokes.
  ++counters.acks;
  ReliableFrame ack;
  ack.type = ReliableFrame::Type::kAck;
  ack.seq = rc.next();
  net_.raw_send(p.to, p.from, MsgKind::kControl, Payload(std::move(ack)),
                cfg_.header_bits);
}

}  // namespace wcp::sim
