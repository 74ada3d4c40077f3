// One client connection of the streaming detection service.
//
// A Session is a push-driven state machine: the connection loop hands it
// complete raw frames (in whatever order the transport produced them) and
// it emits encoded response frames through its output callback. Inside:
//
//   1. Resequencer — frames carry per-connection sequence numbers; the
//      session applies them strictly in order through the sequence-and-ACK
//      core it shares with sim/reliable.h (common/seq_window.h), which
//      stashes out-of-order arrivals and drops duplicates. The session
//      adds the stash bound (ServeOptions::reseq_window, the backpressure
//      bound) and the per-batch ACK: the host feeds every frame it drained
//      in one go and then calls end_batch(), which answers the batch with
//      one cumulative ACK — even a batch of duplicates only, so a client
//      that resends after a lost ACK still learns where the stream stands.
//      FINISH answers its own batch: the ACK goes out just before STATS,
//      and STATS counts it.
//
//   2. Subscriptions — HELLO declares slots and a predicate count;
//      SUBSCRIBE attaches one detection core (token, centralized,
//      lattice-online, slicer — detect/stream_core.h, slice/online_slicer.h)
//      to one predicate bit. All cores share the session's StreamBuffer;
//      each reads it through its own SubscriptionView. A VERDICT frame is
//      emitted the moment a core's verdict becomes final.
//
//   3. Frontier GC — every gc_every snapshots the session computes the
//      global-min frontier across live subscriptions, trims the shared
//      buffer below it, and tells each core to collect its own sub-frontier
//      state (the lattice core's visited arena). Invariant: for every slot
//      s, base(s) <= min over live cores of core->frontier(s); since a
//      core's frontier is non-decreasing and it never reads below its
//      frontier, no retired snapshot is ever referenced again. See
//      ALGORITHMS.md §14 for the safety argument.
//
// Any protocol violation throws std::invalid_argument with the
// "wcp-stream parse error:" prefix; the connection driver (server.h) turns
// it into an ERROR frame and closes the connection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "app/state_stream.h"
#include "common/seq_window.h"
#include "serve/protocol.h"
#include "serve/serve_stats.h"
#include "serve/stream_buffer.h"

namespace wcp::serve {

struct ServeOptions {
  /// Snapshots between frontier-GC rounds (0 disables GC).
  std::size_t gc_every = 64;
  /// Max out-of-order frames stashed before the connection is failed.
  std::size_t reseq_window = 256;
  /// Default cut budget for lattice-online subscriptions that pass
  /// max_cuts < 0 (guards the daemon against O(m^n) blowup; <0: unbounded).
  std::int64_t lattice_max_cuts = 1'000'000;
};

class Session {
 public:
  using Output = std::function<void(std::vector<std::uint8_t>)>;

  Session(ServeOptions opts, Output out);
  ~Session();

  /// Feed one complete raw frame (length prefix included). May emit
  /// VERDICT frames, and ACK + STATS once FINISH is applied; other ACKs
  /// wait for end_batch(). Throws std::invalid_argument on malformed or
  /// out-of-protocol input.
  void on_frame(std::span<const std::uint8_t> bytes);
  /// Ends a batch of on_frame() calls: emits one cumulative ACK of every
  /// frame fed since the last one. No-op when nothing was fed or once
  /// finished.
  void end_batch();

  /// FINISH processed: stats emitted, no further frames expected.
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  /// Verdicts emitted so far, in subscription order.
  [[nodiscard]] const std::vector<VerdictBody>& verdicts() const {
    return verdicts_;
  }

 private:
  struct Subscription {
    std::uint32_t id = 0;
    StreamAlgo algo = StreamAlgo::kToken;
    std::uint32_t pred_index = 0;
    std::unique_ptr<SubscriptionView> view;
    std::unique_ptr<app::StreamCore> core;
    bool reported = false;
  };

  void send_ack(std::uint64_t next_seq);
  void apply(std::span<const std::uint8_t> bytes);
  void apply_hello(const HelloBody& h, std::uint64_t seq);
  void apply_subscribe(const SubscribeBody& b, std::uint64_t seq);
  void apply_snapshot(const SnapshotBody& b, std::uint64_t seq);
  void apply_eos(std::uint32_t slot, std::uint64_t seq);
  void apply_finish(std::uint64_t seq);
  void eos_slot(std::size_t s);
  void report_new_verdicts();
  void maybe_gc();
  void gc_round();
  void sample_checker_bytes();
  void emit(const Frame& f);

  ServeOptions opts_;
  Output out_;
  ServeStats stats_;

  SeqReceiver<std::vector<std::uint8_t>> received_;
  std::uint64_t out_seq_ = 0;
  bool ack_owed_ = false;  // frames fed since the last ACK

  // Stream state (established by HELLO).
  bool hello_seen_ = false;
  std::uint32_t num_predicates_ = 0;
  std::unique_ptr<StreamBuffer> buffer_;
  std::vector<Subscription> subs_;
  bool snapshots_started_ = false;
  std::size_t open_slots_ = 0;  // slots without eos
  std::size_t snaps_since_gc_ = 0;
  std::vector<StateIndex> floors_;  // gc scratch

  std::vector<VerdictBody> verdicts_;
  bool finished_ = false;
};

}  // namespace wcp::serve
