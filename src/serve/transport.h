// Frame transports for the streaming service.
//
// A Transport moves whole raw frames (length prefix included) in both
// directions. Two backends:
//
//   - PipeTransport (here): an in-process bidirectional queue pair for
//     deterministic tests and the `wcp_cli stream` replay path. The
//     client->server direction can be wired to a sim::FaultPlan — the PR-3
//     fault model reused at the frame layer: per-frame drop (probabilistic
//     and exact-index), duplication, and pipe-specific adjacent reordering,
//     all sampled from a wcp::Rng seeded by the plan. The server's
//     resequencer plus the client's retransmission must reproduce exactly
//     the verdicts of a clean run (tests/serve_session_test.cc).
//
//   - TcpTransport (serve/tcp.h): a socket for the real daemon.
//
// Frames go out one at a time (send) or as one ordered batch
// (send_batch): StreamClient hands each pump round's send window, and
// each retransmission, to send_batch. The base class spells a batch out
// as one send() per frame, which is what the pipe uses, so its
// per-frame fault injection samples every frame of a batch on its own;
// TcpTransport overrides it so a batch leaves in one socket write.
//
// Thread safety: a PipePair may be driven from two threads (one per end);
// every queue operation locks the pair's mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "sim/fault.h"

namespace wcp::serve {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues one raw frame for the peer.
  virtual void send(std::vector<std::uint8_t> frame) = 0;
  /// Queues raw frames for the peer, in order, as one batch. The default
  /// calls send() once per frame.
  virtual void send_batch(
      std::span<const std::span<const std::uint8_t>> frames);
  /// Next raw frame from the peer, or nullopt if none is pending (never
  /// blocks on the pipe backend; the TCP backend blocks only if `block`).
  virtual std::optional<std::vector<std::uint8_t>> receive(bool block) = 0;
  /// The peer closed its end (no more frames will arrive once drained).
  [[nodiscard]] virtual bool closed() const = 0;
  virtual void close() = 0;
};

/// Fault schedule for the client->server direction of a pipe.
struct PipeFaults {
  sim::FaultPlan plan;   // drop / drop_exact / dup honored at frame level
  double reorder = 0.0;  ///< probability a frame swaps with its predecessor

  [[nodiscard]] bool enabled() const {
    return plan.drop > 0 || plan.dup > 0 || !plan.drop_exact.empty() ||
           reorder > 0;
  }
};

/// Counters of what the fault injection actually did (client->server).
struct PipeFaultCounters {
  std::int64_t sent = 0;  ///< send() calls (transmission attempts)
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t reordered = 0;
};

namespace internal {
struct PipeShared;
}  // namespace internal

/// One end of an in-process pipe. The client end's sends traverse the
/// fault injector; the server end's sends (acks, verdicts) are reliable —
/// faults on the return path only delay acks, which the retransmission
/// logic already covers, so the interesting failure modes are all in the
/// forward direction.
class PipeTransport final : public Transport {
 public:
  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive(bool block) override;
  [[nodiscard]] bool closed() const override;
  void close() override;

 private:
  friend std::pair<std::unique_ptr<PipeTransport>,
                   std::unique_ptr<PipeTransport>>
  make_pipe(const PipeFaults&);
  friend PipeFaultCounters pipe_fault_counters(const PipeTransport&);

  std::shared_ptr<internal::PipeShared> shared_;
  bool is_client_ = false;
};

/// Creates a connected (client, server) transport pair. `faults` applies
/// to client->server frames only.
[[nodiscard]] std::pair<std::unique_ptr<PipeTransport>,
                        std::unique_ptr<PipeTransport>>
make_pipe(const PipeFaults& faults = {});

/// What the injector did so far on the pair this end belongs to.
[[nodiscard]] PipeFaultCounters pipe_fault_counters(const PipeTransport& t);

}  // namespace wcp::serve
