#include "serve/replay.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace wcp::serve {

void enqueue_replay(StreamClient& client, const Computation& comp,
                    const ReplayOptions& opts) {
  const std::span<const ProcessId> preds = comp.predicate_processes();
  const auto n = preds.size();
  WCP_REQUIRE(n >= 1, "replay needs at least one predicate process");
  WCP_REQUIRE(!opts.subs.empty(), "replay needs at least one subscription");

  client.hello(static_cast<std::uint32_t>(n), opts.num_predicates);
  std::uint32_t next_sub_id = 0;
  for (const ReplaySubscription& s : opts.subs)
    client.subscribe(next_sub_id++, s.algo, s.pred_index, s.max_cuts);

  const auto mask_of = [&](std::size_t slot, StateIndex k) -> std::uint64_t {
    if (opts.pred_mask) return opts.pred_mask(slot, k);
    return comp.local_pred(preds[slot], k) ? 1u : 0u;
  };

  StateIndex max_states = 0;
  for (std::size_t s = 0; s < n; ++s)
    max_states = std::max(max_states, comp.num_states(preds[s]));
  for (StateIndex k = 1; k <= max_states; ++k)
    for (std::size_t s = 0; s < n; ++s) {
      if (k > comp.num_states(preds[s])) continue;
      std::vector<StateIndex> clock(n);
      for (std::size_t t = 0; t < n; ++t)
        clock[t] = comp.clock_component(preds[s], k, preds[t]);
      client.snapshot(static_cast<std::uint32_t>(s), mask_of(s, k),
                      std::move(clock));
    }
  client.eos();
  client.finish();
}

ReplayResult replay_stream(const Computation& comp,
                           const ReplayOptions& opts) {
  auto [client_end, server_end] = make_pipe(opts.faults);

  Session session(opts.serve, [&server = *server_end](
                                  std::vector<std::uint8_t> bytes) {
    server.send(bytes);
  });

  StreamClient client(*client_end, opts.client);
  enqueue_replay(client, comp, opts);

  // Event loop: alternate client pump with server frame processing until
  // the stats frame lands. A stalled round means the pipe dropped frames;
  // the client retransmits its unacked window. The stall bound guards
  // against a wedged protocol (it cannot fire on a fault-free pipe): it
  // counts retransmissions since the session last applied a frame, since
  // a wedged session still receives every resent duplicate.
  std::int64_t stalls = 0;
  std::int64_t applied = 0;
  while (!client.done()) {
    bool progressed = client.pump();
    while (std::optional<std::vector<std::uint8_t>> raw =
               server_end->receive(/*block=*/false)) {
      session.on_frame(*raw);
      progressed = true;
    }
    session.end_batch();  // one cumulative ACK for the round's frames
    if (session.stats().frames_in > applied) {
      applied = session.stats().frames_in;
      stalls = 0;
    }
    if (progressed) continue;
    client.retransmit();
    WCP_CHECK_MSG(++stalls < 10'000,
                  "replay stalled: transport deadlock after "
                      << client.retransmits() << " retransmits");
  }

  ReplayResult result;
  result.verdicts = client.verdicts();
  result.stats = client.server_stats();
  result.pipe = pipe_fault_counters(*client_end);
  result.retransmits = client.retransmits();
  return result;
}

ReplayResult replay_stream_over(const Computation& comp,
                                const ReplayOptions& opts,
                                Transport& transport) {
  StreamClient client(transport, opts.client);
  enqueue_replay(client, comp, opts);
  while (!client.done()) {
    if (!client.pump(/*block=*/true))
      WCP_CHECK_MSG(!transport.closed(),
                    "replay_stream_over: server closed mid-stream");
  }
  ReplayResult result;
  result.verdicts = client.verdicts();
  result.stats = client.server_stats();
  result.retransmits = client.retransmits();
  return result;
}

}  // namespace wcp::serve
