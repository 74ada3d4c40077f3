// `serve`: what a `wcp_served` tenant sees. An in-process EventLoopServer
// runs on one loop thread; one client thread keeps kInFlight loopback TCP
// streams open and waits for any of them in poll(2), so completions are
// seen the moment they arrive. One op is one connection, timed from
// connect to its STATS frame: HELLO, SUBSCRIBE (token, checker, slicer,
// and on a fixed seeded 1-in-8 share of streams lattice-online), the
// snapshots, EOS and FINISH.
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "detect/lattice.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/replay.h"
#include "serve/session.h"
#include "serve/tcp.h"
#include "workload/random_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sv = wcp::serve;
using wcp::Computation;
using wcp::StateIndex;

// A large pool, so the mean cost of its streams hardly moves with the seed.
constexpr std::size_t kStreams = 256;
constexpr std::size_t kInFlight = 16;
constexpr std::size_t kLatticeEvery = 8;
constexpr std::size_t kBlock = 64;
static_assert(kStreams % kBlock == 0 && kBlock / kLatticeEvery <= kBlock / 2);
// Streams that carry lattice-online are drawn from the same spec but kept
// only when an offline lattice search over them visits a cut count in this
// band, so the head-of-line work they put on the loop is the same for
// every seed.
constexpr std::int64_t kLatticeMinCuts = 1'000;
constexpr std::int64_t kLatticeMaxCuts = 3'000;
// Every set-up probes this many candidates, whatever the seed, so set-up
// time does not depend on how soon the band fills, and is long enough
// (about 0.7-1 s) that scheduling jitter stays small against it.
constexpr std::size_t kCandidates = 1024;
// Cut budget of every lattice-online subscription; far above what the
// kept streams need, so a truncated verdict is a failed op.
constexpr std::int64_t kLatticeBudget = 200'000;
// A stream whose STATS have not arrived by then is a failed op.
constexpr double kStreamTimeout_s = 10.0;

wcp::workload::RandomSpec stream_spec(std::uint64_t seed) {
  wcp::workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 16;
  spec.local_pred_prob = 0.25;
  spec.seed = seed;
  return spec;
}

struct Stream {
  Computation comp;
  std::optional<std::vector<StateIndex>> first_cut;  // the oracle
  bool lattice = false;
  sv::ReplayOptions opts;
};

bool verdicts_match(const Stream& s,
                    const std::vector<sv::VerdictBody>& verdicts) {
  if (verdicts.size() != s.opts.subs.size()) return false;
  for (const sv::VerdictBody& v : verdicts) {
    if (v.truncated || v.detected != s.first_cut.has_value()) return false;
    if (s.first_cut && v.cut != *s.first_cut) return false;
  }
  return true;
}

std::vector<Stream> make_streams(std::uint64_t seed) {
  // Exactly one stream in kLatticeEvery carries lattice-online, placed by a
  // seeded shuffle in the first half of every block of kBlock streams. The
  // second halves carry none, so with every seed some bounded-only streams
  // run clear of lattice-online and serve.hol_wait_ms has both groups.
  std::vector<bool> lattice(kStreams, false);
  wcp::Rng rng(seed ^ 0x5eedULL);
  for (std::size_t b = 0; b < kStreams; b += kBlock) {
    const auto first = lattice.begin() + static_cast<std::ptrdiff_t>(b);
    std::fill(first, first + kBlock / kLatticeEvery, true);
    std::shuffle(first, first + kBlock / 2, rng);
  }

  std::vector<Computation> heavy;
  for (std::uint64_t c = 0; c < kCandidates; ++c) {
    Computation comp =
        wcp::workload::make_random(stream_spec(input_seed(seed, kStreams + c)));
    const auto r = wcp::detect::detect_lattice(comp, kLatticeMaxCuts, 1);
    if (!r.truncated && r.cuts_explored >= kLatticeMinCuts &&
        heavy.size() < kStreams / kLatticeEvery)
      heavy.push_back(std::move(comp));
  }
  if (heavy.size() < kStreams / kLatticeEvery)
    throw std::runtime_error("serve set-up: too few streams in band");

  std::vector<Stream> streams;
  streams.reserve(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    Stream s{lattice[i] ? std::move(heavy.back())
                        : wcp::workload::make_random(
                              stream_spec(input_seed(seed, i))),
             std::nullopt, lattice[i], {}};
    if (s.lattice) heavy.pop_back();
    s.first_cut = s.comp.first_wcp_cut();
    for (const sv::StreamAlgo a :
         {sv::StreamAlgo::kToken, sv::StreamAlgo::kChecker,
          sv::StreamAlgo::kSlicer})
      s.opts.subs.push_back({a, 0, -1});
    if (s.lattice)
      s.opts.subs.push_back({sv::StreamAlgo::kLatticeOnline, 0,
                             kLatticeBudget});
    streams.push_back(std::move(s));
  }
  return streams;
}

/// Records every frame a client sends, so one stream's wire bytes can be
/// replayed into a decoder or a Session without a socket.
class CaptureTransport final : public sv::Transport {
 public:
  void send(std::vector<std::uint8_t> frame) override {
    frames.push_back(std::move(frame));
  }
  std::optional<std::vector<std::uint8_t>> receive(bool) override {
    return std::nullopt;
  }
  [[nodiscard]] bool closed() const override { return false; }
  void close() override {}

  std::vector<std::vector<std::uint8_t>> frames;
};

std::vector<std::vector<std::uint8_t>> capture(const Computation& comp,
                                               const sv::ReplayOptions& opts) {
  CaptureTransport t;
  sv::StreamClient client(t, sv::ClientOptions{
                                 std::numeric_limits<std::size_t>::max()});
  sv::enqueue_replay(client, comp, opts);
  client.pump(false);
  return std::move(t.frames);
}

/// One stream's frames as the client sends them: with every subscription,
/// and once per subscription alone.
struct Captured {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> bytes;  // `frames` back to back
  std::vector<std::vector<std::vector<std::uint8_t>>> per_sub;
};

const char* sub_span(sv::StreamAlgo a) {
  switch (a) {
    case sv::StreamAlgo::kToken: return "session.token";
    case sv::StreamAlgo::kChecker: return "session.checker";
    case sv::StreamAlgo::kSlicer: return "session.slicer";
    case sv::StreamAlgo::kLatticeOnline: return "session.lattice_online";
  }
  return "session.unknown";
}

class Serve final : public Workload {
 public:
  explicit Serve(const Config& cfg)
      : listener_(0),
        server_(listener_, loop_options(), {}),
        streams_(make_streams(cfg.seed)),
        loop_([this] { serve_loop(); }) {}

  ~Serve() override {
    server_.stop();
    loop_.join();
  }

  Serve(const Serve&) = delete;
  Serve& operator=(const Serve&) = delete;

  void run(Recorder& rec, double seconds) override {
    const double end = rec.now() + seconds;
    std::vector<Flight> flights;
    std::vector<pollfd> fds;
    for (;;) {
      while (rec.now() < end && flights.size() < kInFlight)
        flights.push_back(start(rec, streams_[next_++ % streams_.size()]));
      if (flights.empty()) break;

      fds.assign(flights.size(), pollfd{});
      double wake = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < flights.size(); ++i) {
        fds[i].fd = flights[i].client ? flights[i].transport->fd() : -1;
        fds[i].events = POLLIN;
        // A stream whose connect failed has nothing to wait for.
        wake = std::min(wake, flights[i].client
                                  ? flights[i].t0 + kStreamTimeout_s
                                  : 0.0);
      }
      if (rec.now() < end) wake = std::min(wake, end);
      const double wait_ms = std::max(0.0, (wake - rec.now()) * 1e3);
      if (::poll(fds.data(), fds.size(),
                 static_cast<int>(std::ceil(wait_ms))) < 0 &&
          errno != EINTR)
        throw std::runtime_error("poll failed");

      for (std::size_t i = 0; i < flights.size();) {
        Flight& f = flights[i];
        std::optional<bool> ran;  // set once the op has ended
        if (!f.client) {
          ran = false;  // connect failed
        } else if (fds[i].revents != 0) {
          try {
            drive(*f.client);
            if (f.client->done())
              ran = true;
            else if (f.transport->closed())
              ran = false;  // closed before its STATS
          } catch (const std::exception&) {
            ran = false;  // ERROR frame or garbled stream
          }
        }
        if (!ran && rec.now() - f.t0 > kStreamTimeout_s) ran = false;
        if (ran) {
          f.t1 = rec.now();
          finish(rec, f,
                 *ran && verdicts_match(*f.stream, f.client->verdicts()));
          const std::size_t last = flights.size() - 1;
          if (i != last) {
            flights[i] = std::move(flights[last]);
            fds[i] = fds[last];
          }
          flights.pop_back();
        } else {
          ++i;
        }
      }
    }
  }

  // Per-layer pass the TCP loop cannot split: the same streams replayed
  // in-process from their captured client bytes, once through the frame
  // decoder, once into a Session with every subscription, and once per
  // subscription alone.
  void run_breakdown(Recorder& rec, double seconds) override {
    rec.begin_phase("serve.inproc", true, seconds);
    const double end = rec.now() + seconds;
    while (rec.now() < end) {
      const std::size_t i = next_++ % streams_.size();
      replay_inproc(rec, streams_[i], captured(i));
    }
    rec.end_phase();
  }

 private:
  struct Flight {
    const Stream* stream = nullptr;
    std::unique_ptr<sv::TcpTransport> transport;
    std::unique_ptr<sv::StreamClient> client;
    std::int64_t op = 0;
    int root = -1;
    double t0 = 0;
    double t1 = 0;  // when the op ended
  };

  // Pumps until neither side can move: acks read in one round open the
  // window for the next, and once the socket is drained no poll(2) wakeup
  // would come to send the rest.
  static void drive(sv::StreamClient& client) {
    while (!client.done() && client.pump(false)) {
    }
  }

  static sv::EventLoopOptions loop_options() {
    sv::EventLoopOptions o;
    o.loop_threads = 1;
    return o;
  }

  void serve_loop() {
    try {
      server_.run(0);
    } catch (const std::exception& e) {
      // Clients then fail on connect or time out; the ops count it.
      std::fprintf(stderr, "serve loop failed: %s\n", e.what());
    }
  }

  Flight start(Recorder& rec, const Stream& s) {
    Flight f;
    f.stream = &s;
    f.op = rec.next_op();
    f.t0 = rec.now();
    f.root = rec.open("serve.stream", f.op, -1);
    try {
      {
        ScopedSpan span(rec, "serve.connect", f.op, f.root);
        f.transport = sv::tcp_connect("127.0.0.1", listener_.port());
      }
      f.client = std::make_unique<sv::StreamClient>(*f.transport);
      {
        ScopedSpan span(rec, "protocol.encode", f.op, f.root);
        sv::enqueue_replay(*f.client, s.comp, s.opts);
      }
      drive(*f.client);
    } catch (const std::exception&) {
      f.client.reset();  // reported as failed on the next sweep
      f.transport.reset();
    }
    return f;
  }

  static void finish(Recorder& rec, Flight& f, bool ok) {
    rec.close(f.root);
    rec.op_done(f.t0, f.t1, ok, f.stream->lattice ? 1 : 0);
    if (ok && rec.tracing()) {
      const sv::ServeStats& st = f.client->server_stats();
      const double snaps = static_cast<double>(st.snapshots_in);
      rec.sample("serve.acks_per_snapshot",
                 static_cast<double>(st.acks_sent) / snaps);
      rec.sample("serve.gc_rounds", static_cast<double>(st.gc_rounds));
      rec.sample("serve.store_peak_bytes",
                 static_cast<double>(st.store_peak_bytes));
    }
    f.client.reset();
    f.transport.reset();
  }

  const Captured& captured(std::size_t i) {
    if (captured_.size() != streams_.size()) captured_.resize(streams_.size());
    Captured& c = captured_[i];
    if (c.frames.empty()) {
      const Stream& s = streams_[i];
      c.frames = capture(s.comp, s.opts);
      for (const auto& f : c.frames)
        c.bytes.insert(c.bytes.end(), f.begin(), f.end());
      for (const sv::ReplaySubscription& sub : s.opts.subs) {
        sv::ReplayOptions one = s.opts;
        one.subs = {sub};
        c.per_sub.push_back(capture(s.comp, one));
      }
    }
    return c;
  }

  void replay_inproc(Recorder& rec, const Stream& s, const Captured& c) {
    const std::int64_t op = rec.next_op();
    const double t0 = rec.now();
    const int root = rec.open("serve.replay", op, -1);
    const auto slots =
        static_cast<std::uint32_t>(s.comp.predicate_processes().size());
    bool ok = false;
    std::size_t out_bytes = 0;
    std::int64_t snapshots = 0;
    try {
      std::size_t decoded = 0;
      {
        ScopedSpan span(rec, "protocol.decode", op, root);
        sv::FrameAssembler assembler;
        assembler.feed(c.bytes);
        while (std::optional<std::vector<std::uint8_t>> raw =
                   assembler.next()) {
          const sv::Frame f = sv::decode_frame(*raw, slots);
          decoded += f.type == sv::FrameType::kSnapshot ? 1 : 0;
        }
      }
      sv::Session all(s.opts.serve, [&](std::vector<std::uint8_t> b) {
        out_bytes += b.size();
      });
      {
        ScopedSpan span(rec, "session.apply", op, root);
        for (const auto& frame : c.frames) all.on_frame(frame);
      }
      ok = all.finished() && verdicts_match(s, all.verdicts());
      snapshots = all.stats().snapshots_in;
      ok = ok && static_cast<std::int64_t>(decoded) == snapshots;
      for (std::size_t k = 0; k < c.per_sub.size(); ++k) {
        sv::Session one(s.opts.serve, [](std::vector<std::uint8_t>) {});
        ScopedSpan span(rec, sub_span(s.opts.subs[k].algo), op, root);
        for (const auto& frame : c.per_sub[k]) one.on_frame(frame);
        ok = ok && one.finished();
      }
    } catch (const std::exception&) {
      ok = false;
    }
    rec.close(root);
    rec.op_done(t0, rec.now(), ok, s.lattice ? 1 : 0);
    if (ok && snapshots > 0) {
      const auto snaps = static_cast<double>(snapshots);
      rec.sample("serve.bytes_in_per_snapshot",
                 static_cast<double>(c.bytes.size()) / snaps);
      rec.sample("serve.bytes_out_per_snapshot",
                 static_cast<double>(out_bytes) / snaps);
    }
  }

  // Declaration order is start-up order: the loop thread starts last and
  // is joined in the destructor before anything it uses goes away.
  sv::TcpListener listener_;
  sv::EventLoopServer server_;
  std::vector<Stream> streams_;
  std::vector<Captured> captured_;
  std::size_t next_ = 0;
  std::thread loop_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Config& cfg) {
  return std::make_unique<Serve>(cfg);
}

}  // namespace perfbench
