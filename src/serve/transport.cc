#include "serve/transport.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace wcp::serve {

void Transport::send_batch(
    std::span<const std::span<const std::uint8_t>> frames) {
  for (const std::span<const std::uint8_t> f : frames)
    send(std::vector<std::uint8_t>(f.begin(), f.end()));
}

namespace internal {

struct PipeShared {
  std::mutex mu;
  std::deque<std::vector<std::uint8_t>> to_server;
  std::deque<std::vector<std::uint8_t>> to_client;
  bool client_closed = false;
  bool server_closed = false;

  PipeFaults faults;
  Rng rng{1};
  std::int64_t send_index = 0;  // client->server transmission counter
  PipeFaultCounters counters;
};

}  // namespace internal

void PipeTransport::send(std::vector<std::uint8_t> frame) {
  auto& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.mu);
  if (!is_client_) {
    // Server->client direction is reliable (see header).
    sh.to_client.push_back(std::move(frame));
    return;
  }

  const std::int64_t index = sh.send_index++;
  ++sh.counters.sent;
  const auto& plan = sh.faults.plan;
  bool drop = false;
  if (std::find(plan.drop_exact.begin(), plan.drop_exact.end(), index) !=
      plan.drop_exact.end())
    drop = true;
  if (plan.drop > 0 && sh.rng.bernoulli(plan.drop)) drop = true;
  if (drop) {
    ++sh.counters.dropped;
    return;
  }

  const bool dup = plan.dup > 0 && sh.rng.bernoulli(plan.dup);
  sh.to_server.push_back(std::move(frame));
  if (dup) {
    ++sh.counters.duplicated;
    sh.to_server.push_back(sh.to_server.back());
  }
  if (sh.faults.reorder > 0 && sh.to_server.size() >= 2 &&
      sh.rng.bernoulli(sh.faults.reorder)) {
    ++sh.counters.reordered;
    std::swap(sh.to_server.back(), sh.to_server[sh.to_server.size() - 2]);
  }
}

std::optional<std::vector<std::uint8_t>> PipeTransport::receive(bool block) {
  (void)block;  // the pipe never blocks: both ends live in one process
  auto& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.mu);
  auto& q = is_client_ ? sh.to_client : sh.to_server;
  if (q.empty()) return std::nullopt;
  auto frame = std::move(q.front());
  q.pop_front();
  return frame;
}

bool PipeTransport::closed() const {
  auto& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.mu);
  return is_client_ ? sh.server_closed : sh.client_closed;
}

void PipeTransport::close() {
  auto& sh = *shared_;
  std::lock_guard<std::mutex> lock(sh.mu);
  (is_client_ ? sh.client_closed : sh.server_closed) = true;
}

std::pair<std::unique_ptr<PipeTransport>, std::unique_ptr<PipeTransport>>
make_pipe(const PipeFaults& faults) {
  WCP_REQUIRE(faults.plan.drop >= 0 && faults.plan.drop < 1,
              "pipe drop probability must be in [0, 1)");
  WCP_REQUIRE(faults.reorder >= 0 && faults.reorder <= 1,
              "pipe reorder probability must be in [0, 1]");
  auto shared = std::make_shared<internal::PipeShared>();
  shared->faults = faults;
  shared->rng.reseed(faults.plan.seed);

  auto client = std::unique_ptr<PipeTransport>(new PipeTransport());
  auto server = std::unique_ptr<PipeTransport>(new PipeTransport());
  client->shared_ = shared;
  client->is_client_ = true;
  server->shared_ = shared;
  server->is_client_ = false;
  return {std::move(client), std::move(server)};
}

PipeFaultCounters pipe_fault_counters(const PipeTransport& t) {
  auto& sh = *t.shared_;
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.counters;
}

}  // namespace wcp::serve
