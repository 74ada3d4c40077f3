#include "serve/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace wcp::serve {

namespace {

std::size_t resolve_loop_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

}  // namespace

struct EventLoopServer::Conn {
  std::unique_ptr<TcpTransport> transport;
  ConnectionDriver driver;
  std::int64_t id = 0;
  std::uint32_t armed = EPOLLIN;  // events currently registered

  Conn(std::unique_ptr<TcpTransport> t, const ServeOptions& opts,
       std::int64_t conn_id)
      : transport(std::move(t)), driver(*transport, opts), id(conn_id) {}
};

struct EventLoopServer::Loop {
  int epfd = -1;
  int wakefd = -1;
  std::thread thread;
  std::mutex mu;
  std::vector<std::unique_ptr<Conn>> incoming;  // handed off by the acceptor
  std::unordered_map<int, std::unique_ptr<Conn>> conns;  // keyed by fd

  ~Loop() {
    conns.clear();  // transports close their fds before the epfd goes
    if (epfd >= 0) ::close(epfd);
    if (wakefd >= 0) ::close(wakefd);
  }
};

EventLoopServer::EventLoopServer(TcpListener& listener, EventLoopOptions opts,
                                 Report report)
    : listener_(listener), opts_(std::move(opts)), report_(std::move(report)) {
  opts_.loop_threads = resolve_loop_threads(opts_.loop_threads);
}

EventLoopServer::~EventLoopServer() {
  stop();
  for (const auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
}

std::int64_t EventLoopServer::served() const {
  std::lock_guard lock(done_mu_);
  return served_;
}

void EventLoopServer::wake(Loop& loop) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.wakefd, &one, sizeof(one));
}

void EventLoopServer::run(std::int64_t once) {
  WCP_REQUIRE(!started_, "EventLoopServer::run may only be called once");
  started_ = true;
  once_ = once;
  listener_.set_nonblocking();

  for (std::size_t i = 0; i < opts_.loop_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epfd = ::epoll_create1(0);
    if (loop->epfd < 0)
      throw std::runtime_error(std::string("epoll_create1: ") +
                               std::strerror(errno));
    loop->wakefd = ::eventfd(0, EFD_NONBLOCK);
    if (loop->wakefd < 0)
      throw std::runtime_error(std::string("eventfd: ") +
                               std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = loop.get();  // wake tag: the loop itself
    if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakefd, &ev) < 0)
      throw std::runtime_error(std::string("epoll_ctl add wakefd: ") +
                               std::strerror(errno));
    loops_.push_back(std::move(loop));
  }
  {
    // The listener lives on loop 0, tagged with `this`.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = this;
    if (::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, listener_.fd(), &ev) < 0)
      throw std::runtime_error(std::string("epoll_ctl add listener: ") +
                               std::strerror(errno));
  }
  for (std::size_t i = 0; i < loops_.size(); ++i)
    loops_[i]->thread = std::thread([this, i] { loop_main(i); });

  {
    std::unique_lock lock(done_mu_);
    done_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             (once_ > 0 && served_ >= once_);
    });
  }
  stop_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) wake(*loop);
  for (const auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
}

void EventLoopServer::stop() {
  {
    // The store must happen under done_mu_: run()'s wait predicate reads
    // stop_, and a store between the predicate evaluating false and the
    // waiter blocking would make this notify a lost wakeup — run() would
    // sleep forever once the last connection has been retired.
    std::lock_guard lock(done_mu_);
    stop_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
  for (const auto& loop : loops_) wake(*loop);
}

void EventLoopServer::loop_main(std::size_t index) {
  Loop& loop = *loops_[index];
  std::array<epoll_event, 128> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epfd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epfd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      if (stop_.load(std::memory_order_acquire)) return;
      void* tag = events[static_cast<std::size_t>(i)].data.ptr;
      if (tag == &loop) {
        // Wakeup: drain the eventfd, adopt handed-off connections.
        std::uint64_t tickets = 0;
        while (::read(loop.wakefd, &tickets, sizeof(tickets)) > 0) {
        }
        adopt_incoming(loop);
        continue;
      }
      if (tag == this) {
        on_accept(loop);
        continue;
      }
      handle_conn(loop, static_cast<Conn*>(tag));
    }
  }
}

void EventLoopServer::on_accept(Loop& loop) {
  for (;;) {
    if (once_ > 0 && accepted_ >= once_) {
      // Quota reached: deregister the listener, or any connection still
      // parked in the backlog keeps its level-triggered readiness firing
      // and spins loop 0 at 100% CPU until the served quota completes.
      if (!listener_retired_) {
        listener_retired_ = true;
        ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      }
      return;
    }
    bool pressure = false;
    std::unique_ptr<TcpTransport> transport = listener_.try_accept(&pressure);
    if (!transport) {
      if (pressure)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return;
    }
    transport->set_nonblocking();
    if (opts_.so_sndbuf > 0)
      ::setsockopt(transport->fd(), SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                   sizeof(opts_.so_sndbuf));
    auto conn = std::make_unique<Conn>(std::move(transport), opts_.serve,
                                       accepted_++);
    Loop& target = *loops_[static_cast<std::size_t>(conn->id) %
                           loops_.size()];
    if (&target == &loop) {
      add_conn(target, std::move(conn));
    } else {
      {
        std::lock_guard lock(target.mu);
        target.incoming.push_back(std::move(conn));
      }
      wake(target);
    }
  }
}

void EventLoopServer::adopt_incoming(Loop& loop) {
  std::vector<std::unique_ptr<Conn>> batch;
  {
    std::lock_guard lock(loop.mu);
    batch.swap(loop.incoming);
  }
  for (auto& conn : batch) add_conn(loop, std::move(conn));
}

void EventLoopServer::add_conn(Loop& loop, std::unique_ptr<Conn> conn) {
  const int fd = conn->transport->fd();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  conn->armed = EPOLLIN;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    // Registration failed (pathological fd state): fail the connection
    // rather than leak it.
    conn->driver.on_transport_error(std::string("epoll_ctl add: ") +
                                    std::strerror(errno));
    Conn* raw = conn.get();
    loop.conns.emplace(fd, std::move(conn));
    retire(loop, raw);
    return;
  }
  loop.conns.emplace(fd, std::move(conn));
}

void EventLoopServer::handle_conn(Loop& loop, Conn* conn) {
  TcpTransport& t = *conn->transport;
  // The loop must survive anything a single connection throws — protocol
  // violations become ERROR frames, everything else (transport failures,
  // an exception escaping a detection core) fails just this connection.
  try {
    // The drive loop runs on EVERY wakeup, not just readable ones: the
    // nonblocking fill may have parked complete frames in the frame
    // assembler before backpressure paused processing, and buffered
    // frames never re-trigger EPOLLIN (level-triggered readiness is
    // about socket bytes, not assembler contents). The flush that brings
    // pending_out() back under the high-water mark must therefore resume
    // the loop itself, or a client that has already sent its whole
    // stream strands forever on an empty socket.
    for (;;) {
      bool paused = false;
      while (!conn->driver.done()) {
        if (t.pending_out() > opts_.write_high_water) {
          paused = true;
          break;
        }
        std::optional<std::vector<std::uint8_t>> raw =
            t.receive(/*block=*/false);
        if (!raw) break;
        conn->driver.on_frame(*raw);
      }
      // One cumulative ACK for the batch, then one write for everything
      // the batch produced.
      conn->driver.end_batch();
      // Liveness: frames stay parked only while the flush leaves output
      // buffered, which arms EPOLLOUT, so a future wakeup is scheduled.
      if (!t.flush() || !paused) break;
    }
    if (!conn->driver.done() && t.closed()) conn->driver.on_peer_closed();
  } catch (const std::invalid_argument& e) {
    conn->driver.fail_protocol(e.what());
  } catch (const std::exception& e) {
    conn->driver.on_transport_error(e.what());
  }
  finish_or_rearm(loop, conn);
}

void EventLoopServer::finish_or_rearm(Loop& loop, Conn* conn) {
  TcpTransport& t = *conn->transport;
  if (conn->driver.done()) {
    // Drain the remaining output (stats / error frame) before closing;
    // if the kernel will not take it now, wait for EPOLLOUT.
    bool drained = true;
    if (!t.closed() && t.pending_out() > 0) {
      try {
        drained = t.flush();
      } catch (...) {
        drained = true;  // peer gone: nothing left to deliver
      }
    }
    if (drained || t.closed()) {
      retire(loop, conn);
      return;
    }
  }
  std::uint32_t want =
      conn->driver.done() ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  if (t.pending_out() > opts_.write_high_water)
    want &= ~static_cast<std::uint32_t>(EPOLLIN);  // backpressure: stop reading
  if (t.pending_out() > 0) want |= EPOLLOUT;
  if (want != conn->armed) {
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = conn;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, t.fd(), &ev) < 0) {
      // A failed MOD leaves the kernel registration out of sync with
      // `armed` and would silently stall the connection; fail it loudly
      // instead, mirroring the add_conn failure path. (No-op on a driver
      // that already finished but could not drain.)
      conn->driver.on_transport_error(std::string("epoll_ctl mod: ") +
                                      std::strerror(errno));
      retire(loop, conn);
      return;
    }
    conn->armed = want;
  }
}

void EventLoopServer::retire(Loop& loop, Conn* conn) {
  const int fd = conn->transport->fd();
  if (fd >= 0) ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, fd, nullptr);
  {
    // Serialized: concurrent loops never interleave report output.
    std::lock_guard lock(report_mu_);
    if (report_) {
      try {
        report_(conn->id, conn->driver.result());
      } catch (...) {
        // A reporting failure must not take down the loop.
      }
    }
  }
  conn->transport->close();
  loop.conns.erase(fd);  // destroys conn
  {
    std::lock_guard lock(done_mu_);
    ++served_;
  }
  done_cv_.notify_all();
}

}  // namespace wcp::serve
