#include "serve/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace wcp::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void fd_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0)
    fail_errno("fcntl O_NONBLOCK");
}

}  // namespace

TcpTransport::TcpTransport(int fd) : fd_(fd) { set_nodelay(fd_); }

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::set_nonblocking() {
  fd_nonblocking(fd_);
  nonblocking_ = true;
}

void TcpTransport::send(std::vector<std::uint8_t> frame) {
  const std::span<const std::uint8_t> one(frame);
  send_batch({&one, 1});
}

void TcpTransport::send_batch(
    std::span<const std::span<const std::uint8_t>> frames) {
  if (fd_ < 0 || peer_closed_)
    throw std::runtime_error("tcp send: connection is closed");
  // flush() empties out_ whenever it drains it, so appending is all a
  // frame needs.
  for (const std::span<const std::uint8_t> f : frames)
    out_.insert(out_.end(), f.begin(), f.end());
  if (!nonblocking_) flush();
}

bool TcpTransport::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n >= 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Kernel buffer full (nonblocking sockets only). Keep the tail
      // buffered — compacted so pending_out() bounds memory, not the sum
      // of everything ever sent — and let the caller retry on EPOLLOUT.
      if (out_off_ > 0) {
        out_.erase(out_.begin(),
                   out_.begin() + static_cast<std::ptrdiff_t>(out_off_));
        out_off_ = 0;
      }
      return false;
    }
    // Real socket error: the stream is dead. Surface it — swallowing it
    // here would silently drop the frame tail and desync the peer's
    // frame assembler.
    const int err = errno;
    peer_closed_ = true;
    out_.clear();
    out_off_ = 0;
    throw std::runtime_error(std::string("tcp send: ") + std::strerror(err));
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool TcpTransport::fill(bool block) {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n =
        ::recv(fd_, buf, sizeof(buf), block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      assembler_.feed(std::span<const std::uint8_t>(buf,
                                                    static_cast<std::size_t>(n)));
      // Non-blocking: grab everything already queued, then stop.
      if (block) return true;
      block = false;
      continue;
    }
    if (n == 0) {
      peer_closed_ = true;
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    peer_closed_ = true;
    return false;
  }
}

std::optional<std::vector<std::uint8_t>> TcpTransport::receive(bool block) {
  if (fd_ < 0) return std::nullopt;
  if (nonblocking_) block = false;  // an O_NONBLOCK recv never waits
  for (;;) {
    if (std::optional<std::vector<std::uint8_t>> f = assembler_.next())
      return f;
    if (peer_closed_) return std::nullopt;
    if (!fill(block) && !block) {
      // Non-blocking and nothing new: maybe the fill completed a frame.
      if (std::optional<std::vector<std::uint8_t>> f = assembler_.next())
        return f;
      return std::nullopt;
    }
    if (peer_closed_) {
      // Drain what arrived before EOF.
      if (std::optional<std::vector<std::uint8_t>> f = assembler_.next())
        return f;
      return std::nullopt;
    }
  }
}

bool TcpTransport::closed() const { return fd_ < 0 || peer_closed_; }

void TcpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog)
    : fd_(-1), port_(0) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail_errno("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno("bind 127.0.0.1");
  }
  if (::listen(fd_, backlog) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd_);
    fd_ = -1;
    fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpListener::set_nonblocking() { fd_nonblocking(fd_); }

std::unique_ptr<TcpTransport> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpTransport>(fd);
    if (errno == EINTR) continue;
    fail_errno("accept");
  }
}

std::unique_ptr<TcpTransport> TcpListener::try_accept(
    bool* resource_pressure) {
  if (resource_pressure) *resource_pressure = false;
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpTransport>(fd);
    switch (errno) {
      case EINTR:
      case ECONNABORTED:  // client gave up during the handshake: next
#ifdef EPROTO
      case EPROTO:
#endif
        continue;
      case EAGAIN:
#if EWOULDBLOCK != EAGAIN
      case EWOULDBLOCK:
#endif
        return nullptr;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        // Out of fds/buffers: the connection stays in the backlog; tell
        // the caller to back off instead of spinning on level-triggered
        // readiness.
        if (resource_pressure) *resource_pressure = true;
        return nullptr;
      default:
        fail_errno("accept");
    }
  }
}

std::unique_ptr<TcpTransport> tcp_connect(const std::string& host,
                                          std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("tcp_connect: bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    fail_errno("connect " + host);
  }
  return std::make_unique<TcpTransport>(fd);
}

}  // namespace wcp::serve
