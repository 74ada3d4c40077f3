#include "serve/server.h"

#include <stdexcept>
#include <utility>
#include <vector>

namespace wcp::serve {

ConnectionDriver::ConnectionDriver(Transport& transport,
                                   const ServeOptions& opts)
    : transport_(transport),
      session_(opts, [this](std::vector<std::uint8_t> bytes) {
        transport_.send(std::move(bytes));
      }) {}

bool ConnectionDriver::on_frame(std::span<const std::uint8_t> bytes) {
  if (done_) return false;
  try {
    session_.on_frame(bytes);
  } catch (const std::invalid_argument& e) {
    fail_protocol(e.what());
    return false;
  }
  if (session_.finished()) {
    result_.clean = true;
    finalize();
    return false;
  }
  return true;
}

void ConnectionDriver::end_batch() {
  if (!done_) session_.end_batch();
}

void ConnectionDriver::on_peer_closed() {
  if (done_) return;
  result_.clean = session_.finished();
  finalize();
}

void ConnectionDriver::fail_protocol(const std::string& what) {
  if (done_) return;
  result_.error = what;
  try {
    transport_.send(encode_frame(make_error(what), /*seq=*/0));
  } catch (...) {
    // Best effort: the peer may already be gone.
  }
  finalize();
}

void ConnectionDriver::on_transport_error(const std::string& what) {
  if (done_) return;
  if (result_.error.empty()) result_.error = what;
  finalize();
}

void ConnectionDriver::finalize() {
  result_.stats = session_.stats();
  done_ = true;
}

}  // namespace wcp::serve
