// Node addressing.
//
// Each application process P_i is mated to a monitor process M_i (Fig. 1 of
// the paper); detection variants may add one coordinator (the multi-token
// leader or the centralized checker). A NodeAddr names any of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "common/types.h"

namespace wcp::sim {

enum class NodeRole : std::uint8_t {
  kApplication = 0,
  kMonitor = 1,
  kCoordinator = 2,  // multi-token leader / centralized checker
};

struct NodeAddr {
  NodeRole role = NodeRole::kApplication;
  ProcessId pid;

  friend bool operator==(const NodeAddr&, const NodeAddr&) = default;
  friend auto operator<=>(const NodeAddr&, const NodeAddr&) = default;

  /// Dense index for per-node tables: [0,N) apps, [N,2N) monitors, 2N coord.
  [[nodiscard]] std::size_t index(std::size_t num_processes) const {
    return static_cast<std::size_t>(role) * num_processes +
           (role == NodeRole::kCoordinator ? 0 : pid.idx());
  }

  static NodeAddr app(ProcessId p) { return {NodeRole::kApplication, p}; }
  static NodeAddr monitor(ProcessId p) { return {NodeRole::kMonitor, p}; }
  static NodeAddr coordinator() { return {NodeRole::kCoordinator, ProcessId(0)}; }
};

std::ostream& operator<<(std::ostream& os, const NodeAddr& a);

}  // namespace wcp::sim
