// Offline executions of the paper's algorithms.
//
// These host the same state machines as the simulator runs — TokenCore
// (Fig. 3) and DdCore (Figs. 4-5) — directly against the computation's
// snapshot streams, with message passing replaced by function calls: no
// simulator, no latency. They detect the same first cut as the online
// versions (asserted by the differential tests, and pinned byte for byte
// by the token-offline/dd-offline golden records) and are fast enough for
// large-scale sweeps (hundreds of processes, thousands of states).
//
// Costs are still accounted: work units per monitor, token hops, message
// counts (what the online run *would* send), so the offline detectors also
// back the complexity experiments at scales where simulating every packet
// is unnecessary.
#pragma once

#include "detect/direct_dep.h"
#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

/// §3 single-token vector-clock algorithm, offline: a TokenCore host
/// (detect/stream_core.h) fed every candidate snapshot, so the Fig. 3 loop
/// is the one the streaming service runs.
DetectionResult detect_token_vc_offline(const Computation& comp);

/// §4 direct-dependence algorithm, offline (serial schedule): a host over
/// N DdCores (detect/direct_dep.h) that answers each poll by calling the
/// polled core. `inspector` sees every core at every token handoff.
DetectionResult detect_direct_dep_offline(const Computation& comp,
                                          const DdInspector& inspector = {});

}  // namespace wcp::detect
