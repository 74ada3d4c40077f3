// Umbrella header: the whole public API of the wcp library.
//
//   #include "wcp.h"
//
// Namespaces:
//   wcp         core model (Computation, VectorClock, ids, traces)
//   wcp::sim    deterministic message-passing simulator
//   wcp::app    application instrumentation (replay drivers, live
//               Instrument, snapshot formats)
//   wcp::pred   local-predicate expression language, variable traces
//   wcp::detect all detectors: token_vc / multi_token / direct_dep /
//               centralized (+ GCP) / gcp / lattice / definitely /
//               boolean DNF / relational / chandy_lamport / offline /
//               lower_bound
//   wcp::workload  synthetic and domain workload generators
#pragma once

#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"

#include "trace/computation.h"
#include "trace/diagram.h"
#include "trace/dot_export.h"
#include "trace/trace_io.h"

#include "sim/address.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

#include "app/app_driver.h"
#include "app/instrument.h"
#include "app/snapshot.h"

#include "predicate/expr.h"
#include "predicate/program.h"

#include "detect/boolean.h"
#include "detect/centralized.h"
#include "detect/chandy_lamport.h"
#include "detect/direct_dep.h"
#include "detect/gcp.h"
#include "detect/lattice.h"
#include "detect/lattice_online.h"
#include "detect/lower_bound.h"
#include "detect/multi_token.h"
#include "detect/offline.h"
#include "detect/relational.h"
#include "detect/result.h"
#include "detect/token_vc.h"

#include "workload/db_workload.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"
#include "workload/ring_workload.h"
#include "workload/termination_workload.h"
