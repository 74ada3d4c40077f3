// Detecting mutual-exclusion violations (the paper's §2 example 1).
//
// A buggy lock server occasionally grants the lock to every waiting client
// at once. The WCP  CS_0 ∧ CS_1 ∧ ... ∧ CS_{k-1}  holds exactly when all
// clients are simultaneously inside their critical sections — i.e., when
// mutual exclusion is violated. This example runs many randomized rounds,
// detects the violation online with the token algorithm, and cross-checks
// with the direct-dependence algorithm.
//
//   $ ./mutual_exclusion [num_clients] [rounds] [violation_prob] [seed]
#include <iostream>

#include "detect/direct_dep.h"
#include "detect/token_vc.h"
#include "example_args.h"
#include "workload/mutex_workload.h"

int main(int argc, char** argv) {
  using namespace wcp;

  workload::MutexSpec spec;
  try {
    const examples::Args args("mutual_exclusion", argc, argv);
    spec.num_clients = static_cast<std::size_t>(
        args.integer(1, "num_clients", 3, 2, examples::kMaxProcesses - 1));
    spec.rounds_per_client = args.integer(2, "rounds", 8, 1);
    spec.violation_prob = args.probability(3, "violation_prob", 0.15);
    spec.seed = static_cast<std::uint64_t>(args.integer(4, "seed", 2024, 0));
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "mutex run: " << spec.num_clients << " clients, "
            << spec.rounds_per_client << " rounds, violation_prob="
            << spec.violation_prob << ", seed=" << spec.seed << "\n";

  const auto mc = workload::make_mutex(spec);
  std::cout << "generated " << mc.computation << "\n";
  std::cout << "ground truth: double grant "
            << (mc.violation_injected ? "INJECTED" : "absent") << "\n\n";

  detect::RunOptions opts;
  opts.seed = spec.seed;
  opts.latency = sim::LatencyModel::exponential(4.0);

  const auto token = detect::run_token_vc(mc.computation, opts);
  std::cout << "token-VC detector: " << token << "\n";

  const auto direct = detect::run_direct_dep(mc.computation, opts);
  std::cout << "direct-dep detector: " << direct << "\n\n";

  if (token.detected != mc.violation_injected) {
    std::cout << "ERROR: detector disagrees with ground truth!\n";
    return 1;
  }
  if (token.detected != direct.detected ||
      (token.detected && token.cut != direct.cut)) {
    std::cout << "ERROR: the two algorithms disagree!\n";
    return 1;
  }

  if (token.detected) {
    std::cout << "mutual exclusion VIOLATED; first simultaneous critical "
                 "sections at states:\n";
    for (std::size_t c = 0; c < token.cut.size(); ++c)
      std::cout << "  client " << c << ": local state " << token.cut[c]
                << "\n";
    std::cout << "detected at virtual time " << token.detect_time << " after "
              << token.token_hops << " token hops\n";

    // Distributed breakpoint (Miller-Choi): rerun with halt-on-detect and
    // show where the application froze relative to the violation.
    auto freeze_opts = opts;
    freeze_opts.halt_on_detect = true;
    const auto frozen = detect::run_token_vc(mc.computation, freeze_opts);
    std::cout << "\nwith halt-on-detect, processes froze at states:";
    for (std::size_t p = 0; p < frozen.frozen_cut.size(); ++p)
      std::cout << ' ' << frozen.frozen_cut[p];
    std::cout << "\n(each at or after its violation state — halting is "
                 "asynchronous)\n";
  } else {
    std::cout << "no violation in this run (predicate never held on a "
                 "consistent cut)\n";
  }
  return 0;
}
