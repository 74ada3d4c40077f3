// Distributed termination detection — the flagship Generalized Conjunctive
// Predicate (GCP, reference [6] of the paper):
//
//     terminated  ⇔  (∀i: passive_i) ∧ (∀ channels: empty)
//
// The run diffuses work messages through the system; a process is passive
// between work items and is reactivated by incoming work. Detecting
// termination with only the local conjunction (∀i passive) is WRONG — it
// fires while work is still in flight. This example shows:
//   1. the WCP detector reporting the (false) all-passive cut,
//   2. the GCP detector rejecting it and finding the true termination cut,
//   3. the ground truth from the workload generator agreeing with 2.
//
//   $ ./termination_detection [processes] [initial_work] [spawn_prob] [seed]
#include <iostream>

#include "detect/gcp.h"
#include "detect/token_vc.h"
#include "example_args.h"
#include "workload/termination_workload.h"

int main(int argc, char** argv) {
  using namespace wcp;

  workload::TerminationSpec spec;
  try {
    const examples::Args args("termination_detection", argc, argv);
    spec.num_processes = static_cast<std::size_t>(
        args.integer(1, "processes", 5, 2, examples::kMaxProcesses));
    spec.initial_work = args.integer(2, "initial_work", 4, 0);
    spec.spawn_prob = args.probability(3, "spawn_prob", 0.4);
    spec.seed = static_cast<std::uint64_t>(args.integer(4, "seed", 21, 0));
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const auto t = workload::make_termination(spec);
  const auto& comp = t.computation;
  std::cout << "work diffusion run: " << comp << ", " << t.work_messages
            << " work messages\n";
  std::cout << "ground-truth termination cut: [";
  for (std::size_t p = 0; p < t.termination_cut.size(); ++p)
    std::cout << (p ? "," : "") << t.termination_cut[p];
  std::cout << "]\n\n";

  // 1. Local predicates only (plain WCP): "everyone is passive".
  detect::RunOptions opts;
  opts.seed = spec.seed;
  const auto wcp_result = detect::run_token_vc(comp, opts);
  std::cout << "WCP (all passive):            " << wcp_result << "\n";
  if (wcp_result.detected && wcp_result.cut != t.termination_cut) {
    std::cout << "  -> FALSE TERMINATION: everyone is passive on that cut"
                 " but work is still in flight:\n";
    for (std::size_t i = 0; i < comp.num_processes(); ++i)
      for (std::size_t j = 0; j < comp.num_processes(); ++j) {
        if (i == j) continue;
        const auto transit = detect::in_transit(
            comp, ProcessId(static_cast<int>(i)), wcp_result.cut[i],
            ProcessId(static_cast<int>(j)), wcp_result.cut[j]);
        if (transit > 0)
          std::cout << "     channel P" << i << "->P" << j << ": " << transit
                    << " message(s) in transit\n";
      }
  }

  // 2. GCP: all passive AND all channels empty.
  const auto channels =
      detect::ChannelPredicate::all_channels_empty(comp.num_processes());
  const auto gcp = detect::detect_gcp(comp, channels);
  std::cout << "\nGCP (passive + channels empty): "
            << (gcp.detected ? "DETECTED" : "not-detected");
  if (gcp.detected) {
    std::cout << " cut=[";
    for (std::size_t s = 0; s < gcp.cut.size(); ++s)
      std::cout << (s ? "," : "") << gcp.cut[s];
    std::cout << "] after " << gcp.eliminations << " eliminations and "
              << gcp.channel_evals << " channel evaluations";
  }
  std::cout << "\n";

  if (!gcp.detected || gcp.cut != t.termination_cut) {
    std::cout << "ERROR: GCP result disagrees with ground truth!\n";
    return 1;
  }
  std::cout << "GCP cut matches the ground-truth termination point.\n";
  return 0;
}
