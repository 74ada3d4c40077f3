// The paper's headline comparison as a runnable study: sweep the predicate
// width n at fixed system size N and print, for both algorithms, the
// measured monitor work and traffic — the crossover the abstract promises
// ("The relative values of n and N determine which algorithm is more
// efficient") lands where n^2 ~ N.
//
//   $ ./crossover_study [N] [events_per_process] [seed]
#include <cmath>
#include <iomanip>
#include <iostream>

#include "detect/direct_dep.h"
#include "detect/token_vc.h"
#include "example_args.h"
#include "workload/random_workload.h"

int main(int argc, char** argv) {
  using namespace wcp;

  std::size_t N = 0;
  std::int64_t events = 0;
  std::uint64_t seed = 0;
  try {
    // The sweep starts at predicate width 2, which needs N >= 2.
    const examples::Args args("crossover_study", argc, argv);
    N = static_cast<std::size_t>(
        args.integer(1, "N", 24, 2, examples::kMaxProcesses));
    events = args.integer(2, "events_per_process", 30, 0);
    seed = static_cast<std::uint64_t>(args.integer(3, "seed", 17, 0));
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "n-vs-N crossover study: N=" << N << ", ~" << events
            << " events/process, seed " << seed << "\n";
  std::cout << "token-VC costs ~n^2*m; direct-dependence ~N*m; the work "
               "ratio should cross 1 near n ~ sqrt(N)=" << std::setprecision(3)
            << std::sqrt(static_cast<double>(N)) << "\n\n";

  std::cout << std::setw(5) << "n" << std::setw(9) << "n^2/N" << std::setw(12)
            << "token work" << std::setw(10) << "dd work" << std::setw(9)
            << "ratio" << std::setw(14) << "token bits" << std::setw(12)
            << "dd bits" << "  winner\n";

  for (std::size_t n = 2; n <= N; n = n < 4 ? n + 1 : n * 3 / 2) {
    workload::RandomSpec spec;
    spec.num_processes = N;
    spec.num_predicate = n;
    spec.events_per_process = events;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);

    detect::RunOptions opts;
    opts.seed = seed + n;
    opts.latency = sim::LatencyModel::uniform(1, 4);

    const auto token = detect::run_token_vc(comp, opts);
    const auto dd = detect::run_direct_dep(comp, opts);

    const double tw = static_cast<double>(token.monitor_metrics.total_work());
    const double dw = static_cast<double>(dd.monitor_metrics.total_work());
    const double tb =
        static_cast<double>(token.monitor_metrics.total_bits() +
                            token.app_metrics.total_bits(MsgKind::kSnapshot));
    const double db =
        static_cast<double>(dd.monitor_metrics.total_bits() +
                            dd.app_metrics.total_bits(MsgKind::kSnapshot));
    const double ratio = dw > 0 ? tw / dw : 0;
    std::cout << std::setw(5) << n << std::setw(9) << std::fixed
              << std::setprecision(2)
              << static_cast<double>(n * n) / static_cast<double>(N)
              << std::setw(12) << static_cast<std::int64_t>(tw)
              << std::setw(10) << static_cast<std::int64_t>(dw)
              << std::setw(9) << std::setprecision(2) << ratio
              << std::setw(14) << static_cast<std::int64_t>(tb)
              << std::setw(12) << static_cast<std::int64_t>(db) << "  "
              << (ratio < 1.0 ? "token-VC" : "direct-dep") << "\n";
  }

  std::cout << "\n(both algorithms detect the identical first cut on every "
               "row; see tests/agreement_property_test.cc)\n";
  return 0;
}
