#include "detect/relational.h"

#include "common/error.h"
#include "detect/cut_walk.h"
#include "detect/lattice.h"

namespace wcp::detect {

GeneralResult detect_possibly_general(const pred::VarComputation& vc,
                                      const GlobalPredicate& phi,
                                      std::int64_t max_cuts) {
  WCP_REQUIRE(phi != nullptr, "null global predicate");
  const Computation& comp = vc.computation;
  const std::size_t N = comp.num_processes();

  // The walk over every process (detect/cut_walk.h), stopping at the first
  // cut whose bindings satisfy phi.
  std::vector<ProcessId> procs;
  for (std::size_t p = 0; p < N; ++p)
    procs.emplace_back(static_cast<int>(p));
  std::vector<pred::Env> envs(N);
  GeneralResult res;
  CutWalk walk(TraceClocks{comp, procs}, N, max_cuts);
  const WalkStatus status =
      walk.step([&](const std::vector<StateIndex>& cut) {
        for (std::size_t p = 0; p < N; ++p) envs[p] = vc.env(procs[p], cut[p]);
        if (!phi(envs)) return Visit::kContinue;
        res.cut = cut;
        return Visit::kStop;
      });
  res.detected = status == WalkStatus::kStopped;
  res.truncated = status == WalkStatus::kTruncated;
  res.cuts_explored = walk.visited();
  res.storage = walk.storage();
  return res;
}

}  // namespace wcp::detect
