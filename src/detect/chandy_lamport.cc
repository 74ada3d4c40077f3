#include "detect/chandy_lamport.h"

#include <numeric>
#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

std::int64_t ClSnapshot::total_in_channels() const {
  std::int64_t sum = 0;
  for (const auto& row : channel)
    sum += std::accumulate(row.begin(), row.end(), std::int64_t{0});
  return sum;
}

bool ClSnapshot::all_passive_and_empty() const {
  for (bool p : pred)
    if (!p) return false;
  return total_in_channels() == 0;
}

namespace {

class ClCollector final : public sim::Node {
 public:
  struct Config {
    std::size_t num_processes = 1;
    ClOptions options;
    std::shared_ptr<SharedDetection> shared;
    std::vector<ClSnapshot>* snapshots = nullptr;
  };

  explicit ClCollector(Config cfg) : cfg_(std::move(cfg)) {
    WCP_CHECK(cfg_.snapshots != nullptr && cfg_.shared != nullptr);
    reports_.resize(cfg_.num_processes);
  }

  void on_start() override {
    after(cfg_.options.first_round_at, [this] { initiate(); });
  }

  void on_packet(sim::Packet&& p) override {
    WCP_CHECK_MSG(p.kind == MsgKind::kControl,
                  "CL coordinator got " << to_string(p.kind));
    auto report = sim::payload_cast<app::ClReport>(std::move(p.payload));
    WCP_CHECK_MSG(report.round == round_, "report from a stale round");
    const auto idx = report.pid.idx();
    WCP_CHECK(!reports_[idx].has_value());
    reports_[idx] = std::move(report);
    if (++received_ == cfg_.num_processes) finish_round();
  }

 private:
  void initiate() {
    ++round_;
    received_ = 0;
    for (auto& r : reports_) r.reset();
    send(sim::NodeAddr::app(ProcessId(0)), MsgKind::kControl,
         app::ClInitiate{round_}, /*bits=*/64);
  }

  void finish_round() {
    const std::size_t N = cfg_.num_processes;
    ClSnapshot snap;
    snap.round = round_;
    snap.completed_at = net().simulator().now();
    snap.cut.resize(N);
    snap.pred.resize(N);
    snap.channel.assign(N, std::vector<std::int64_t>(N, 0));
    for (std::size_t p = 0; p < N; ++p) {
      const app::ClReport& r = *reports_[p];
      snap.cut[p] = r.state;
      snap.pred[p] = r.pred;
      for (std::size_t q = 0; q < N; ++q)
        snap.channel[q][p] = r.channel_counts[q];
    }

    const bool hit = cfg_.options.stable_predicate
                         ? cfg_.options.stable_predicate(snap)
                         : snap.all_passive_and_empty();
    cfg_.snapshots->push_back(std::move(snap));

    if (hit) {
      auto& shared = *cfg_.shared;
      shared.detected = true;
      shared.cut = cfg_.snapshots->back().cut;
      shared.detect_time = net().simulator().now();
      net().simulator().stop();
      return;
    }
    if (round_ < cfg_.options.max_rounds)
      after(cfg_.options.inter_round_delay, [this] { initiate(); });
  }

  Config cfg_;
  int round_ = 0;
  std::size_t received_ = 0;
  std::vector<std::optional<app::ClReport>> reports_;
};

}  // namespace

ClResult run_chandy_lamport(const Computation& comp, const RunOptions& opts,
                            const ClOptions& cl) {
  const std::size_t N = comp.num_processes();

  sim::NetworkConfig ncfg = network_config(opts, comp);
  // The classic Chandy-Lamport FIFO-channel assumption.
  ncfg.fifo_all = true;
  sim::Network net(std::move(ncfg));

  auto shared = std::make_shared<SharedDetection>();
  auto snapshots = std::make_unique<std::vector<ClSnapshot>>();

  ClCollector::Config cc;
  cc.num_processes = N;
  cc.options = cl;
  cc.shared = shared;
  cc.snapshots = snapshots.get();
  net.add_node(sim::NodeAddr::coordinator(),
               std::make_unique<ClCollector>(std::move(cc)));

  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kVectorClock;
  drv.step_delay = opts.step_delay;
  drv.emit_snapshots = false;  // no monitor processes in a CL run
  app::install_app_drivers(net, comp, drv);

  net.start_and_run();

  ClResult r;
  r.detected = shared->detected;
  r.truncated = net.truncated();
  r.snapshots = std::move(*snapshots);
  r.detect_time = shared->detect_time;
  r.end_time = net.simulator().now();
  r.app_metrics = net.app_metrics();
  r.monitor_metrics = net.monitor_metrics();
  return r;
}

}  // namespace wcp::detect
