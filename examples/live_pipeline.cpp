// Live (non-replayed) detection: a producer/worker/collector pipeline whose
// nodes are ordinary user-written simulator actors carrying an
// app::Instrument. The WCP is "every worker is drained" — idle after having
// processed at least one job — a classic lull-detection predicate.
//
// This demonstrates the adoption path for real programs: stamp outgoing
// messages with Instrument::on_send, feed received headers to on_receive,
// report the local predicate with set_predicate — the unchanged token
// algorithm monitors do the rest. A shared Recorder reconstructs the run's
// computation so the detected cut can be checked against the offline
// oracle afterwards.
//
//   $ ./live_pipeline [workers] [jobs] [seed]
#include <deque>
#include <iostream>
#include <limits>

#include "app/instrument.h"
#include "detect/token_vc.h"
#include "example_args.h"

namespace {

using namespace wcp;

struct JobMsg {
  app::ClockHeader hdr;
  int payload = 0;
};

class Producer final : public sim::Node {
 public:
  Producer(app::Instrument::Config icfg, std::vector<ProcessId> workers,
           int jobs)
      : icfg_(std::move(icfg)), workers_(std::move(workers)), jobs_(jobs) {}

  void on_start() override {
    inst_.emplace(net(), pid(), icfg_);
    produce();
  }
  void on_packet(sim::Packet&&) override {}

 private:
  void produce() {
    if (sent_ >= jobs_) return;
    const ProcessId worker = workers_[static_cast<std::size_t>(sent_) %
                                      workers_.size()];
    JobMsg msg{inst_->on_send(worker), sent_};
    send(sim::NodeAddr::app(worker), MsgKind::kApplication, msg,
         msg.hdr.bits() + 64);
    ++sent_;
    after(1 + net().rng().index(5), [this] { produce(); });
  }

  app::Instrument::Config icfg_;
  std::optional<app::Instrument> inst_;
  std::vector<ProcessId> workers_;
  int jobs_;
  int sent_ = 0;
};

class Worker final : public sim::Node {
 public:
  Worker(app::Instrument::Config icfg, ProcessId collector)
      : icfg_(std::move(icfg)), collector_(collector) {}

  void on_start() override {
    inst_.emplace(net(), pid(), icfg_);
    inst_->set_predicate(false);  // not yet drained (no job processed)
  }

  void on_packet(sim::Packet&& p) override {
    auto job = sim::payload_cast<JobMsg>(std::move(p.payload));
    inst_->on_receive(p.from.pid, job.hdr);
    inst_->set_predicate(false);  // busy
    queue_.push_back(job.payload);
    if (!busy_) work();
  }

 private:
  void work() {
    busy_ = true;
    after(2 + net().rng().index(6), [this] {
      const int done = queue_.front();
      queue_.pop_front();
      JobMsg result{inst_->on_send(collector_), done};
      send(sim::NodeAddr::app(collector_), MsgKind::kApplication, result,
           result.hdr.bits() + 64);
      ++processed_;
      if (queue_.empty()) {
        busy_ = false;
        // Drained: idle with at least one job processed.
        inst_->set_predicate(processed_ > 0);
      } else {
        work();
      }
    });
  }

  app::Instrument::Config icfg_;
  std::optional<app::Instrument> inst_;
  ProcessId collector_;
  std::deque<int> queue_;
  bool busy_ = false;
  int processed_ = 0;
};

class Collector final : public sim::Node {
 public:
  explicit Collector(app::Instrument::Config icfg) : icfg_(std::move(icfg)) {}
  void on_start() override { inst_.emplace(net(), pid(), icfg_); }
  void on_packet(sim::Packet&& p) override {
    auto msg = sim::payload_cast<JobMsg>(std::move(p.payload));
    inst_->on_receive(p.from.pid, msg.hdr);
    ++collected_;
  }
  [[nodiscard]] int collected() const { return collected_; }

 private:
  app::Instrument::Config icfg_;
  std::optional<app::Instrument> inst_;
  int collected_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wcp;

  std::size_t num_workers = 0;
  int jobs = 0;
  std::uint64_t seed = 0;
  try {
    // The workers are the predicate; the producer and collector take the
    // two process ids after them.
    const examples::Args args("live_pipeline", argc, argv);
    num_workers = static_cast<std::size_t>(
        args.integer(1, "workers", 3, 1, examples::kMaxProcesses - 2));
    jobs = static_cast<int>(
        args.integer(2, "jobs", 9, 0, std::numeric_limits<int>::max()));
    seed = static_cast<std::uint64_t>(args.integer(3, "seed", 5, 0));
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  // Layout: workers P0..Pk-1, producer Pk, collector Pk+1.
  const std::size_t N = num_workers + 2;
  const ProcessId producer(static_cast<int>(num_workers));
  const ProcessId collector(static_cast<int>(num_workers + 1));
  std::vector<ProcessId> workers;
  for (std::size_t w = 0; w < num_workers; ++w)
    workers.emplace_back(static_cast<int>(w));

  sim::NetworkConfig cfg;
  cfg.num_processes = N;
  cfg.latency = sim::LatencyModel::uniform(1, 6);
  cfg.seed = seed;
  sim::Network net(cfg);

  auto recorder = std::make_shared<app::Recorder>(N);
  recorder->set_predicate_processes(workers);

  auto icfg_for = [&](ProcessId p) {
    app::Instrument::Config ic;
    ic.vector_clock_mode = true;
    ic.predicate_width = workers.size();
    ic.pred_slot = p.idx() < workers.size() ? p.value() : -1;
    ic.monitor = sim::NodeAddr::monitor(p);
    ic.recorder = recorder;
    return ic;
  };

  for (ProcessId w : workers)
    net.add_node(sim::NodeAddr::app(w),
                 std::make_unique<Worker>(icfg_for(w), collector));
  net.add_node(sim::NodeAddr::app(producer),
               std::make_unique<Producer>(icfg_for(producer), workers, jobs));
  auto col = std::make_unique<Collector>(icfg_for(collector));
  auto* col_ptr = col.get();
  net.add_node(sim::NodeAddr::app(collector), std::move(col));

  auto shared = detect::install_token_vc_monitors(net, workers);

  std::cout << "live pipeline: " << num_workers << " workers, " << jobs
            << " jobs, seed " << seed << "\n";
  net.start_and_run();

  std::cout << "collected " << col_ptr->collected() << "/" << jobs
            << " results; detection "
            << (shared->detected ? "FIRED" : "did not fire") << "\n";
  if (shared->detected) {
    std::cout << "all workers drained at cut [";
    for (std::size_t s = 0; s < shared->cut.size(); ++s)
      std::cout << (s ? "," : "") << shared->cut[s];
    std::cout << "] (virtual time " << shared->detect_time << ")\n";
  }

  // Post-hoc verification against the recorded computation's oracle.
  const Computation recorded = recorder->build();
  const auto oracle = recorded.first_wcp_cut();
  const bool oracle_detects = oracle.has_value();
  std::cout << "recorded-run oracle: "
            << (oracle_detects ? "cut exists" : "no cut") << "\n";
  if (shared->detected != oracle_detects ||
      (oracle_detects && shared->cut != *oracle)) {
    std::cout << "ERROR: live detection disagrees with the recorded oracle\n";
    return 1;
  }
  std::cout << "live detection matches the recorded oracle.\n";
  return 0;
}
