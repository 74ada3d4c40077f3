#include "serve/daemon.h"

#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/flags.h"
#include "common/json.h"

namespace wcp::serve {

namespace {

constexpr std::string_view kProgram = "wcp_served";

bool is_value_flag(const std::string& key) {
  return key == "port" || key == "once" || key == "threads" ||
         key == "gc-every" || key == "window" || key == "high-water";
}

}  // namespace

DaemonOptions parse_daemon_flags(const std::vector<std::string>& args) {
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  DaemonOptions o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& s = args[i];
    if (s.rfind("--", 0) != 0)
      throw std::invalid_argument("wcp_served: unexpected argument \"" + s +
                                  "\"");
    const std::string key = s.substr(2);
    if (key == "json") {
      o.json = true;
      continue;
    }
    if (!is_value_flag(key))
      throw std::invalid_argument("wcp_served: unknown flag --" + key);
    if (i + 1 >= args.size())
      throw std::invalid_argument("wcp_served: --" + key +
                                  " requires a value");
    const std::string& value = args[++i];
    if (value.rfind("--", 0) == 0)
      throw std::invalid_argument("wcp_served: --" + key +
                                  " requires a value, got flag \"" + value +
                                  "\"");
    if (key == "port") {
      o.port = static_cast<std::uint16_t>(
          parse_flag_int(kProgram, key, value, 0, 65535));
    } else if (key == "once") {
      o.once = parse_flag_int(kProgram, key, value, 0, kI64Max);
    } else if (key == "threads") {
      o.loop.loop_threads = static_cast<std::size_t>(
          parse_flag_int(kProgram, key, value, 0, 1024));
    } else if (key == "gc-every") {
      o.loop.serve.gc_every = static_cast<std::size_t>(
          parse_flag_int(kProgram, key, value, 0, kI64Max));
    } else if (key == "window") {
      o.loop.serve.reseq_window = static_cast<std::size_t>(
          parse_flag_int(kProgram, key, value, 1, kI64Max));
    } else if (key == "high-water") {
      o.loop.write_high_water = static_cast<std::size_t>(
          parse_flag_int(kProgram, key, value, 4096, kI64Max));
    }
  }
  return o;
}

std::string daemon_usage() {
  return
      "usage: wcp_served [--port p] [--once k] [--threads t] [--gc-every k]\n"
      "                  [--window w] [--high-water bytes] [--json]\n"
      "  --port p        listen port (0 = kernel-assigned ephemeral; "
      "default 7410)\n"
      "  --once k        exit after serving k connections (0 = run forever)\n"
      "  --threads t     epoll loop threads (default 0 = auto)\n"
      "  --gc-every k    snapshots between frontier-GC rounds (0 disables "
      "GC)\n"
      "  --window w      resequencing window (max out-of-order frames "
      "buffered)\n"
      "  --high-water b  per-connection buffered-output bytes before reads "
      "pause\n"
      "  --json          per-connection wcp-run-report/1 lines on stdout\n";
}

void report_connection(std::ostream& out, std::int64_t id,
                       const ConnectionResult& r, bool as_json) {
  std::ostringstream line;
  if (as_json) {
    json::Writer w(line, /*indent=*/0);  // one connection = one line
    w.begin_object();
    w.key("schema").value("wcp-run-report/1");
    w.key("name").value("served:connection");
    w.key("connection").value(id);
    w.key("clean").value(r.clean ? 1 : 0);
    if (!r.error.empty()) w.key("error").value(r.error);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : r.stats.items()) w.key(name).value(value);
    w.end_object();
    w.end_object();
    line << "\n";
  } else {
    line << "connection " << id << (r.clean ? ": clean" : ": failed")
         << " frames=" << r.stats.frames_in
         << " snapshots=" << r.stats.snapshots_in
         << " subscriptions=" << r.stats.subscriptions
         << " verdicts_detected=" << r.stats.verdicts_detected
         << " gc_rounds=" << r.stats.gc_rounds
         << " states_retired=" << r.stats.states_retired;
    if (!r.error.empty()) line << " error=\"" << r.error << '"';
    line << "\n";
  }
  out << line.str();
  out.flush();
}

int run_daemon(const DaemonOptions& opts, std::ostream& out,
               std::ostream& err) {
  try {
    TcpListener listener(opts.port);
    out << "wcp_served: listening on 127.0.0.1:" << listener.port() << "\n";
    out.flush();

    EventLoopServer server(
        listener, opts.loop,
        [&out, as_json = opts.json](std::int64_t id,
                                    const ConnectionResult& r) {
          report_connection(out, id, r, as_json);
        });
    server.run(opts.once);
    return 0;
  } catch (const std::exception& e) {
    err << "wcp_served: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace wcp::serve
