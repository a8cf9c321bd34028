// gpu_serverd -- the loopback "GPU server" daemon. Serves the composed
// ResponseModel/FaultInjector stack of a scenario document behind a TCP
// listener, replying to each offload RPC after the sampled response time
// (time-dilated per $.runtime.time_scale) or never (sampled drops).
//
// Usage:
//   gpu_serverd --spec spec.json [--listen HOST:PORT]
//
// Prints "listening on IP:PORT" once bound (port 0 asks the kernel for an
// ephemeral port -- harnesses scrape this line), serves until
// SIGINT/SIGTERM, then prints a stats JSON object and exits 0. Errors go to
// stderr, so stdout carries only those two lines.

#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "net/socket.hpp"
#include "runtime/gpu_service.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace {

// Signal bridge: request_stop() is async-signal-safe by contract (one
// atomic store plus one write() on the wakeup eventfd).
rt::net::EventLoop* g_serving_loop = nullptr;

void on_signal(int) {
  if (g_serving_loop != nullptr) g_serving_loop->request_stop();
}

/// Serves `doc`'s server stack (with the fault overlay applied) until
/// SIGINT/SIGTERM; `listen` (when set) replaces $.runtime.listen.
int serve(const rt::spec::ScenarioDoc& doc,
          const std::optional<rt::net::SocketAddress>& listen) {
  using namespace rt;
  spec::BuiltScenario built = spec::build_scenario(doc);
  if (built.server == nullptr) {
    std::cerr << "error: the document has no server section (gpu_serverd "
                 "serves $.server)\n";
    return 1;
  }

  runtime::GpuServiceOptions options;
  options.apply_spec_section(doc.runtime);
  net::EventLoop loop;
  runtime::GpuService service(
      loop, std::move(built.server), derive_seed(built.sim.seed, 0x6775),
      listen.value_or(runtime::listen_address_from_spec(doc.runtime)),
      options);
  std::cout << "listening on " << service.address().to_string() << std::endl;

  g_serving_loop = &loop;
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  loop.run();
  g_serving_loop = nullptr;

  std::cout << service.stats().to_json().dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string spec_path;
    std::optional<rt::net::SocketAddress> listen;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") {
        std::cout << "usage: gpu_serverd --spec spec.json "
                     "[--listen HOST:PORT]\n"
                     "Serves the document's server stack (with fault "
                     "overlay) as the offload\ndaemon; see docs/RUNTIME.md "
                     "for the wire protocol.\n";
        return 0;
      }
      if (arg == "--spec" && i + 1 < argc) {
        spec_path = argv[++i];
        continue;
      }
      if (arg == "--listen" && i + 1 < argc) {
        listen = rt::net::SocketAddress::parse(argv[++i]);
        continue;
      }
      std::cerr << "error: unknown or incomplete argument '" << arg
                << "' (see --help)\n";
      return 1;
    }
    if (spec_path.empty()) {
      std::cerr << "error: --spec spec.json is required\n";
      return 1;
    }
    std::ifstream in(spec_path);
    if (!in) {
      std::cerr << "error: cannot open '" << spec_path << "'\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return serve(rt::spec::ScenarioDoc::parse_text(buf.str()), listen);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
