// spotcache_proxy: a standalone memcached-text-protocol proxy over src/net
// that fans requests out to the spot/burstable cache fleet.
//
//   spotcache_proxy --fleet=members.txt [--port=11311] [--host=127.0.0.1]
//   spotcache_proxy --node=0:127.0.0.1:11211 --node=1:127.0.0.1:11212
//                   --backup=127.0.0.1:11210
//
// It serves memcached text to clients on a one-reactor ShardedServer whose
// handler is a ProxyCore (src/proxy/proxy_core.h): each key is homed on the
// fleet's consistent-hash ring behind the breaker-gated degradation ladder
// (primary -> backup -> miss), so upstream churn never surfaces to a client
// as a connection error. Lifecycle, shared flags, readiness lines, signals
// and exit codes are spotcache_server's (src/net/serving_main.h), so
// ProcessSupervisor treats both binaries identically. SIGHUP re-reads
// --fleet from loop context (a malformed file keeps the previous view). The
// proxy's own flags are described in kUsage below; --fleet's file format and
// the checks --node/--backup go through are src/proxy/membership.h's.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/net/serving_main.h"
#include "src/net/sharded_server.h"
#include "src/proxy/membership.h"
#include "src/proxy/proxy_core.h"
#include "src/util/flags.h"

using namespace spotcache;

namespace {

constexpr char kUsage[] =
    "usage: spotcache_proxy [--fleet=FILE] [--node=SLOT:HOST:PORT]...\n"
    "                       [--backup=HOST:PORT] [--port=11311]\n"
    "                       [--host=127.0.0.1]\n"
    "                       [--timeout-ms=N] [--trace=FILE]\n"
    "                       [--metrics=FILE] [--metrics-port=N]\n"
    "                       [--spans=FILE] [--span-sample=N]\n"
    "                       [--latency-sample=N] [--slow-us=N]\n"
    "                       [--stall-us=N] [--span-ring=N]\n"
    "                       [--pidfile=FILE] [--help]\n"
    "\n"
    "Speaks memcached text to clients and fans out to the fleet named by\n"
    "--fleet, or by --node/--backup, over the breaker-gated consistent-hash\n"
    "ring. SIGHUP re-reads --fleet without dropping client connections.\n"
    "\n"
    "  --timeout-ms=N  per-leg deadline: an upstream command unanswered\n"
    "                  this long after it was sent fails its upstream\n"
    "                  (default 250). Every command is sent in the loop\n"
    "                  round it arrives in; there is no in-flight cap.\n"
    "\n"
    "Readiness contract: first stdout line is exactly `listening <port>`\n"
    "(after listen(2) succeeded); with --metrics-port the next line is\n"
    "`metrics listening <port>`.\n"
    "\n"
    "Numeric flags must be whole numbers in range.\n"
    "\n"
    "Exit codes: 0 clean, 1 loop failure, 2 bad flags, 3 bind failure.\n";

}  // namespace

int main(int argc, char** argv) {
  net::ServingMain serving("spotcache_proxy", kUsage, 11311);
  proxy::ProxyCoreConfig proxy_config;
  std::string fleet_path;
  std::vector<std::string> node_specs;
  std::string backup_spec;

  constexpr int64_t kMaxMs = 86'400'000;  // one day
  const auto own_flag = [&](const std::string& arg, bool* ok) {
    int64_t n = 0;
    if (arg.rfind("--fleet=", 0) == 0) {
      fleet_path = arg.substr(8);
    } else if (arg.rfind("--node=", 0) == 0) {
      node_specs.push_back(arg.substr(7));
    } else if (arg.rfind("--backup=", 0) == 0) {
      backup_spec = arg.substr(9);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      *ok = ParseInt(arg.substr(13), 1, kMaxMs, &n);
      proxy_config.upstreams.op_timeout_ms = static_cast<int>(n);
    } else {
      return false;
    }
    return true;
  };
  if (const auto exit_code = serving.ParseFlags(argc, argv, own_flag)) {
    return *exit_code;
  }
  const bool static_fleet = !node_specs.empty() || !backup_spec.empty();
  if (fleet_path.empty() == node_specs.empty() ||
      (!fleet_path.empty() && static_fleet)) {
    std::printf("need either --fleet=FILE or at least one "
                "--node=SLOT:HOST:PORT (with an optional --backup)\n\n");
    return serving.Usage(net::kExitUsage);
  }

  // Both sources go through the membership document's own checks.
  std::string error;
  const auto membership =
      static_fleet ? proxy::MembershipFromSpecs(node_specs, backup_spec, &error)
                   : proxy::LoadMembership(fleet_path, &error);
  if (!membership.has_value()) {
    std::printf("bad %s: %s\n\n",
                static_fleet ? "--node/--backup" : fleet_path.c_str(),
                error.c_str());
    return serving.Usage(net::kExitUsage);
  }

  proxy::ProxyCore* core = nullptr;
  net::ShardedServer server(
      serving.config(),
      [&](uint32_t /*reactor*/, Obs* obs) {
        auto built =
            std::make_unique<proxy::ProxyCore>(proxy_config, obs, &obs->tracer);
        built->pool().ApplyMembership(*membership);
        core = built.get();
        return built;
      },
      serving.obs());
  const auto reload = [&] {
    if (fleet_path.empty()) {
      return;  // a --node fleet has no file to re-read
    }
    if (core->ReloadMembership(fleet_path)) {
      std::printf("fleet reloaded: generation %llu, %zu nodes%s\n",
                  static_cast<unsigned long long>(core->pool().generation()),
                  core->pool().node_count(),
                  core->pool().has_backup() ? " + backup" : "");
    } else {
      std::printf("fleet reload failed; keeping previous membership\n");
    }
    std::fflush(stdout);
  };
  const auto banner = [&] {
    std::printf("spotcache_proxy listening on %s:%u (%zu nodes%s, "
                "timeout %d ms)\n",
                serving.config().base.bind_host.c_str(), server.port(),
                core->pool().node_count(),
                core->pool().has_backup() ? " + backup" : "",
                proxy_config.upstreams.op_timeout_ms);
  };
  const auto summary = [&] {
    const proxy::ProxyStats s = core->stats();
    const proxy::UpstreamPoolStats pool = core->pool().stats();
    std::printf("proxied: %" PRIu64 " requests, %" PRIu64 " get keys (%" PRIu64
                " hits, %" PRIu64 " backup, %" PRIu64 " misses, %" PRIu64
                " sheds), %" PRIu64 " sets (%" PRIu64 " failed), %" PRIu64
                " absorbed failures, %" PRIu64 " reconnects, %" PRIu64
                " reloads\n",
                s.requests, s.get_keys, s.get_hits, s.backup_hits, s.misses,
                s.sheds, s.sets, s.set_failures, pool.absorbed_failures,
                pool.reconnects, s.reloads);
  };
  return serving.Serve(&server, reload, banner, summary);
}
