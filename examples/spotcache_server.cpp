// spotcache_server: a real memcached-text-protocol server over src/net.
//
//   $ ./spotcache_server --port=11211 &
//   $ printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
//   $ memtier_benchmark -p 11211 -P memcache_text
//
// This is one cache node: it stores and serves bytes. Failover, backup
// fallback and degradation live in the proxy tier (spotcache_proxy) in front
// of a fleet of these servers. Both binaries share their lifecycle, flags,
// readiness lines, signals and exit codes (src/net/serving_main.h); SIGHUP
// dumps like SIGUSR1 here. The cache node's own flags:
//   --capacity-mb=N    item-store LRU capacity (total, shared by the shards)
//   --threads=N        reactor shards, 1..64 (default 1 = the classic
//                      single-threaded server, byte-identical wire behavior)
//   --pin              pin shard i to cpu (i % cores)
//   --force-dispatch   use the accept-and-handoff fallback instead of
//                      SO_REUSEPORT (testing / kernels without REUSEPORT)

#include <malloc.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/net/serving_main.h"
#include "src/net/sharded_server.h"
#include "src/util/flags.h"

using namespace spotcache;

namespace {

constexpr char kUsage[] =
    "usage: spotcache_server [--port=11211] [--host=127.0.0.1]\n"
    "                        [--capacity-mb=64] [--threads=N] [--pin]\n"
    "                        [--force-dispatch] [--trace=FILE]\n"
    "                        [--metrics=FILE] [--metrics-port=N]\n"
    "                        [--spans=FILE] [--span-sample=N]\n"
    "                        [--latency-sample=N] [--slow-us=N]\n"
    "                        [--stall-us=N] [--span-ring=N]\n"
    "                        [--pidfile=FILE] [--help]\n"
    "\n"
    "Readiness contract (for supervisors and harnesses):\n"
    "  The first stdout line is exactly `listening <port>`, flushed only\n"
    "  after listen(2) succeeded — start with --port=0 and read the bound\n"
    "  port from it instead of racing the bind. With --metrics-port the\n"
    "  next line is `metrics listening <port>`. Human-readable banner\n"
    "  lines follow; anything machine-parsed comes first.\n"
    "\n"
    "  --pidfile=FILE writes the server pid after a successful bind (at\n"
    "  the same instant the readiness line is printed) and removes the\n"
    "  file on clean shutdown.\n"
    "\n"
    "  This is one cache node; failover and degradation live in the proxy\n"
    "  tier (spotcache_proxy). Numeric flags must be whole numbers in\n"
    "  range (--threads 1..64).\n"
    "\n"
    "Exit codes:\n"
    "  0  clean shutdown (SIGINT/SIGTERM/quit)\n"
    "  1  event loop failed after a successful bind\n"
    "  2  bad flags\n"
    "  3  bind failure (address/port taken or not bindable) — distinct so\n"
    "     a supervisor can tell \"port taken\" from \"crashed\"\n";

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its documented default (128 KiB). Setting
  // it turns off the dynamic threshold, which otherwise rises (and doubles
  // the trim threshold) each time a large mmapped block such as an outgrown
  // store arena is freed. With it fixed, big arrays always come from mmap
  // and are unmapped when freed, and free memory at the top of the heap is
  // trimmed, so RSS follows the store down after a shrink.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  net::ServingMain serving("spotcache_server", kUsage, 11211);
  net::ShardedServerConfig& scfg = serving.config();

  constexpr int64_t kMaxCapacityMb = 1 << 24;  // 16 TiB
  const auto own_flag = [&scfg](const std::string& arg, bool* ok) {
    int64_t n = 0;
    if (arg.rfind("--capacity-mb=", 0) == 0) {
      *ok = ParseInt(arg.substr(14), 1, kMaxCapacityMb, &n);
      scfg.capacity_bytes = static_cast<size_t>(n) * 1024 * 1024;
    } else if (arg.rfind("--threads=", 0) == 0) {
      *ok = ParseInt(arg.substr(10), 1, net::kMaxShards, &n);
      scfg.threads = static_cast<uint32_t>(n);
    } else if (arg == "--pin") {
      scfg.pin_threads = true;
    } else if (arg == "--force-dispatch") {
      scfg.force_dispatch = true;
    } else {
      return false;
    }
    return true;
  };
  if (const auto exit_code = serving.ParseFlags(argc, argv, own_flag)) {
    return *exit_code;
  }

  net::ShardedServer server(scfg, serving.obs());
  const auto banner = [&] {
    std::printf("spotcache_server listening on %s:%u (capacity %zu MB",
                scfg.base.bind_host.c_str(), server.port(),
                scfg.capacity_bytes / (1024 * 1024));
    if (server.shard_count() > 1) {
      std::printf(", %u shards via %s", server.shard_count(),
                  server.using_reuseport() ? "SO_REUSEPORT" : "dispatch");
    }
    std::printf(")\n");
  };
  const auto summary = [&] {
    const net::CoreSnapshot t = server.TotalSnapshot();
    std::printf("served: %" PRIu64 " gets (%" PRIu64 " hits, %" PRIu64
                " misses), %" PRIu64 " sets, %" PRIu64 " protocol errors\n",
                t.cmd_get, t.get_hits, t.get_misses, t.cmd_set,
                t.protocol_errors);
  };
  return serving.Serve(&server, /*on_hup=*/nullptr, banner, summary);
}
