// ServingMain: the process lifecycle spotcache_server and spotcache_proxy
// share. Each binary builds a ShardedServer around its own handler (a
// ServerCore per reactor, or the proxy's ProxyCore) and keeps only its own
// flags, its banner line and its final summary line; the rest is here:
//
//   * the shared flags, parsed strictly (a value that is not a whole number
//     in range is a bad flag, exit 2):
//       --port=N --host=H      the cache listener (port 0 = ephemeral)
//       --trace=FILE           JSONL event stream, written at shutdown
//       --metrics=FILE         scrape text, written per dump and at shutdown
//       --metrics-port=N       live Prometheus scrape (0 = ephemeral)
//       --spans=FILE           span rings, appended per dump, whole at exit
//       --span-sample=N --latency-sample=N --slow-us=N --span-ring=N
//                              request telemetry (request_telemetry.h);
//                              --span-ring is 1..1048576 records
//       --stall-us=N           event-loop stall threshold
//       --pidfile=FILE         written at readiness, removed on clean exit
//   * readiness: the first stdout line is exactly `listening <port>`,
//     printed after listen(2) succeeded; with --metrics-port the next is
//     `metrics listening <port>`; the banner follows;
//   * signals, all async-signal-safe (atomic flag + eventfd write):
//     SIGINT/SIGTERM stop, SIGUSR1 dumps (--spans, --metrics), SIGHUP runs
//     the binary's action on reactor 0's loop or dumps when it has none,
//     SIGPIPE is ignored;
//   * the exit codes below.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "src/net/sharded_server.h"
#include "src/obs/obs.h"

namespace spotcache::net {

/// Exit codes a supervisor can branch on: a bind failure ("port taken") is
/// not the same failure as a crash or a dirty event-loop exit.
inline constexpr int kExitRunFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitBindFailure = 3;

class ServingMain {
 public:
  /// `name` prefixes the stderr lines; `usage` is the --help text.
  ServingMain(const char* name, const char* usage, uint16_t default_port)
      : name_(name), usage_(usage) {
    config_.base.port = default_port;
  }

  /// Parses the shared flags, handing every other one to `own_flag`, which
  /// returns whether the flag is the binary's and clears *ok on a bad
  /// value. Returns the exit code when the process should end now (--help,
  /// or a bad flag after its usage text).
  std::optional<int> ParseFlags(
      int argc, char** argv,
      const std::function<bool(const std::string& arg, bool* ok)>& own_flag);
  /// Prints the usage text; returns `exit_code`.
  int Usage(int exit_code) const {
    std::fputs(usage_, stdout);
    return exit_code;
  }

  /// The shared flags fill in `base`; the binary's own flags the rest.
  ShardedServerConfig& config() { return config_; }
  /// Lends the reactors its tracer enablement (on iff --trace).
  Obs* obs() { return &obs_; }

  /// Starts `server` and serves until SIGINT/SIGTERM: pidfile, signals,
  /// readiness lines, `banner()`, Run(), shutdown snapshots, `summary()`,
  /// pidfile removed. `on_hup`, when set, is SIGHUP's action. Returns the
  /// exit code.
  int Serve(ShardedServer* server, std::function<void()> on_hup,
            const std::function<void()>& banner,
            const std::function<void()>& summary);

 private:
  const char* name_;
  const char* usage_;
  ShardedServerConfig config_;
  std::string trace_path_;
  std::string pidfile_path_;
  Obs obs_;
};

}  // namespace spotcache::net
