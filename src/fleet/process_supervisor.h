// ProcessSupervisor: fork/exec real spotcache_server children and manage
// their lifecycle — the "node launch = process spawn" half of fleet mode.
//
// Launch is a readiness-line handshake: the child's stdout is piped back and
// the supervisor blocks (with a deadline) until the machine-readable
// `listening <port>` line appears, so --port=0 ephemeral-port launches never
// race listen(2). A launch that times out or whose child exits early is
// killed, reaped, and retried on the src/resilience RetryPolicy schedule
// (wall-clock-scaled delays); the bind-failure exit code (3, see
// spotcache_server --help) is surfaced distinctly so "port taken" is not
// misdiagnosed as a crash loop.
//
// Revocation is the other half: Kill() is an immediate SIGKILL — the spot
// market does not call destructors — while Terminate() is the graceful
// SIGTERM path used for drill teardown. Both reap the child and record its
// exit status.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/resilience/retry_policy.h"
#include "src/util/time.h"

namespace spotcache::fleet {

/// spotcache_server's documented exit code for "could not bind the port".
constexpr int kServerBindFailureExit = 3;

enum class ProcessState : uint8_t {
  kReady,    // readiness line seen; process presumed serving
  kKilled,   // SIGKILLed by the supervisor and reaped
  kExited,   // exited on its own (or via Terminate) and reaped
};

std::string_view ToString(ProcessState s);

/// One live (or reaped) server child.
struct ServerProcess {
  pid_t pid = -1;
  uint16_t port = 0;      // parsed from the readiness line
  int stdout_fd = -1;     // read end of the child's stdout pipe (owned)
  ProcessState state = ProcessState::kReady;
  int exit_status = 0;    // raw waitpid status once reaped
  std::string label;      // caller-visible name ("primary-0", "backup", ...)
};

struct SupervisorConfig {
  /// Path to the spotcache_server binary.
  std::string server_binary;
  /// Extra argv entries appended to every launch (e.g. "--capacity-mb=8").
  std::vector<std::string> base_args;
  /// Wall-clock deadline for the readiness line on each attempt.
  Duration launch_timeout = Duration::Seconds(5);
  /// Launch retry schedule; Duration values are interpreted as wall time.
  /// Defaults are drill-scale (milliseconds), not control-loop-scale.
  RetryPolicyConfig retry{.initial_delay = Duration::Millis(50),
                          .backoff_factor = 2.0,
                          .max_delay = Duration::Millis(500),
                          .max_attempts = 3,
                          .jitter = 0.25};
  uint64_t seed = 0;
};

struct SpawnResult {
  bool ok = false;
  ServerProcess process;  // valid when ok
  int attempts = 0;       // launches tried (1 = first attempt succeeded)
  bool bind_failure = false;  // a child exited with kServerBindFailureExit
  std::string error;      // set when !ok
};

class ProcessSupervisor {
 public:
  explicit ProcessSupervisor(const SupervisorConfig& config);

  /// Launches one child with `extra_args` appended after the base args,
  /// retrying failed launches on the RetryPolicy schedule. Blocks until
  /// ready, exhausted, or a non-retryable failure (missing binary).
  SpawnResult Spawn(const std::string& label,
                    const std::vector<std::string>& extra_args = {});

  /// SIGKILL + reap. Idempotent on already-reaped processes.
  void Kill(ServerProcess& process);

  /// SIGTERM, wait up to `grace` (wall time) for exit, escalate to SIGKILL.
  /// Returns the raw exit status.
  int Terminate(ServerProcess& process, Duration grace = Duration::Seconds(2));

  /// Drains any buffered child stdout (non-blocking) and returns it. Keeps
  /// the pipe open; call after reap to collect shutdown output.
  std::string DrainOutput(ServerProcess& process);

  int64_t spawned() const { return spawned_; }
  int64_t killed() const { return killed_; }
  int64_t launch_failures() const { return launch_failures_; }

 private:
  /// One fork/exec + readiness wait. On failure the child (if any) is dead
  /// and reaped before returning.
  bool SpawnOnce(const std::string& label,
                 const std::vector<std::string>& extra_args,
                 ServerProcess* out, bool* bind_failure, std::string* error);
  void Reap(ServerProcess& process, ProcessState final_state);

  SupervisorConfig config_;
  RetryPolicy retry_;
  uint64_t spawn_counter_ = 0;  // op_id for the retry policy
  int64_t spawned_ = 0;
  int64_t killed_ = 0;
  int64_t launch_failures_ = 0;
};

}  // namespace spotcache::fleet
