// Key-level failure-recovery simulation (paper §3.3 / §5.4, Figure 11).
//
// Simulates the content affected by one spot revocation: a replacement node
// warms up from the passive backup (hot content) and the persistent back-end
// (cold content) while live traffic keeps arriving. The warm-up proceeds in
// popularity (MRU) order, so traffic coverage grows as the popularity CDF of
// the copied prefix. Burstable backups copy at their peak bandwidth while
// network tokens last and at baseline afterwards — the dynamics that make
// t2.medium match the twice-as-expensive c3.large in Figure 11(a).

#pragma once

#include <optional>
#include <vector>

#include "src/cloud/instance_types.h"
#include "src/obs/obs.h"
#include "src/resilience/resilience.h"
#include "src/sim/latency_model.h"
#include "src/util/time.h"

namespace spotcache {

struct RecoveryConfig {
  /// Data held by the revoked instance.
  double data_gb = 10.0;
  /// Hot portion (replicated on the backup).
  double hot_gb = 3.0;
  double zipf_theta = 1.0;
  /// Request rate to the affected content (ops/s).
  double arrival_rate = 40'000.0;
  uint32_t item_bytes = 4096;

  /// Backup instance type; nullptr = no backup (Prop_NoBackup).
  const InstanceTypeSpec* backup_type = nullptr;
  /// Token balance of the backup at failure, as a fraction of its caps.
  double initial_credit_fraction = 1.0;

  /// Replacement instance type (the node being warmed); nullptr = m4.large.
  const InstanceTypeSpec* replacement_type = nullptr;
  /// Fraction of line rate warm-up copies achieve.
  double copy_efficiency = 0.7;
  /// Warm-from-back-end throttle (Mbps): bulk refills must not flatten the
  /// production back-end, so they are rate-limited.
  double backend_copy_mbps = 100.0;

  /// Scenario B: how long after the revocation the replacement becomes ready
  /// (zero = scenario A, ready at revocation).
  Duration replacement_delay = Duration::Seconds(0);

  /// OD+Spot_Sep mode: only the cold share was on the revoked node; hot
  /// traffic is unaffected and keeps its normal latency.
  bool separation_mode = false;

  /// Checkpoint/restore recovery (the prior-work baseline of [13,19,39,51]
  /// the paper argues is ill-suited to in-memory caches): the cache state is
  /// periodically checkpointed to bulk storage and the replacement restores
  /// it sequentially. Restores stream faster than throttled random refills,
  /// but arrive in storage order (no popularity preference, so hot keys wait
  /// like everyone else) and nothing serves the interim. Ignored when a
  /// backup type is set.
  bool checkpoint_restore = false;
  /// Sequential restore bandwidth from bulk storage (Mbps).
  double checkpoint_restore_mbps = 250.0;

  /// Fault injection: lose the backup node this long into the recovery
  /// (mid-warm-up compound failure). From that point the remaining hot data
  /// refills from the throttled back-end and uncovered hot traffic misses.
  std::optional<Duration> backup_loss_at;
  /// Fault injection: force-drain the backup's token buckets at this offset
  /// (models the backup having burned its credits on unrelated work).
  std::optional<Duration> token_drain_at;

  /// Observability (non-owning, may be null): traces recovery start/settle,
  /// mid-recovery backup loss and token exhaustion, and records the settle
  /// time on the `recovery/warmup_s` histogram.
  Obs* obs = nullptr;

  /// Resilience admission control over the interim, backend-bound traffic:
  /// when the uncovered load exceeds the backend's capacity, requests are
  /// shed cold-first (bounded by the shed budget) instead of queueing the
  /// back-end into collapse. nullopt (the default) disables shedding and
  /// keeps the legacy recovery curves bit-identical.
  std::optional<AdmissionConfig> admission;

  Duration epoch = Duration::Seconds(1);
  Duration horizon = Duration::Minutes(30);
  /// Target average latency; warm-up "finishes" when the running mean falls
  /// back within 1.05x of it (the paper's settling criterion).
  Duration target_mean = Duration::Micros(800);
  /// Extra hop when served via the backup.
  Duration backup_hop = Duration::Micros(250);

  LatencyModelParams latency;
};

struct RecoveryPoint {
  double t_seconds = 0.0;
  Duration mean;
  Duration p95;
  double warm_traffic_fraction = 0.0;  // accesses covered by the replacement
  /// Fraction of the affected traffic shed by admission control this epoch
  /// (0 unless RecoveryConfig::admission is set).
  double shed_fraction = 0.0;
};

struct RecoveryResult {
  std::vector<RecoveryPoint> series;
  /// First time the epoch mean settles within 1.05x target (horizon if never).
  Duration warmup_time;
  /// Request-weighted p95 latency over [0, warmup_time].
  Duration p95_during_recovery;
  Duration max_mean_latency;
  /// Backup hourly price (0 without backup).
  double backup_cost_per_hour = 0.0;
  /// Whether the backup exhausted its network tokens during warm-up.
  bool backup_tokens_exhausted = false;
  /// Whether the backup was lost mid-recovery (backup_loss_at fired).
  bool backup_lost = false;
  /// Peak per-epoch shed fraction (0 without admission control).
  double max_shed_fraction = 0.0;
};

RecoveryResult SimulateRecovery(const RecoveryConfig& config);

/// Figure 11(b)'s companion metric: idle time a burstable needs to accrue
/// enough network tokens to copy `data_gb` at peak rate (its feasible mean
/// time between failures as a recovery device).
Duration NetworkCreditEarnTime(const InstanceTypeSpec& burstable, double data_gb);

}  // namespace spotcache
