// Reserved-instance analysis.
//
// Paper §2.3 dismisses reserved instances (26-37% cheaper than on-demand) for
// unpredictable workloads because they demand a 1-3 year commitment — "a
// high-risk proposition". This module quantifies that argument: given a
// demand series for one instance type, it finds the cost-optimal reservation
// count, and then exposes the downside when demand does not cooperate
// (a post-commitment decline leaves the reservation stranded).

#pragma once

#include <vector>

#include "src/cloud/instance_types.h"
#include "src/workload/trace.h"

namespace spotcache {

struct ReservedAnalysis {
  /// Cost-optimal number of reserved instances for the observed demand.
  int best_count = 0;
  /// Total cost over the horizon with the optimal reservation (reserved
  /// hours + on-demand overflow).
  double reserved_cost = 0.0;
  /// Total cost with no reservation (pure on-demand autoscaling).
  double od_only_cost = 0.0;
  /// 1 - reserved/od_only: the upside when demand is as observed.
  double savings_fraction = 0.0;
  /// Cost of keeping the same reservation when demand scales by
  /// `decline_factor` (commitments cannot be resized).
  double declined_reserved_cost = 0.0;
  /// Pure on-demand cost under the declined demand.
  double declined_od_cost = 0.0;
  /// declined_reserved/declined_od - 1: the regret when demand falls.
  double regret_fraction = 0.0;
};

/// `hourly_demand` is the number of instances needed each hour. Reserved
/// instances bill every hour at (1 - discount) * od_price regardless of use;
/// demand above the reservation is served on-demand.
ReservedAnalysis AnalyzeReservation(const std::vector<double>& hourly_demand,
                                    double od_price_per_hour, double discount,
                                    double decline_factor = 0.4);

/// Derives an hourly instance-demand series from a workload trace for one
/// type: instances = max(RAM need, throughput need) per slot, with
/// kRamUsableFraction of each instance's RAM holding cache data.
std::vector<double> InstanceDemandSeries(const WorkloadTrace& trace,
                                         const InstanceTypeSpec& type,
                                         double ops_capacity_per_instance);

}  // namespace spotcache
