// The drill experiment grid: (seed x storm scenario x warning fate) cells of
// the wire-real chaos drill, rendered as the cost / hit-rate / p99 table
// EXPERIMENTS.md carries.
//
// Each cell is one full RunFleetDrill — real processes, real SIGKILLs, and
// real open-loop traffic through a standalone spotcache_proxy — so unlike
// the simulator grids the cells are NOT pure functions of their config:
// wall-clock timing feeds the measured hit-rate trajectory. Cells therefore
// run one at a time (concurrent drills would perturb each other's tail
// latencies and share the per-pid membership file), and the grid reports
// measured ranges, not replayable digests.
//
// The cost column is the paper's fleet arithmetic, not a measurement: a
// spot fleet of N primaries plus one burstable backup plus the proxy node
// versus the same headcount bought on demand behind the same proxy.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/drill.h"

namespace spotcache::fleet {

/// One grid cell: overrides applied to the base drill config.
struct DrillGridCell {
  uint64_t seed = 42;
  int storms = 1;
  /// Warning fate: 0.0 = every revocation warned (Fig 4 cases 1a/1b),
  /// 1.0 = every warning suppressed (case 2).
  double missed_warning_fraction = 0.0;
  std::string label;  // row name; derived from the axes when empty
};

/// Per-node-hour prices (the paper's Table 1/3 fleet arithmetic, in $/h).
struct DrillCostModel {
  double on_demand_hr = 0.120;  // regular on-demand cache node
  double spot_hr = 0.027;       // same capacity on the spot market
  double burstable_hr = 0.052;  // always-on burstable backup (t2.medium-ish)
  double proxy_hr = 0.052;      // thin always-up proxy node
};

struct DrillGridRow {
  DrillGridCell cell;
  FleetDrillReport report;
  double fleet_cost_hr = 0.0;      // spot primaries + backup + proxy
  double on_demand_cost_hr = 0.0;  // same headcount, all on demand
  double savings_fraction = 0.0;   // 1 - fleet/on_demand
};

/// Default 8-cell sweep: 2 seeds x {1, max(2, primaries)} storms x
/// {warned, unwarned}.
std::vector<DrillGridCell> DefaultDrillGrid(const FleetDrillConfig& base);

/// Runs every cell serially and returns rows in cell order.
std::vector<DrillGridRow> RunDrillGrid(const FleetDrillConfig& base,
                                       const std::vector<DrillGridCell>& cells,
                                       const DrillCostModel& cost = {});

/// The markdown table EXPERIMENTS.md embeds: one row per cell with cost,
/// recovery, hit rates, client p99 and surfaced connection errors.
std::string RenderDrillGridMarkdown(const std::vector<DrillGridRow>& rows);

}  // namespace spotcache::fleet
