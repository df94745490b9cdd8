#include "src/fleet/drill_grid.h"

#include <cstdio>

namespace spotcache::fleet {

namespace {

std::string CellLabel(const DrillGridCell& cell) {
  if (!cell.label.empty()) {
    return cell.label;
  }
  std::string label = "seed" + std::to_string(cell.seed) + "/" +
                      std::to_string(cell.storms) +
                      (cell.storms == 1 ? " storm" : " storms");
  label += cell.missed_warning_fraction >= 0.5 ? "/unwarned" : "/warned";
  return label;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

std::vector<DrillGridCell> DefaultDrillGrid(const FleetDrillConfig& base) {
  std::vector<DrillGridCell> cells;
  const int heavy_storms = std::max(2, base.primaries);
  for (const uint64_t seed : {base.seed, base.seed + 1}) {
    for (const int storms : {1, heavy_storms}) {
      for (const double missed : {0.0, 1.0}) {
        DrillGridCell cell;
        cell.seed = seed;
        cell.storms = storms;
        cell.missed_warning_fraction = missed;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

std::vector<DrillGridRow> RunDrillGrid(const FleetDrillConfig& base,
                                       const std::vector<DrillGridCell>& cells,
                                       const DrillCostModel& cost) {
  std::vector<DrillGridRow> rows;
  rows.reserve(cells.size());
  for (const DrillGridCell& cell : cells) {
    FleetDrillConfig config = base;
    config.seed = cell.seed;
    config.scenario.storm_count = cell.storms;
    config.scenario.missed_warning_fraction = cell.missed_warning_fraction;

    DrillGridRow& row = rows.emplace_back();
    row.cell = cell;
    row.cell.label = CellLabel(cell);
    row.report = RunFleetDrill(config);

    // The on-demand baseline needs no backup tier (on-demand nodes are not
    // revoked), but a proxy tier fronts either fleet.
    const double primaries = static_cast<double>(config.primaries);
    row.fleet_cost_hr =
        primaries * cost.spot_hr + cost.burstable_hr + cost.proxy_hr;
    row.on_demand_cost_hr =
        (primaries + 1.0) * cost.on_demand_hr + cost.proxy_hr;
    row.savings_fraction =
        row.on_demand_cost_hr <= 0.0
            ? 0.0
            : 1.0 - row.fleet_cost_hr / row.on_demand_cost_hr;
  }
  return rows;
}

std::string RenderDrillGridMarkdown(const std::vector<DrillGridRow>& rows) {
  std::string out =
      "| cell | $/h (spot+backup+proxy) | $/h (on-demand) | saved | "
      "pre-kill hit | final hit | recovered | p99 (ms) | "
      "conn errors |\n|---|---|---|---|---|---|---|---|---|\n";
  for (const DrillGridRow& row : rows) {
    const FleetDrillReport& r = row.report;
    out += "| " + row.cell.label + " | " + Fmt("%.3f", row.fleet_cost_hr) +
           " | " + Fmt("%.3f", row.on_demand_cost_hr) + " | " +
           Fmt("%.0f%%", row.savings_fraction * 100.0) + " | " +
           Fmt("%.3f", r.pre_kill_hit_rate) + " | " +
           Fmt("%.3f", r.final_hit_rate) + " | ";
    if (!r.ok) {
      out += "error";
    } else if (r.recovered) {
      out += r.recovered_us >= 0
                 ? "yes @" + std::to_string(r.recovered_us / 1000) + "ms"
                 : "yes";
    } else {
      out += "no";
    }
    const uint64_t conn_errors = r.loadgen.failed_conns + r.loadgen.abandoned;
    out += " | " + Fmt("%.2f", r.loadgen.latency.p99_us / 1000.0) + " | " +
           std::to_string(conn_errors) + " |\n";
  }
  return out;
}

}  // namespace spotcache::fleet
