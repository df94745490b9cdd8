// Quickstart: run the paper's Prop approach for one day of diurnal traffic
// on the simulated cloud, and print what the controller procured each hour
// and what it cost.
//
//   $ ./quickstart
//
// This is the 5-minute tour of the public API: fill an ExperimentConfig,
// call RunExperiment, read the ExperimentResult. See cost_planner.cpp,
// spot_market_explorer.cpp and failover_drill.cpp for deeper dives, and
// spotcache_server / spotcache_proxy for the real memcached data path.

#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>

#include "src/core/experiment.h"
#include "src/util/table.h"

using namespace spotcache;

int main() {
  // --- Configure: the paper's Prop approach (spot + hot-cold mixing +
  // burstable backup) on the §5.3 prototype workload (320 kops peak, 60 GB
  // working set, Zipf 1.0) for one day.
  ExperimentConfig config;
  config.approach = Approach::kProp;
  config.workload = PrototypeWorkload(/*days=*/1);

  // --- Run: one observe-predict-plan-actuate cycle per hourly slot.
  const ExperimentResult result = RunExperiment(config);

  std::printf("spotcache quickstart: %zu hourly slots, %s approach\n\n",
              result.slots.size(), result.approach_name.c_str());
  TextTable table("hourly control-plane decisions");
  table.SetHeader({"hour", "rate(kops)", "ws(GB)", "nodes", "backups",
                   "cost($)", "p95(us)"});
  for (size_t hour = 0; hour < result.slots.size(); ++hour) {
    const SlotRecord& slot = result.slots[hour];
    const int nodes =
        std::accumulate(slot.counts.begin(), slot.counts.end(), 0);
    table.AddRow({std::to_string(hour), TextTable::Num(slot.lambda / 1e3, 1),
                  TextTable::Num(slot.working_set_gb, 1),
                  std::to_string(nodes), std::to_string(slot.backups),
                  TextTable::Num(slot.cost, 2),
                  TextTable::Num(slot.p95_latency.seconds() * 1e6, 0)});
  }
  table.Print(std::cout);

  std::printf(
      "\nday summary: $%.2f total ($%.2f on-demand, $%.2f spot, $%.2f backup), "
      "mean latency %.0f us, %d revocations\n",
      result.total_cost, result.od_cost, result.spot_cost, result.backup_cost,
      result.tracker.MeanLatency().seconds() * 1e6, result.revocations);
  return 0;
}
