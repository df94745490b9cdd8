// Figure 10: 24-hour prototype run — impact of hot-cold mixing.
//
// Market m4.L-d (the paper uses day 45), workload 320 kops / 60 GB.
// Compares Prop_NoBackup (mixing) vs OD+Spot_Sep (hot on OD, cold on spot):
// per-hour allocation split across bids, latency, and the resource-wastage
// diagnosis (OD memory occupancy vs spot CPU utilization) that motivates
// mixing in the first place.

#include <cstdio>
#include <iostream>

#include "src/core/experiment.h"
#include "src/exec/experiment_grid.h"
#include "src/opt/procurement.h"
#include "src/sim/latency_model.h"
#include "src/util/table.h"

using namespace spotcache;

namespace {

void Report(const ExperimentResult& r, size_t last_day_slots,
            const ExperimentConfig& cfg) {
  const size_t begin = r.slots.size() - last_day_slots;
  const size_t bid1 = r.OptionIndex("m4.L-d@1d");
  const size_t bid2 = r.OptionIndex("m4.L-d@5d");

  SeriesPrinter series(r.approach_name + ": final-day allocation and latency",
                       {"hour", "kops", "od_nodes", "spot_bid1", "spot_bid2",
                        "mean_us", "p95_us"});
  double day_cost = 0.0;
  for (size_t s = begin; s < r.slots.size(); ++s) {
    const SlotRecord& rec = r.slots[s];
    int od = 0;
    for (size_t o = 0; o < rec.counts.size(); ++o) {
      if (o != bid1 && o != bid2) {
        od += rec.counts[o];
      }
    }
    day_cost += rec.cost;
    series.AddPoint({static_cast<double>(s - begin), rec.lambda / 1000.0,
                     static_cast<double>(od),
                     static_cast<double>(bid1 < rec.counts.size() ? rec.counts[bid1] : 0),
                     static_cast<double>(bid2 < rec.counts.size() ? rec.counts[bid2] : 0),
                     rec.mean_latency.seconds() * 1e6,
                     rec.p95_latency.seconds() * 1e6});
  }
  series.Print(std::cout, 1);
  std::printf("  final-day cost: $%.2f, total %d revocations over the run\n\n",
              day_cost, r.revocations);
  (void)cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const int days = argc > 1 ? std::atoi(argv[1]) : 45;
  std::printf(
      "Figure 10 reproduction: market m4.L-d, %d-day run, final 24 h shown\n"
      "(320 kops peak, 60 GB working set, Zipf 1.0)\n\n",
      days);

  ExperimentConfig cfg;
  cfg.workload = PrototypeWorkload(days, /*zipf_theta=*/1.0);
  cfg.market_filter = {"m4.L-d"};

  // The two runs are independent; fan them out over the experiment grid.
  std::vector<ExperimentConfig> cells(2, cfg);
  cells[0].approach = Approach::kPropNoBackup;
  cells[1].approach = Approach::kOdSpotSep;
  const std::vector<ExperimentResult> results = RunExperimentGrid(cells);
  const ExperimentResult& mix = results[0];
  const ExperimentResult& sep = results[1];
  Report(mix, 24, cfg);
  Report(sep, 24, cfg);

  std::printf("cost comparison over the full run: mixing $%.0f vs separation "
              "$%.0f (%.0f%% extra savings)\n",
              mix.total_cost, sep.total_cost,
              (1.0 - mix.total_cost / sep.total_cost) * 100.0);

  // The wastage diagnosis of §2.3: with separation, on-demand nodes sized
  // for hot *traffic* strand RAM, and spot nodes sized for cold *bytes*
  // strand CPU (paper: spot CPU utilization 18%, OD memory occupancy 25% at
  // the peak hour of its scaled wikipedia workload). Recomputed here from
  // plan geometry at the peak slot of each run.
  const InstanceCatalog catalog = InstanceCatalog::Default();
  const LatencyModel model;
  auto diagnose = [&](const ExperimentResult& r, const char* name) {
    size_t peak = 0;
    for (size_t s = 0; s < r.slots.size(); ++s) {
      if (r.slots[s].lambda > r.slots[peak].lambda) {
        peak = s;
      }
    }
    const SlotRecord& rec = r.slots[peak];
    // Reconstruct per-class capacity and demand from counts and labels.
    double od_ram = 0.0, od_cpu_rate = 0.0, spot_ram = 0.0, spot_cpu_rate = 0.0;
    int od_n = 0, spot_n = 0;
    for (size_t o = 0; o < rec.counts.size(); ++o) {
      if (rec.counts[o] == 0) {
        continue;
      }
      const bool od = r.option_labels[o].rfind("od:", 0) == 0;
      const InstanceTypeSpec* type = nullptr;
      if (od) {
        type = catalog.Find(r.option_labels[o].substr(3));
      } else {
        type = catalog.Find(
            r.option_labels[o].rfind("m4.XL", 0) == 0 ? "m4.xlarge"
                                                      : "m4.large");
      }
      const double cpu_rate = rec.counts[o] * type->capacity.vcpus *
                              model.params().service_rate_per_vcpu;
      const double ram =
          rec.counts[o] * type->capacity.ram_gb * kRamUsableFraction;
      if (od) {
        od_ram += ram;
        od_cpu_rate += cpu_rate;
        od_n += rec.counts[o];
      } else {
        spot_ram += ram;
        spot_cpu_rate += cpu_rate;
        spot_n += rec.counts[o];
      }
    }
    // Under separation: hot traffic (90%) on OD, cold bytes on spot.
    const double hot_traffic = rec.lambda * 0.9;
    const double cold_traffic = rec.lambda * 0.1;
    const double hot_gb = 0.18 * rec.working_set_gb;  // Zipf 1.0 hot set
    const double cold_gb = rec.working_set_gb - hot_gb;
    std::printf("%s at peak (%d OD + %d spot):\n", name, od_n, spot_n);
    if (od_n > 0) {
      std::printf("  on-demand: CPU util %.0f%%, memory occupancy %.0f%%\n",
                  100.0 * hot_traffic / od_cpu_rate,
                  100.0 * std::min(1.0, hot_gb / od_ram));
    }
    if (spot_n > 0) {
      std::printf("  spot:      CPU util %.0f%%, memory occupancy %.0f%%\n",
                  100.0 * cold_traffic / spot_cpu_rate,
                  100.0 * std::min(1.0, cold_gb / spot_ram));
    }
  };
  std::printf("\nresource-wastage diagnosis (paper: Sep strands RAM on OD and"
              " CPU on spot;\n mixing uses both):\n");
  diagnose(sep, "OD+Spot_Sep");
  // For mixing, report blended utilization across the whole fleet.
  {
    size_t peak = 0;
    for (size_t s = 0; s < mix.slots.size(); ++s) {
      if (mix.slots[s].lambda > mix.slots[peak].lambda) {
        peak = s;
      }
    }
    const SlotRecord& rec = mix.slots[peak];
    double cpu_rate = 0.0, ram = 0.0;
    for (size_t o = 0; o < rec.counts.size(); ++o) {
      if (rec.counts[o] == 0) {
        continue;
      }
      const bool od = mix.option_labels[o].rfind("od:", 0) == 0;
      const InstanceTypeSpec* type =
          od ? catalog.Find(mix.option_labels[o].substr(3))
             : catalog.Find(mix.option_labels[o].rfind("m4.XL", 0) == 0
                                ? "m4.xlarge"
                                : "m4.large");
      cpu_rate += rec.counts[o] * type->capacity.vcpus *
                  model.params().service_rate_per_vcpu;
      ram += rec.counts[o] * type->capacity.ram_gb * kRamUsableFraction;
    }
    std::printf("Prop_NoBackup at peak (whole fleet): CPU util %.0f%%, "
                "memory occupancy %.0f%%\n",
                100.0 * rec.lambda / cpu_rate,
                100.0 * std::min(1.0, rec.working_set_gb / ram));
  }
  return 0;
}
