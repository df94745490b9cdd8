#include "src/opt/reserved.h"

#include <algorithm>
#include <cmath>

#include "src/opt/procurement.h"

namespace spotcache {

namespace {

double CostWithReservation(const std::vector<double>& demand, int reserved,
                           double od_price, double discount) {
  const double reserved_hourly = reserved * od_price * (1.0 - discount);
  double total = 0.0;
  for (double d : demand) {
    const double overflow = std::max(0.0, std::ceil(d) - reserved);
    total += reserved_hourly + overflow * od_price;
  }
  return total;
}

}  // namespace

ReservedAnalysis AnalyzeReservation(const std::vector<double>& hourly_demand,
                                    double od_price_per_hour, double discount,
                                    double decline_factor) {
  ReservedAnalysis out;
  if (hourly_demand.empty() || od_price_per_hour <= 0.0) {
    return out;
  }
  int peak = 0;
  for (double d : hourly_demand) {
    peak = std::max(peak, static_cast<int>(std::ceil(d)));
  }

  out.od_only_cost =
      CostWithReservation(hourly_demand, 0, od_price_per_hour, discount);
  out.reserved_cost = out.od_only_cost;
  for (int r = 1; r <= peak; ++r) {
    const double cost =
        CostWithReservation(hourly_demand, r, od_price_per_hour, discount);
    if (cost < out.reserved_cost) {
      out.reserved_cost = cost;
      out.best_count = r;
    }
  }
  out.savings_fraction =
      out.od_only_cost > 0.0 ? 1.0 - out.reserved_cost / out.od_only_cost : 0.0;

  // The risk case: demand declines after the commitment is locked in.
  std::vector<double> declined;
  declined.reserve(hourly_demand.size());
  for (double d : hourly_demand) {
    declined.push_back(d * decline_factor);
  }
  out.declined_reserved_cost = CostWithReservation(
      declined, out.best_count, od_price_per_hour, discount);
  out.declined_od_cost =
      CostWithReservation(declined, 0, od_price_per_hour, discount);
  out.regret_fraction =
      out.declined_od_cost > 0.0
          ? out.declined_reserved_cost / out.declined_od_cost - 1.0
          : 0.0;
  return out;
}

std::vector<double> InstanceDemandSeries(const WorkloadTrace& trace,
                                         const InstanceTypeSpec& type,
                                         double ops_capacity_per_instance) {
  std::vector<double> demand;
  demand.reserve(trace.slots());
  const double usable_gb = type.capacity.ram_gb * kRamUsableFraction;
  for (size_t s = 0; s < trace.slots(); ++s) {
    const double by_ram = trace.WorkingSetGbAt(s) / usable_gb;
    const double by_rate =
        ops_capacity_per_instance > 0.0
            ? trace.RateAt(s) / ops_capacity_per_instance
            : 0.0;
    demand.push_back(std::max(by_ram, by_rate));
  }
  return demand;
}

}  // namespace spotcache
