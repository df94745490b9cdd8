// Procurement decision types: the (market, bid) option space and the per-slot
// allocation plan (the paper's N, x, y variables).

#pragma once

#include <string>
#include <vector>

#include "src/cloud/instance_types.h"
#include "src/cloud/spot_market.h"

namespace spotcache {

/// Fraction of instance RAM usable for cache data (memcached overhead). The
/// LP, the cluster's backup sizing and the reserved-instance demand series
/// all apply it to `capacity.ram_gb`.
inline constexpr double kRamUsableFraction = 0.85;

/// One procurement option: an on-demand type, or a (spot market, bid) pair.
/// The paper treats on-demand as a degenerate spot option with infinite
/// lifetime and a fixed price; we keep the distinction explicit.
struct ProcurementOption {
  enum class Kind { kOnDemand, kSpot };

  Kind kind = Kind::kOnDemand;
  const InstanceTypeSpec* type = nullptr;
  const SpotMarket* market = nullptr;  // spot only
  double bid = 0.0;                    // spot only, absolute $/hour
  std::string label;

  bool is_on_demand() const { return kind == Kind::kOnDemand; }
};

/// Builds the evaluation option set: every on-demand candidate type plus
/// every (market, bid multiplier x on-demand price) pair.
std::vector<ProcurementOption> BuildOptions(
    const InstanceCatalog& catalog, const std::vector<SpotMarket>& markets,
    const std::vector<double>& bid_multipliers);

/// Allocation for a single option within one control slot.
struct AllocationItem {
  size_t option = 0;  // index into the option vector
  int count = 0;      // N + N-tilde: instances to hold this slot
  double x = 0.0;     // hot working-set fraction placed here
  double y = 0.0;     // cold working-set fraction placed here
};

struct AllocationPlan {
  bool feasible = false;
  std::vector<AllocationItem> items;  // only options with count>0 or data
  double lp_objective = 0.0;          // relaxed objective value ($ for the slot)

  int TotalInstances() const;
  int CountFor(size_t option) const;
  const AllocationItem* ItemFor(size_t option) const;
  /// Working-set fraction (x+y) placed on on-demand options.
  double OnDemandDataFraction(const std::vector<ProcurementOption>& options) const;
};

}  // namespace spotcache
