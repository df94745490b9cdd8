// spotcache_cli: run any approach on any workload from the command line.
//
//   spotcache_cli [--trace=F] [--csv=F] [--metrics=F] run <approach>
//                 [days] [rate_kops] [ws_gb] [zipf] [market]
//   spotcache_cli compare [days] [rate_kops] [ws_gb] [zipf]
//   spotcache_cli markets
//   spotcache_cli recover [backup_type] [delay_s]
//
//   $ ./spotcache_cli run prop 30 320 60 1.0
//   $ ./spotcache_cli --trace=trace.jsonl run prop 10
//   $ ./spotcache_cli compare 10 500 100 2.0
//
// Approaches: odpeak, odonly, sep, cdf, prop-nobackup, prop. Numeric
// arguments are strict (whole text, in range); a bad one prints the usage
// and exits 2.
//
// Observability flags (apply to `run`; any one enables instrumentation):
//   --trace=FILE    write the structured JSONL event stream
//   --csv=FILE      write the sim-time metric series as CSV
//   --metrics=FILE  write a Prometheus-style text snapshot

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/cloud/spot_price_model.h"
#include "src/core/experiment.h"
#include "src/core/recovery_sim.h"
#include "src/util/flags.h"
#include "src/util/table.h"

using namespace spotcache;

namespace {

std::optional<Approach> ParseApproach(const std::string& name) {
  if (name == "odpeak") return Approach::kOdPeak;
  if (name == "odonly") return Approach::kOdOnly;
  if (name == "sep") return Approach::kOdSpotSep;
  if (name == "cdf") return Approach::kOdSpotCdf;
  if (name == "prop-nobackup") return Approach::kPropNoBackup;
  if (name == "prop") return Approach::kProp;
  return std::nullopt;
}

/// Reads the optional [days] [rate_kops] [ws_gb] [zipf] arguments starting
/// at args[base]; nullopt when any given one is malformed or out of range.
std::optional<WorkloadSpec> ParseWorkload(const std::vector<std::string>& args,
                                          size_t base) {
  WorkloadSpec w;
  w.name = "cli";
  int64_t days = 10;
  double rate_kops = 320.0;
  w.peak_working_set_gb = 60.0;
  w.zipf_theta = 1.0;
  const auto given = [&](size_t i) { return args.size() > base + i; };
  if ((given(0) && !ParseInt(args[base], 1, 3650, &days)) ||
      (given(1) && !ParseReal(args[base + 1], 1e-3, 1e9, &rate_kops)) ||
      (given(2) &&
       !ParseReal(args[base + 2], 1e-3, 1e6, &w.peak_working_set_gb)) ||
      (given(3) && !ParseReal(args[base + 3], 1e-3, 100.0, &w.zipf_theta))) {
    return std::nullopt;
  }
  w.days = static_cast<int>(days);
  w.peak_rate_ops = rate_kops * 1e3;
  return w;
}

void PrintSummary(const ExperimentResult& r) {
  TextTable t("result: " + r.approach_name);
  t.SetHeader({"metric", "value"});
  t.AddRow({"total cost", "$" + TextTable::Num(r.total_cost, 2)});
  t.AddRow({"  on-demand", "$" + TextTable::Num(r.od_cost, 2)});
  t.AddRow({"  spot", "$" + TextTable::Num(r.spot_cost, 2)});
  t.AddRow({"  backup", "$" + TextTable::Num(r.backup_cost, 2)});
  t.AddRow({"mean latency",
            TextTable::Num(r.tracker.MeanLatency().seconds() * 1e6, 0) + " us"});
  t.AddRow({"worst slot p95",
            TextTable::Num(r.tracker.MaxP95().seconds() * 1e6, 0) + " us"});
  t.AddRow({"revocations", std::to_string(r.revocations)});
  t.AddRow({"bid rejections", std::to_string(r.bid_rejections)});
  t.AddRow({"days >1% affected",
            TextTable::Pct(r.tracker.DaysViolatedFraction(0.01))});
  t.Print(std::cout);
}

int Usage() {
  std::printf(
      "usage:\n"
      "  spotcache_cli [--trace=F] [--csv=F] [--metrics=F]"
      " run <odpeak|odonly|sep|cdf|prop-nobackup|prop>"
      " [days] [rate_kops] [ws_gb] [zipf] [market]\n"
      "  spotcache_cli compare [days] [rate_kops] [ws_gb] [zipf]\n"
      "  spotcache_cli markets\n"
      "  spotcache_cli recover [backup_type|none] [delay_s]\n"
      "flags:\n"
      "  --trace=FILE    JSONL event stream (replans, revocations, warm-ups)\n"
      "  --csv=FILE      sim-time metric series as CSV\n"
      "  --metrics=FILE  Prometheus-style text snapshot\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ObsConfig obs;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      obs.enabled = true;
      obs.jsonl_path = arg.substr(8);
    } else if (arg.rfind("--csv=", 0) == 0) {
      obs.enabled = true;
      obs.csv_path = arg.substr(6);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      obs.enabled = true;
      obs.prometheus_path = arg.substr(10);
    } else if (arg.rfind("--", 0) == 0) {
      std::printf("unknown flag '%s'\n\n", arg.c_str());
      return Usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    return Usage();
  }
  const std::string command = args[0];

  if (command == "run") {
    if (args.size() < 2) {
      return Usage();
    }
    const auto approach = ParseApproach(args[1]);
    const auto workload = ParseWorkload(args, 2);
    if (!approach || !workload) {
      return Usage();
    }
    ExperimentConfig cfg;
    cfg.workload = *workload;
    cfg.approach = *approach;
    cfg.obs = obs;
    if (args.size() > 6) {
      cfg.market_filter = {args[6]};
    }
    std::printf("running %s: %d days, %.0f kops peak, %.0f GB, Zipf %.1f\n\n",
                args[1].c_str(), cfg.workload.days,
                cfg.workload.peak_rate_ops / 1e3,
                cfg.workload.peak_working_set_gb, cfg.workload.zipf_theta);
    PrintSummary(RunExperiment(cfg));
    if (!obs.jsonl_path.empty()) {
      std::printf("trace written to %s\n", obs.jsonl_path.c_str());
    }
    if (!obs.csv_path.empty()) {
      std::printf("metric series written to %s\n", obs.csv_path.c_str());
    }
    if (!obs.prometheus_path.empty()) {
      std::printf("metrics snapshot written to %s\n",
                  obs.prometheus_path.c_str());
    }
    return 0;
  }

  if (command == "compare") {
    const auto workload = ParseWorkload(args, 1);
    if (!workload) {
      return Usage();
    }
    ExperimentConfig cfg;
    cfg.workload = *workload;
    std::printf("comparing all approaches: %d days, %.0f kops, %.0f GB, "
                "Zipf %.1f\n\n",
                cfg.workload.days, cfg.workload.peak_rate_ops / 1e3,
                cfg.workload.peak_working_set_gb, cfg.workload.zipf_theta);
    TextTable t("approach comparison");
    t.SetHeader({"approach", "cost ($)", "norm", "mean (us)", "viol. days",
                 "revocations"});
    double od_only = 0.0;
    for (Approach a : AllApproaches()) {
      cfg.approach = a;
      const ExperimentResult r = RunExperiment(cfg);
      if (a == Approach::kOdOnly) {
        od_only = r.total_cost;
      }
      t.AddRow({std::string(ToString(a)), TextTable::Num(r.total_cost, 0),
                od_only > 0 ? TextTable::Num(r.total_cost / od_only, 3) : "-",
                TextTable::Num(r.tracker.MeanLatency().seconds() * 1e6, 0),
                TextTable::Pct(r.tracker.DaysViolatedFraction(0.01)),
                std::to_string(r.revocations)});
    }
    t.Print(std::cout);
    return 0;
  }

  if (command == "markets") {
    const InstanceCatalog catalog = InstanceCatalog::Default();
    const auto markets = MakeEvaluationMarkets(catalog, Duration::Days(90), 7);
    TextTable t("evaluation markets (90-day synthetic traces)");
    t.SetHeader({"market", "type", "zone", "od ($/h)", "mean spot", "discount"});
    for (const auto& m : markets) {
      const double mean = m.trace.AveragePrice(SimTime(), m.trace.end());
      t.AddRow({m.name, m.type->name, m.zone, TextTable::Num(m.od_price(), 3),
                TextTable::Num(mean, 4),
                TextTable::Pct(1.0 - mean / m.od_price())});
    }
    t.Print(std::cout);
    return 0;
  }

  if (command == "recover") {
    const InstanceCatalog catalog = InstanceCatalog::Default();
    RecoveryConfig cfg;
    const std::string backup = args.size() > 1 ? args[1] : "t2.medium";
    if (backup != "none") {
      cfg.backup_type = catalog.Find(backup);
      if (cfg.backup_type == nullptr) {
        std::printf("unknown type '%s'\n", backup.c_str());
        return 2;
      }
    }
    int64_t delay_s = 0;
    if (args.size() > 2 && !ParseInt(args[2], 0, 86'400, &delay_s)) {
      return Usage();
    }
    cfg.replacement_delay = Duration::Seconds(delay_s);
    const RecoveryResult r = SimulateRecovery(cfg);
    std::printf("backup=%s delay=%llds: warm-up %s, hot p95 %.0f us, "
                "max mean %.0f us%s\n",
                backup.c_str(), static_cast<long long>(delay_s),
                ToString(r.warmup_time).c_str(),
                r.p95_during_recovery.seconds() * 1e6,
                r.max_mean_latency.seconds() * 1e6,
                r.backup_tokens_exhausted ? " (tokens exhausted)" : "");
    return 0;
  }

  return Usage();
}
