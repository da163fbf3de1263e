// Figure 6 + Table II: ablation study. Throughput of the Lion variants vs
// the cross-partition ratio on uniform YCSB (Sec. VI-B).
//
//   2PC       : no adaptation                    (baseline)
//   Lion(S)   : Schism partitioning              (replica-blind)
//   Lion(R)   : replica rearrangement only
//   Lion(SW)  : Schism + workload prediction
//   Lion(RW)  : rearrangement + prediction
//   Lion(RB)  : rearrangement + batch execution
//   Lion      : rearrangement + prediction + batch (full system)
//
// The variant list is intentionally hard-coded: this IS the ablation
// figure, so it names the Table II variants explicitly rather than
// enumerating the registry.
#include "bench_common.h"

namespace lion {
namespace {

struct Variant {
  const char* label;    // paper name
  const char* factory;  // protocol factory name
};
const Variant kVariants[] = {
    {"2PC", "2PC"},           {"Lion(S)", "Lion(S)"}, {"Lion(R)", "Lion(R)"},
    {"Lion(SW)", "Lion(SW)"}, {"Lion(RW)", "Lion(RW)"}, {"Lion(RB)", "Lion(RB)"},
    {"Lion", "Lion(B)"},
};
const int kRatios[] = {0, 20, 50, 80, 100};

std::vector<bench::PointSpec> BuildSweep() {
  std::vector<bench::PointSpec> specs;
  for (const Variant& v : kVariants) {
    for (int ratio : kRatios) {
      ExperimentConfig cfg = bench::EvalConfig(v.factory);
      cfg.workload = "ycsb";
      cfg.ycsb.cross_ratio = ratio / 100.0;
      cfg.ycsb.skew_factor = 0.0;  // uniform workload (Sec. VI-B)
      // Lightweight protocol-level remastering for the ablation; the
      // explicit 3000 us delay is the Fig. 7 setting.
      cfg.cluster.remaster_base_delay = 500 * kMicrosecond;
      // Batch variants need a client window above the worker-capacity
      // ceiling (4000 outstanding x 10 ms epochs caps visible throughput
      // at 400k/s).
      if (ProtocolRegistry::Global().IsBatch(v.factory)) {
        cfg.concurrency = 16000;
      }
      specs.push_back(bench::PointSpec{
          std::string("Fig6/") + v.label + "/cross=" + std::to_string(ratio),
          cfg, nullptr});
    }
  }
  return specs;
}

}  // namespace
}  // namespace lion

int main(int argc, char** argv) {
  return lion::bench::SweepMain(
      argc, argv,
      "Fig6 / Table II ablation (partitioning, prediction and batch variants)",
      lion::BuildSweep());
}
