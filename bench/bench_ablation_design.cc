// Design-choice ablations beyond the paper's figures:
//   (a) cost-model migration/remaster weight ratio w_m / w_r — how strongly
//       the plan generator avoids full copies;
//   (b) planner interval — adaptation freshness vs. churn;
//   (c) replica budget (max_replicas) — placement freedom vs. sync cost.
// All on skewed YCSB at 80% cross-partition ratio with standard Lion.
#include "bench_common.h"

namespace lion {
namespace {

ExperimentConfig Base() {
  ExperimentConfig cfg = bench::EvalConfig("Lion(R)");
  cfg.workload = "ycsb";
  cfg.ycsb.cross_ratio = 0.8;
  cfg.ycsb.skew_factor = 0.8;
  cfg.cluster.remaster_base_delay = 3000 * kMicrosecond;
  return cfg;
}

const double kWmOverWr[] = {1.0, 2.0, 5.0, 10.0, 50.0};
const int kPlannerMs[] = {100, 250, 500, 1000, 2000};
const int kMaxReplicas[] = {2, 3, 4};

std::vector<bench::PointSpec> BuildSweep() {
  std::vector<bench::PointSpec> specs;
  for (double wm : kWmOverWr) {
    ExperimentConfig cfg = Base();
    cfg.lion.cost.wr = 1.0;
    cfg.lion.cost.wm = wm;
    cfg.lion.planner.plan.cost = cfg.lion.cost;
    specs.push_back(bench::PointSpec{
        "Ablation/wm_over_wr=" + std::to_string(static_cast<int>(wm)), cfg,
        nullptr});
  }
  for (int ms : kPlannerMs) {
    ExperimentConfig cfg = Base();
    cfg.lion.planner.interval = ms * kMillisecond;
    specs.push_back(bench::PointSpec{
        "Ablation/planner_ms=" + std::to_string(ms), cfg, nullptr});
  }
  for (int replicas : kMaxReplicas) {
    ExperimentConfig cfg = Base();
    cfg.cluster.max_replicas = replicas;
    specs.push_back(bench::PointSpec{
        "Ablation/max_replicas=" + std::to_string(replicas), cfg, nullptr});
  }
  return specs;
}

}  // namespace
}  // namespace lion

int main(int argc, char** argv) {
  return lion::bench::SweepMain(argc, argv, "Design-choice ablations",
                                lion::BuildSweep());
}
