#include "workload/dynamic.h"

#include "harness/registry.h"

namespace lion {

DynamicYcsbWorkload::DynamicYcsbWorkload(const ClusterConfig& cluster,
                                         std::vector<DynamicPhase> phases)
    : phases_(std::move(phases)), total_(0) {
  for (const DynamicPhase& p : phases_) {
    generators_.push_back(std::make_unique<YcsbWorkload>(cluster, p.ycsb));
    total_ += p.duration;
  }
}

size_t DynamicYcsbWorkload::PhaseAt(SimTime now) const {
  SimTime t = total_ > 0 ? now % total_ : now;
  SimTime acc = 0;
  for (size_t i = 0; i < phases_.size(); ++i) {
    acc += phases_[i].duration;
    if (t < acc) return i;
  }
  return phases_.size() - 1;
}

TxnPtr DynamicYcsbWorkload::Next(TxnId id, SimTime now, Rng* rng) {
  return generators_[PhaseAt(now)]->Next(id, now, rng);
}

std::vector<DynamicPhase> DynamicYcsbWorkload::HotspotInterval(
    const ClusterConfig& cluster, SimTime period) {
  // Three custom queries, uniform access; the partition-ID interval of each
  // query is fixed within a period and shifts across periods.
  std::vector<DynamicPhase> phases;
  int m = cluster.total_partitions();
  for (int i = 0; i < 3; ++i) {
    DynamicPhase p;
    p.ycsb.cross_ratio = 1.0;
    p.ycsb.skew_factor = 0.0;
    p.ycsb.partition_offset = (i * m) / 3;
    p.duration = period;
    phases.push_back(p);
  }
  return phases;
}

std::vector<DynamicPhase> DynamicYcsbWorkload::HotspotPosition(
    const ClusterConfig& cluster, SimTime period) {
  std::vector<DynamicPhase> phases;
  // A: uniform, 50% cross.
  DynamicPhase a;
  a.ycsb.cross_ratio = 0.5;
  a.duration = period;
  phases.push_back(a);
  // B: skew, 50% cross.
  DynamicPhase b;
  b.ycsb.cross_ratio = 0.5;
  b.ycsb.skew_factor = 0.8;
  b.duration = period;
  phases.push_back(b);
  // C: skew, 100% cross.
  DynamicPhase c;
  c.ycsb.cross_ratio = 1.0;
  c.ycsb.skew_factor = 0.8;
  c.duration = period;
  phases.push_back(c);
  // D: skew, 100% cross, shifted key distribution (partition-ID offset).
  DynamicPhase d;
  d.ycsb.cross_ratio = 1.0;
  d.ycsb.skew_factor = 0.8;
  d.ycsb.partition_offset = cluster.total_partitions() / 2;
  d.duration = period;
  phases.push_back(d);
  return phases;
}


namespace {
const WorkloadRegistrar kRegisterHotspotInterval(
    "ycsb-hotspot-interval",
    [](const WorkloadContext& ctx) -> std::unique_ptr<WorkloadGenerator> {
      return std::make_unique<DynamicYcsbWorkload>(
          ctx.config.cluster,
          DynamicYcsbWorkload::HotspotInterval(ctx.config.cluster,
                                               ctx.config.dynamic_period));
    });
const WorkloadRegistrar kRegisterHotspotPosition(
    "ycsb-hotspot-position",
    [](const WorkloadContext& ctx) -> std::unique_ptr<WorkloadGenerator> {
      return std::make_unique<DynamicYcsbWorkload>(
          ctx.config.cluster,
          DynamicYcsbWorkload::HotspotPosition(ctx.config.cluster,
                                               ctx.config.dynamic_period));
    });
}  // namespace

}  // namespace lion
