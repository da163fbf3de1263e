// Dynamic workloads with shifting hotspots (Sec. VI-C2).
#pragma once

#include <memory>
#include <vector>

#include "workload/ycsb.h"

namespace lion {

/// One phase of a dynamic scenario: a YCSB configuration active for
/// `duration` of simulated time.
struct DynamicPhase {
  YcsbConfig ycsb;
  SimTime duration = 5 * kSecond;
};

/// Cycles through YCSB phases over simulated time, changing access patterns
/// at each boundary (non-overlapping hotspots per the paper's setup).
class DynamicYcsbWorkload : public WorkloadGenerator {
 public:
  DynamicYcsbWorkload(const ClusterConfig& cluster,
                      std::vector<DynamicPhase> phases);

  std::string name() const override { return "ycsb-dynamic"; }
  TxnPtr Next(TxnId id, SimTime now, Rng* rng) override;

  /// Index of the phase active at `now`; the phases repeat after the last.
  size_t PhaseAt(SimTime now) const;

  size_t num_phases() const { return phases_.size(); }

  /// The scenario of Fig. 8a/10a: uniform access whose partition-ID
  /// interval shifts every `period` (three custom queries).
  static std::vector<DynamicPhase> HotspotInterval(const ClusterConfig& cluster,
                                                   SimTime period);

  /// The scenario of Fig. 8b/10b: periods A (uniform, 50% cross),
  /// B (skew, 50%), C (skew, 100%), D (skew, 100%, shifted distribution).
  static std::vector<DynamicPhase> HotspotPosition(const ClusterConfig& cluster,
                                                   SimTime period);

 private:
  std::vector<DynamicPhase> phases_;
  std::vector<std::unique_ptr<YcsbWorkload>> generators_;
  SimTime total_;
};

}  // namespace lion
