// Epoch-based OCC for geo-replicated deployments.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocols/batch_protocol.h"

namespace lion {

/// GeoOcc executes every transaction of an epoch optimistically (lock-free
/// snapshot reads, versions recorded) and defers all coordination to the
/// epoch boundary: one validate-and-lock round to each touched partition's
/// primary, then apply+replicate on unanimous yes or release-and-retry on
/// any conflict. Amortizing validation over the epoch means a transaction
/// pays the WAN round-trip once per epoch rather than once per lock, which
/// is the standard recipe for hiding cross-region latency (cf. the
/// Didona et al. lower bound in the "reference" report of
/// examples/configs/fig_geo.json).
class GeoOccProtocol : public BatchProtocol {
 public:
  GeoOccProtocol(Cluster* cluster, MetricsCollector* metrics);

  std::string name() const override { return "geo_occ"; }

  uint64_t validation_aborts() const { return validation_aborts_; }

 protected:
  void ExecuteBatch(std::vector<Item> batch) override;

 private:
  struct TxnState;

  void ValidatePhase(const std::shared_ptr<TxnState>& st);
  void FinishValidation(const std::shared_ptr<TxnState>& st);
  void AbortPhase(const std::shared_ptr<TxnState>& st);

  uint64_t validation_aborts_ = 0;
};

}  // namespace lion
