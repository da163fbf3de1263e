#include "sim/network.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace lion {

namespace {
// Stream constant separating the jitter RNG from the experiment RNG seeded
// with the same value (golden-ratio increment, as in splitmix64).
constexpr uint64_t kJitterStreamSalt = 0x9e3779b97f4a7c15ULL;
}  // namespace

Network::Network(Simulator* sim, NetworkConfig config, int num_nodes)
    : sim_(sim),
      config_(std::move(config)),
      topology_(config_, num_nodes),
      jitter_rng_(sim->seed() ^ kJitterStreamSalt),
      total_bytes_(0),
      total_messages_(0) {}

SimTime Network::TransferDelay(NodeId from, NodeId to, uint64_t bytes) const {
  if (from == to) return config_.local_latency;
  double serialization = static_cast<double>(bytes) /
                         NetworkConfig::bandwidth_bytes_per_sec * kSecond;
  return topology_.base_latency(from, to) +
         static_cast<SimTime>(std::llround(serialization));
}

void Network::RollWindows() {
  size_t idx = static_cast<size_t>(sim_->Now() / kStatsWindow);
  if (window_bytes_.size() <= idx) window_bytes_.resize(idx + 1, 0);
}

void Network::StartPartition(const std::vector<NodeId>& island) {
  partition_active_ = true;
  island_.assign(static_cast<size_t>(topology_.num_nodes()), false);
  for (NodeId n : island) {
    if (n >= 0 && static_cast<size_t>(n) < island_.size()) {
      island_[static_cast<size_t>(n)] = true;
    }
  }
}

void Network::HealPartition() {
  if (!partition_active_) return;
  partition_active_ = false;
  // Retransmit in send order from the heal time: serialization and jitter
  // re-apply, so delivery stays deterministic under a fixed seed.
  std::vector<ParkedMessage> parked;
  parked.swap(parked_);
  for (ParkedMessage& m : parked) {
    Send(m.from, m.to, m.bytes, std::move(m.on_delivery));
  }
}

void Network::Send(NodeId from, NodeId to, uint64_t bytes,
                   Simulator::EventFn on_delivery) {
  if (partition_active_ && from != to && Side(from) != Side(to)) {
    messages_dropped_++;
    parked_.push_back(ParkedMessage{from, to, bytes, std::move(on_delivery)});
    return;
  }
  SimTime delay = TransferDelay(from, to, bytes);
  if (from != to) {
    if (config_.jitter_pct > 0.0) {
#ifndef NDEBUG
      // Jitter must come from the dedicated stream: a draw from the
      // experiment RNG here would shift every downstream workload/protocol
      // sequence the moment jitter is enabled.
      const uint64_t experiment_stream_before = sim_->rng().StateFingerprint();
#endif
      double u = 2.0 * jitter_rng_.NextDouble() - 1.0;  // [-1, 1)
      delay += static_cast<SimTime>(
          std::llround(u * config_.jitter_pct * static_cast<double>(delay)));
#ifndef NDEBUG
      assert(sim_->rng().StateFingerprint() == experiment_stream_before &&
             "network jitter drew from the experiment RNG stream");
#endif
    }
    total_bytes_ += bytes;
    total_messages_ += 1;
    RollWindows();
    window_bytes_[static_cast<size_t>(sim_->Now() / kStatsWindow)] += bytes;
  }
  sim_->Schedule(delay, std::move(on_delivery));
}

}  // namespace lion
