#include "protocols/meta_protocol.h"

#include <algorithm>
#include <utility>

#include "harness/registry.h"

namespace lion {

namespace {
/// Normalized forecast load (per-partition forecast / hottest partition) at
/// or above which a partition counts as write-hot.
constexpr double kHotThreshold = 0.5;
/// Smoothed cross-partition ratio at or above which a partition counts as
/// cross-heavy.
constexpr double kCrossThreshold = 0.3;
/// Consecutive epochs the decision rule must prefer the same non-current
/// child before a flip is attempted.
constexpr int kHysteresisEpochs = 3;
/// Minimum epochs between flips of the same partition.
constexpr int kCooldownEpochs = 10;
/// A flip to the single-master child fires only when the partition's
/// smoothed cross-partition load (txns/epoch) reaches this multiple of the
/// flip's placement cost.
constexpr double kCostGate = 0.05;
/// EWMA factor for the observed per-partition load and cross-ratio windows.
constexpr double kSmoothing = 0.3;
}  // namespace

MetaProtocol::MetaProtocol(
    Cluster* cluster, MetricsCollector* metrics, const CostModelConfig& cost,
    std::array<std::unique_ptr<Protocol>, kNumChildren> children,
    std::unique_ptr<PredictorInterface> predictor, int horizon)
    : Protocol(cluster, metrics),
      horizon_(horizon),
      flip_cost_(cost.wm),
      children_(std::move(children)),
      predictor_(std::move(predictor)),
      parts_(static_cast<size_t>(cluster->num_partitions())) {}

MetaProtocol::~MetaProtocol() = default;

void MetaProtocol::Start() {
  for (auto& child : children_) child->Start();
  StartEpochTimer();
}

void MetaProtocol::Stop() {
  Protocol::Stop();
  for (auto& child : children_) child->Stop();
}

void MetaProtocol::EnableDegradation(const ChaosConfig* config) {
  Protocol::EnableDegradation(config);
  for (auto& child : children_) child->EnableDegradation(config);
}

std::vector<uint64_t> MetaProtocol::AssignmentCounts() const {
  std::vector<uint64_t> counts(kNumChildren, 0);
  for (const PartitionState& ps : parts_) counts[ps.assigned]++;
  return counts;
}

void MetaProtocol::AddResultMembers(Json* members) const {
  Json children = Json::Array();
  for (const char* name : kChildNames) children.Add(Json::Str(name));
  Json assignment = Json::Array();
  for (uint64_t n : AssignmentCounts()) assignment.Add(Json::Uint(n));
  Json summary = Json::Object();
  summary.Set("children", std::move(children));
  summary.Set("final_assignment", std::move(assignment));
  summary.Set("switches", Json::Uint(flips_.size()));
  members->Set("meta", std::move(summary));
  Json timeline = Json::Array();
  for (const Flip& f : flips_) {
    Json event = Json::Object();
    event.Set("t_ms", Json::Printf("%.6g", static_cast<double>(f.at) / 1e6));
    event.Set("partition", Json::Int(f.partition));
    event.Set("from", Json::Str(kChildNames[f.from]));
    event.Set("to", Json::Str(kChildNames[f.to]));
    timeline.Add(std::move(event));
  }
  members->Set("protocol_switches", std::move(timeline));
}

bool MetaProtocol::SwitchInProgress() const {
  for (const PartitionState& ps : parts_) {
    if (ps.switching_to >= 0) return true;
  }
  return false;
}

int MetaProtocol::RouteChild(const std::vector<PartitionId>& parts) const {
  if (parts.empty()) return 0;
  // Majority vote of the touched partitions' assignments; ties resolve to
  // the lowest child index, so a half-migrated transaction leans baseline.
  int best = 0;
  int best_votes = 0;
  for (size_t c = 0; c < kNumChildren; ++c) {
    int votes = 0;
    for (PartitionId p : parts) {
      if (parts_[p].assigned == static_cast<int>(c)) votes++;
    }
    if (votes > best_votes) {
      best = static_cast<int>(c);
      best_votes = votes;
    }
  }
  return best;
}

void MetaProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  const SimTime now = cluster_->sim()->Now();
  std::vector<PartitionId> parts = txn->Partitions();
  for (PartitionId p : parts) {
    if (parts_[p].switching_to >= 0) {
      // A touched partition is mid-handoff: park until the flip completes.
      // The partition's in-flight count is strictly positive while it is
      // switching (a drained partition flips immediately), so the drain
      // that unblocks this queue is always in motion. Stats are recorded
      // at routing time below, so a parked transaction counts once.
      parked_.push_back(ParkedTxn{std::move(txn), std::move(done)});
      return;
    }
  }
  if (predictor_ != nullptr) predictor_->OnTxn(parts, now);
  bool cross = parts.size() > 1;
  for (PartitionId p : parts) {
    PartitionState& ps = parts_[p];
    ps.window_total++;
    if (cross) ps.window_cross++;
    ps.inflight++;
  }
  int child = RouteChild(parts);
  TxnDoneFn wrapped = [this, parts = std::move(parts),
                       done = std::move(done)](TxnPtr finished) mutable {
    for (PartitionId p : parts) {
      PartitionState& ps = parts_[p];
      ps.inflight--;
      if (ps.switching_to >= 0 && ps.inflight == 0) {
        CompleteSwitch(p, cluster_->sim()->Now());
      }
    }
    done(std::move(finished));
  };
  // The child's public Submit, not its SubmitTxn: child-level degradation
  // re-checks availability against current routing state.
  children_[child]->Submit(std::move(txn), std::move(wrapped));
}

int MetaProtocol::DesiredChild(const PartitionState& ps, double norm_load) {
  bool hot = norm_load >= kHotThreshold;
  bool cross = ps.cross_ewma >= kCrossThreshold;
  return hot && cross ? 1 : 0;  // single-master batching, else the baseline
}

void MetaProtocol::OnEpoch(SimTime now) {
  epoch_index_++;
  const double a = kSmoothing;
  for (PartitionState& ps : parts_) {
    ps.load_ewma = a * static_cast<double>(ps.window_total) +
                   (1.0 - a) * ps.load_ewma;
    if (ps.window_total > 0) {
      double ratio = static_cast<double>(ps.window_cross) /
                     static_cast<double>(ps.window_total);
      ps.cross_ewma = a * ratio + (1.0 - a) * ps.cross_ewma;
    }
    ps.window_total = 0;
    ps.window_cross = 0;
  }

  // Forecast load per partition; quiet or predictor-less epochs fall back
  // to the observed EWMA, so the decision rule always has a signal.
  forecast_.clear();
  if (predictor_ != nullptr) {
    predictor_->ForecastPartitions(now, horizon_, &forecast_);
  }
  double max_load = 0.0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    double load = p < forecast_.size() && forecast_[p] > 0.0
                      ? forecast_[p]
                      : parts_[p].load_ewma;
    max_load = std::max(max_load, load);
  }
  if (max_load <= 0.0) return;  // nothing observed or predicted yet

  for (size_t p = 0; p < parts_.size(); ++p) {
    PartitionState& ps = parts_[p];
    if (ps.switching_to >= 0) continue;  // handoff still draining
    double load = p < forecast_.size() && forecast_[p] > 0.0 ? forecast_[p]
                                                             : ps.load_ewma;
    int desired = DesiredChild(ps, load / max_load);
    if (desired == ps.assigned) {
      ps.desired_streak = 0;
      ps.last_desired = desired;
      continue;
    }
    // Hysteresis: the rule must keep preferring the same target.
    ps.desired_streak = desired == ps.last_desired ? ps.desired_streak + 1 : 1;
    ps.last_desired = desired;
    if (ps.desired_streak < kHysteresisEpochs) continue;
    if (epoch_index_ - ps.last_flip_epoch < kCooldownEpochs) continue;
    // Cost gate: smoothed cross-partition load must pay for the move (a
    // fall back to the baseline moves nothing).
    double benefit = ps.load_ewma * ps.cross_ewma;
    if (desired != 0 && benefit < kCostGate * flip_cost_) continue;
    StartSwitch(static_cast<PartitionId>(p), desired, now);
  }
}

void MetaProtocol::StartSwitch(PartitionId pid, int target, SimTime now) {
  PartitionState& ps = parts_[pid];
  ps.switching_to = target;
  ps.desired_streak = 0;
  // Flush the outgoing child's buffered work so the partition's in-flight
  // transactions are all actually executing (batch children hold submitted
  // work until their next epoch flush).
  children_[ps.assigned]->OnEpoch(now);
  if (ps.inflight == 0) CompleteSwitch(pid, now);
}

void MetaProtocol::CompleteSwitch(PartitionId pid, SimTime now) {
  PartitionState& ps = parts_[pid];
  int from = ps.assigned;
  int to = ps.switching_to;
  ps.assigned = to;
  ps.switching_to = -1;
  ps.last_flip_epoch = epoch_index_;
  flips_.push_back(Flip{now, pid, from, to});

  if (!parked_.empty()) {
    // Re-enter unblocked transactions through the public Submit gate so
    // chaos availability is re-checked; still-blocked ones re-park (the
    // swap keeps this loop from revisiting them).
    std::deque<ParkedTxn> pending;
    pending.swap(parked_);
    for (ParkedTxn& item : pending) {
      Submit(std::move(item.txn), std::move(item.done));
    }
  }
  if (stopped()) {
    // After Stop, a batch child buffers re-submitted work without arming
    // another flush (its epoch timer is down) — nudge it one epoch later so
    // nothing strands between children.
    int target = to;
    cluster_->sim()->Schedule(
        cluster_->config().epoch_interval, [this, target]() {
          children_[target]->OnEpoch(cluster_->sim()->Now());
        });
  }
}

namespace {

std::unique_ptr<Protocol> MakeMeta(const ProtocolContext& ctx) {
  std::array<std::unique_ptr<Protocol>, MetaProtocol::kNumChildren> children;
  for (size_t i = 0; i < children.size(); ++i) {
    Status s = ProtocolRegistry::Global().Create(MetaProtocol::kChildNames[i],
                                                 ctx, &children[i]);
    if (!s.ok()) return nullptr;
  }
  std::unique_ptr<PredictorInterface> predictor;
  if (ctx.config.predictor.kind != kPredictorOff) {
    // Seed offset keeps the meta predictor's RNG stream disjoint from the
    // workload's and from any child protocol's own predictor (+101).
    PredictorContext pctx{ctx.config.predictor, ctx.config.seed + 211};
    Status s = PredictorRegistry::Global().Create(ctx.config.predictor.kind,
                                                  pctx, &predictor);
    if (!s.ok()) return nullptr;
  }
  return std::make_unique<MetaProtocol>(
      ctx.cluster, ctx.metrics, ctx.config.lion.planner.plan.cost,
      std::move(children), std::move(predictor),
      ctx.config.predictor.horizon);
}

const ProtocolRegistrar kRegisterMeta("meta", ExecutionMode::kBatch,
                                      MakeMeta);

}  // namespace

}  // namespace lion
