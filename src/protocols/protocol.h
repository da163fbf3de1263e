// Common interface for all transaction processing protocols.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/move_fn.h"
#include "metrics/metrics.h"
#include "replication/chaos_config.h"
#include "replication/cluster.h"
#include "sim/periodic_timer.h"
#include "txn/transaction.h"

namespace lion {

/// Declared only for the geo_placement() hook below; no type defines it.
class GeoPlacement;

/// Completion callback: ownership of the transaction returns to the caller.
/// Its pointer-aligned 16-byte buffer holds the closed-loop driver's
/// `[this]` inline and keeps the type at 24 bytes, so closures that carry a
/// transaction and its completion (`this` + TxnPtr + TxnDoneFn, plus a
/// timestamp) still fit a default MoveFn.
using TxnDoneFn = MoveFn<void(TxnPtr), 16, alignof(void*)>;

/// A transaction processing protocol (2PC, Leap, Clay, Star, Calvin, Aria,
/// Hermes, Lotus, Lion). The driver submits transactions; the protocol
/// routes, executes, retries on aborts, and finally hands each committed
/// transaction back through the callback.
class Protocol {
 public:
  Protocol(Cluster* cluster, MetricsCollector* metrics)
      : cluster_(cluster),
        metrics_(metrics),
        epoch_timer_(cluster != nullptr ? cluster->sim() : nullptr,
                     [this](SimTime now) { OnEpoch(now); }) {}
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// An epoch-batching protocol (BatchProtocol, batch-mode Lion) flushes
  /// its buffered batch early once it holds this many transactions.
  static constexpr size_t kMaxBatchSize = 10000;

  virtual std::string name() const = 0;

  // --- lifecycle (owned and driven by the Experiment harness) ----------------

  /// Installs periodic machinery (planners, sequencers, epoch switchers).
  /// Called once before any Submit.
  virtual void Start() {}

  /// Tears down periodic machinery: the epoch timer stops rescheduling and
  /// no new background work is started; in-flight transactions still
  /// complete. Called once after the last Submit; idempotent. Overrides
  /// must call the base implementation.
  virtual void Stop() {
    stopped_ = true;
    epoch_timer_.Stop();
  }

  /// Epoch-boundary hook, invoked every cluster `epoch_interval` once
  /// StartEpochTimer() has been called (batch protocols flush here; others
  /// may use it for stats or GC).
  virtual void OnEpoch(SimTime now) { (void)now; }

  bool stopped() const { return stopped_; }

  /// Takes ownership of `txn`, drives it to commit (retrying internally on
  /// aborts), then returns ownership via `done`.
  ///
  /// Non-virtual on purpose: this is the graceful-degradation gate. With
  /// chaos degradation enabled (EnableDegradation), a transaction touching
  /// an unavailable partition — down primary, or primaries split by an
  /// active network partition — is deferred with a bounded deterministic
  /// linear backoff instead of blocking forever behind the partition's
  /// block. After kMaxUnavailableRetries deferrals it is counted via
  /// MetricsCollector::OnAbortUnavailable and handed back through `done`
  /// (freeing the closed-loop slot). Retries re-enter here,
  /// so each one re-checks availability against the healed/failed-over
  /// routing state. Without chaos this forwards straight to SubmitTxn.
  void Submit(TxnPtr txn, TxnDoneFn done) {
    if (chaos_ != nullptr && FirstUnavailablePartition(*txn) != kInvalidPartition) {
      if (txn->unavailable_retries() >= kMaxUnavailableRetries) {
        metrics_->OnAbortUnavailable(cluster_->sim()->Now());
        done(std::move(txn));
        return;
      }
      txn->BumpUnavailableRetries();
      // Deterministic linear backoff: no RNG draw, so arming a chaos
      // schedule cannot perturb the experiment RNG stream.
      SimTime backoff = kUnavailableBackoff *
                        static_cast<SimTime>(txn->unavailable_retries());
      cluster_->sim()->Schedule(
          backoff,
          [this, txn = std::move(txn), done = std::move(done)]() mutable {
            Submit(std::move(txn), std::move(done));
          });
      return;
    }
    SubmitTxn(std::move(txn), std::move(done));
  }

  /// Arms graceful degradation (null disarms). The gate only tests
  /// `config` for null; the Experiment harness passes its own ChaosConfig
  /// when a chaos schedule is active. Virtual so composite protocols (meta)
  /// can forward the gate to the children they own; overrides must call
  /// the base implementation.
  virtual void EnableDegradation(const ChaosConfig* config) { chaos_ = config; }

  /// Always null, and nothing in the engine calls it: placement has no
  /// geo constraints. It stays virtual only because the benchmark's
  /// TracedProtocol (bench/suite/bench_suite.cc) overrides it.
  virtual const GeoPlacement* geo_placement() const { return nullptr; }

  /// Adds the protocol's own members to the run's result object, after the
  /// chaos and recovery members. The harness calls it once, after Stop and
  /// any post-run drain; most protocols add nothing.
  virtual void AddResultMembers(Json* members) const { (void)members; }

  Cluster* cluster() { return cluster_; }
  MetricsCollector* metrics() { return metrics_; }

 protected:
  /// Protocol-specific submission path; Submit (the public gate) forwards
  /// here once the transaction's partitions are available.
  virtual void SubmitTxn(TxnPtr txn, TxnDoneFn done) = 0;

  /// First touched partition that cannot currently serve the transaction:
  /// its primary is down, or it is separated from the other touched
  /// primaries by an active network partition (mutual reachability is
  /// checked against the first primary as anchor — with one cut there are
  /// exactly two sides, so pairwise anchoring is exact).
  /// kInvalidPartition when all are available.
  PartitionId FirstUnavailablePartition(const Transaction& txn) const {
    const RouterTable& table = cluster_->router();
    NodeId anchor = kInvalidNode;
    for (const Operation& op : txn.ops()) {
      PartitionId pid = op.partition;
      NodeId primary = table.PrimaryOf(pid);
      if (primary == kInvalidNode || !table.IsNodeUp(primary)) return pid;
      if (anchor == kInvalidNode) {
        anchor = primary;
      } else if (!cluster_->network().Reachable(anchor, primary)) {
        return pid;
      }
    }
    return kInvalidPartition;
  }

  /// Re-submits an aborted transaction after a small randomized backoff.
  /// The scheduler accepts move-only callables, so the closure owns the
  /// transaction directly.
  void RetryAfterBackoff(TxnPtr txn, TxnDoneFn done) {
    txn->ResetForRestart();
    SimTime backoff =
        static_cast<SimTime>(cluster_->sim()->rng().Uniform(100)) * kMicrosecond;
    cluster_->sim()->Schedule(
        backoff, [this, txn = std::move(txn), done = std::move(done)]() mutable {
          Submit(std::move(txn), std::move(done));
        });
  }

  /// The completion every engine-driven protocol hands TwoPhaseEngine::Run:
  /// on commit it records the commit and returns the transaction through
  /// `done`; on abort it retries after backoff. It owns the transaction
  /// outright — `this` + TxnPtr + TxnDoneFn fit MoveFn's 48-byte buffer,
  /// so building and moving it never allocates.
  MoveFn<void(bool)> CommitOrRetry(TxnPtr txn, TxnDoneFn done) {
    auto fn = [this, txn = std::move(txn),
               done = std::move(done)](bool committed) mutable {
      if (committed) {
        metrics_->OnCommit(*txn, cluster_->sim()->Now());
        done(std::move(txn));
      } else {
        RetryAfterBackoff(std::move(txn), std::move(done));
      }
    };
    static_assert(MoveFn<void(bool)>::kFitsInline<decltype(fn)>,
                  "the commit-or-retry completion must not allocate");
    return fn;
  }

  /// Installs the periodic weak event that drives OnEpoch at the cluster's
  /// epoch interval until Stop(). Idempotent, and clears the stopped flag
  /// so a Start() after Stop() re-arms the timer; call from Start().
  void StartEpochTimer() {
    stopped_ = false;
    epoch_timer_.Start(cluster_->config().epoch_interval);
  }

  Cluster* cluster_;
  MetricsCollector* metrics_;
  /// Set by Stop(); periodic loops in subclasses must check it (and clear
  /// it again on restart, as StartEpochTimer does).
  bool stopped_ = false;

 private:
  /// Deferrals of a transaction touching an unavailable partition before
  /// it completes as aborted_unavailable instead of blocking.
  static constexpr int kMaxUnavailableRetries = 8;
  /// Base of the linear backoff between those deferrals: attempt k waits
  /// k * base (deterministic, no RNG draw, so chaos cannot perturb seeds).
  static constexpr SimTime kUnavailableBackoff = 1 * kMillisecond;

  PeriodicTimer epoch_timer_;
  /// Non-null while chaos degradation is armed (owned by the Experiment).
  const ChaosConfig* chaos_ = nullptr;
};

}  // namespace lion
