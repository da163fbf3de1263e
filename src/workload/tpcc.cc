#include "workload/tpcc.h"

#include "harness/registry.h"

namespace lion {

namespace {
// The scaled schema (TPC-C: 10 districts, 3000 customers per district).
constexpr int kDistrictsPerWarehouse = 10;
constexpr int kCustomersPerDistrict = 120;
/// Order lines per NewOrder: uniform in [min, max] (spec: 5..15).
constexpr int kMinOrderLines = 5;
constexpr int kMaxOrderLines = 15;
/// Coordinator-side business logic time per transaction.
constexpr SimTime kThinkTime = 5 * kMicrosecond;
/// Payment: probability the customer belongs to a remote warehouse.
constexpr double kRemotePaymentRatio = 0.15;
/// The node whose warehouses form the hotspot.
constexpr NodeId kHotNode = 0;
}  // namespace

TpccWorkload::TpccWorkload(const ClusterConfig& cluster, const TpccConfig& config)
    : num_nodes_(cluster.num_nodes),
      num_warehouses_(cluster.total_partitions()),
      config_(config) {}

void TpccWorkload::Load(Cluster* cluster) {
  // Every key below carries a table tag in its high bits, so all of them
  // land in the store's sparse side table; reserving the exact row count up
  // front replaces a cascade of doubling rehashes per warehouse with one.
  const uint64_t rows_per_warehouse =
      1 +
      static_cast<uint64_t>(kDistrictsPerWarehouse) *
          (1 + static_cast<uint64_t>(kCustomersPerDistrict)) +
      2 * static_cast<uint64_t>(config_.items);
  for (PartitionId w = 0; w < num_warehouses_; ++w) {
    PartitionStore* store = cluster->store(w);
    store->ReserveSparse(rows_per_warehouse);
    store->Insert(MakeKey(kWarehouse, 0));
    for (int d = 0; d < kDistrictsPerWarehouse; ++d) {
      store->Insert(MakeKey(kDistrict, d));
      for (int c = 0; c < kCustomersPerDistrict; ++c) {
        store->Insert(MakeKey(kCustomer, d * kCustomersPerDistrict + c));
      }
    }
    for (int i = 0; i < config_.items; ++i) {
      store->Insert(MakeKey(kItem, i));
      store->Insert(MakeKey(kStock, i));
    }
  }
}

PartitionId TpccWorkload::PickWarehouse(Rng* rng) const {
  if (config_.skew_factor > 0.0 && rng->Bernoulli(config_.skew_factor)) {
    int per_node = num_warehouses_ / num_nodes_;
    int idx = static_cast<int>(rng->Uniform(per_node));
    return kHotNode + idx * num_nodes_;
  }
  return static_cast<PartitionId>(rng->Uniform(num_warehouses_));
}

PartitionId TpccWorkload::RemoteWarehouse(PartitionId home, Rng* rng) const {
  // "The same customer makes purchases from different warehouses over time"
  // (Sec. VI-A1): each warehouse's customers have a stable partner
  // warehouse, giving the co-access structure the planner can exploit.
  PartitionId partner = home ^ 1;
  if (partner >= num_warehouses_) partner = home > 0 ? home - 1 : home;
  if (partner != home) return partner;
  for (int attempt = 0; attempt < 32; ++attempt) {
    PartitionId w = static_cast<PartitionId>(rng->Uniform(num_warehouses_));
    if (w != home) return w;
  }
  return home;
}

TxnPtr TpccWorkload::Next(TxnId id, SimTime now, Rng* rng) {
  if (rng->NextDouble() < config_.payment_ratio) {
    return PaymentTxn(id, now, rng);
  }
  return NewOrderTxn(id, now, rng);
}

TxnPtr TpccWorkload::NewOrderTxn(TxnId id, SimTime now, Rng* rng) {
  auto txn = std::make_unique<Transaction>(id, now);
  // Five header ops plus three per order line: one allocation, no regrowth.
  txn->ops().reserve(5 + 3 * static_cast<size_t>(kMaxOrderLines));
  txn->set_extra_compute(kThinkTime);
  PartitionId w = PickWarehouse(rng);
  int d = static_cast<int>(rng->Uniform(kDistrictsPerWarehouse));
  int c = static_cast<int>(rng->Uniform(kCustomersPerDistrict));
  bool remote = config_.remote_ratio > 0.0 && rng->Bernoulli(config_.remote_ratio);
  PartitionId remote_w = remote ? RemoteWarehouse(w, rng) : w;

  auto add = [&txn](PartitionId pid, Key key, OpType type,
                    bool insert = false) {
    Operation op;
    op.partition = pid;
    op.key = key;
    op.type = type;
    op.is_insert = insert;
    txn->ops().push_back(op);
  };

  // Warehouse tax rate (read), district next_o_id (read-modify-write: the
  // classic contention point), customer discount (read).
  add(w, MakeKey(kWarehouse, 0), OpType::kRead);
  add(w, MakeKey(kDistrict, d), OpType::kWrite);  // bump next_o_id
  add(w, MakeKey(kCustomer, d * kCustomersPerDistrict + c), OpType::kRead);
  // Insert ORDER and NEW-ORDER rows (keys unique per transaction).
  add(w, MakeKey(kOrder, id), OpType::kWrite, /*insert=*/true);
  add(w, MakeKey(kNewOrder, id), OpType::kWrite, /*insert=*/true);

  int lines = static_cast<int>(
      rng->UniformRange(kMinOrderLines, kMaxOrderLines));
  for (int l = 0; l < lines; ++l) {
    uint64_t item = rng->Uniform(config_.items);
    // ITEM is replicated read-only: read it at the home warehouse.
    add(w, MakeKey(kItem, item), OpType::kRead);
    // Stock read-modify-write, possibly at the remote warehouse: the last
    // line goes remote in a remote NewOrder (TPC-C: ~1% per line; here the
    // txn-level remote_ratio knob drives the cross-partition share).
    PartitionId stock_w = (remote && l == lines - 1) ? remote_w : w;
    add(stock_w, MakeKey(kStock, item), OpType::kWrite);
    // Insert ORDER-LINE.
    add(w, MakeKey(kOrderLine, id * 16 + l), OpType::kWrite, /*insert=*/true);
  }
  return txn;
}

TxnPtr TpccWorkload::PaymentTxn(TxnId id, SimTime now, Rng* rng) {
  auto txn = std::make_unique<Transaction>(id, now);
  txn->set_extra_compute(kThinkTime);
  PartitionId w = PickWarehouse(rng);
  int d = static_cast<int>(rng->Uniform(kDistrictsPerWarehouse));
  int c = static_cast<int>(rng->Uniform(kCustomersPerDistrict));
  bool remote_cust = rng->Bernoulli(kRemotePaymentRatio);
  PartitionId cust_w = remote_cust ? RemoteWarehouse(w, rng) : w;

  auto add = [&txn](PartitionId pid, Key key, OpType type,
                    bool insert = false) {
    Operation op;
    op.partition = pid;
    op.key = key;
    op.type = type;
    op.is_insert = insert;
    txn->ops().push_back(op);
  };
  // Warehouse and district YTD updates, customer balance update, history row.
  add(w, MakeKey(kWarehouse, 0), OpType::kWrite);
  add(w, MakeKey(kDistrict, d), OpType::kWrite);
  add(cust_w, MakeKey(kCustomer, d * kCustomersPerDistrict + c),
      OpType::kWrite);
  add(w, MakeKey(kHistory, id), OpType::kWrite, /*insert=*/true);
  return txn;
}


namespace {
const WorkloadRegistrar kRegisterTpcc(
    "tpcc", [](const WorkloadContext& ctx) -> std::unique_ptr<WorkloadGenerator> {
      auto workload =
          std::make_unique<TpccWorkload>(ctx.config.cluster, ctx.config.tpcc);
      // Preload warehouse/district/customer/item/stock rows so reads observe
      // real versions; the factory runs against the live cluster.
      workload->Load(ctx.cluster);
      return workload;
    });
}  // namespace

}  // namespace lion
