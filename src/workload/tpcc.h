// Scaled TPC-C workload: NewOrder + Payment over warehouse partitions.
#pragma once

#include "replication/cluster.h"
#include "workload/workload.h"

namespace lion {

struct TpccConfig {
  int items = 1000;  // scaled from 100000
  /// Fraction of NewOrder transactions that buy from a remote warehouse
  /// ("the same customer makes purchases from different warehouses over
  /// time", Sec. VI-A1). Plays the role of the cross-partition ratio.
  double remote_ratio = 0.1;
  /// Fraction of Payment transactions in the mix (0 = pure NewOrder, the
  /// paper's focus); every other transaction is a NewOrder.
  double payment_ratio = 0.0;
  /// Fraction of transactions targeting the hot node's warehouses.
  double skew_factor = 0.0;
};

/// TPC-C with one warehouse per partition. The nine relations are encoded
/// into the flat key space (table tag in the high bits); ITEM is read-only
/// and treated as locally replicated, per common practice.
class TpccWorkload : public WorkloadGenerator {
 public:
  /// Key-space tags for the nine relations.
  enum Table : uint64_t {
    kWarehouse = 1,
    kDistrict = 2,
    kCustomer = 3,
    kHistory = 4,
    kNewOrder = 5,
    kOrder = 6,
    kOrderLine = 7,
    kItem = 8,
    kStock = 9,
  };

  TpccWorkload(const ClusterConfig& cluster, const TpccConfig& config);

  std::string name() const override { return "tpcc"; }
  TxnPtr Next(TxnId id, SimTime now, Rng* rng) override;

  /// Loads warehouse/district/customer/item/stock rows into the stores so
  /// reads observe real versions (district rows carry the next_o_id
  /// contention point). Call once before driving transactions.
  void Load(Cluster* cluster);

  static Key MakeKey(Table table, uint64_t id) {
    return (static_cast<uint64_t>(table) << 40) | id;
  }

 private:
  TxnPtr NewOrderTxn(TxnId id, SimTime now, Rng* rng);
  TxnPtr PaymentTxn(TxnId id, SimTime now, Rng* rng);
  PartitionId PickWarehouse(Rng* rng) const;
  PartitionId RemoteWarehouse(PartitionId home, Rng* rng) const;

  int num_nodes_;
  int num_warehouses_;  // == total partitions
  TpccConfig config_;
};

}  // namespace lion
