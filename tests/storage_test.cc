// Unit tests for PartitionStore: versions, locks, the sparse table's growth
// rule and in-place layout, and differential tests against a reference
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/partition_store.h"

namespace lion {
namespace {

// Inserts `key` and applies it until it holds `version` (at least 1), so
// that rows of one test hold different versions and a record that moved to
// another key's slot shows.
void InsertAtVersion(PartitionStore* store, Key key, Version version) {
  store->Insert(key);
  while (store->VersionOf(key) < version) store->Apply(key);
}

TEST(PartitionStoreTest, BulkLoadInitializesRecords) {
  PartitionStore store(3, 100, 1000);
  EXPECT_EQ(store.id(), 3);
  EXPECT_EQ(store.record_count(), 100u);
  EXPECT_EQ(store.SizeBytes(), 100u * 1000u);
  for (Key k : {Key{0}, Key{42}, Key{99}}) {
    EXPECT_TRUE(store.Contains(k)) << k;
    EXPECT_EQ(store.VersionOf(k), 1u) << k;
  }
  EXPECT_FALSE(store.Contains(100));
}

TEST(PartitionStoreTest, ReadMissingKeyIsNotFound) {
  PartitionStore store(0, 10, 100);
  EXPECT_FALSE(store.Contains(999));
  EXPECT_EQ(store.VersionOf(999), 0u);
  EXPECT_EQ(store.record_count(), 10u);  // looking creates no row
}

TEST(PartitionStoreTest, ApplyBumpsVersion) {
  PartitionStore store(0, 10, 100);
  EXPECT_EQ(store.Apply(5), 2u);
  EXPECT_EQ(store.VersionOf(5), 2u);
  EXPECT_EQ(store.Apply(5), 3u);
  EXPECT_EQ(store.VersionOf(5), 3u);
  EXPECT_EQ(store.VersionOf(4), 1u);
}

TEST(PartitionStoreTest, VersionOfMissingIsZero) {
  PartitionStore store(0, 10, 100);
  EXPECT_EQ(store.VersionOf(12345), 0u);
}

TEST(PartitionStoreTest, LockIsExclusive) {
  PartitionStore store(0, 10, 100);
  EXPECT_TRUE(store.TryLock(1, 100));
  EXPECT_FALSE(store.TryLock(1, 200));
  EXPECT_TRUE(store.IsLockedByOther(1, 200));
  EXPECT_FALSE(store.IsLockedByOther(1, 100));
}

TEST(PartitionStoreTest, LockIsReentrant) {
  PartitionStore store(0, 10, 100);
  EXPECT_TRUE(store.TryLock(1, 100));
  EXPECT_TRUE(store.TryLock(1, 100));
  EXPECT_EQ(store.held_locks(), 1u);
  store.Unlock(1, 100);  // one release frees a re-entered lock
  EXPECT_EQ(store.held_locks(), 0u);
}

TEST(PartitionStoreTest, UnlockOnlyByHolder) {
  PartitionStore store(0, 10, 100);
  ASSERT_TRUE(store.TryLock(1, 100));
  store.Unlock(1, 200);  // not the holder: no effect
  EXPECT_EQ(store.held_locks(), 1u);
  EXPECT_FALSE(store.TryLock(1, 300));
  store.Unlock(1, 100);
  EXPECT_EQ(store.held_locks(), 0u);
  EXPECT_TRUE(store.TryLock(1, 300));
}

TEST(PartitionStoreTest, UnlockOfAbsentOrUnlockedKeyIsANoOp) {
  PartitionStore store(0, 10, 100);
  store.Unlock(3, 100);                  // dense, never locked
  store.Unlock((Key{2} << 40) | 9, 100);  // sparse, absent
  EXPECT_EQ(store.held_locks(), 0u);
  EXPECT_FALSE(store.Contains((Key{2} << 40) | 9));
  EXPECT_EQ(store.record_count(), 10u);
}

TEST(PartitionStoreTest, LockOnAbsentKeyCreatesVersionZeroRow) {
  // Occ locks insert targets before applying them, and the row it creates
  // counts toward record_count (and so toward migration SizeBytes) even if
  // the transaction then aborts.
  PartitionStore store(0, 10, 100);
  Key fresh = (Key{4} << 40) | 77;
  ASSERT_TRUE(store.TryLock(fresh, 5));
  EXPECT_EQ(store.record_count(), 11u);
  EXPECT_TRUE(store.Contains(fresh));
  EXPECT_EQ(store.VersionOf(fresh), 0u);
  store.Unlock(fresh, 5);
  EXPECT_EQ(store.record_count(), 11u);
  EXPECT_EQ(store.held_locks(), 0u);
}

TEST(PartitionStoreTest, ManySimultaneousLocksSurviveGrowthAndRelease) {
  PartitionStore store(0, 1000, 100);
  // Dense and TPC-C-shaped sparse keys, each held by its own txn: enough to
  // double the held-lock table several times.
  std::vector<Key> keys;
  for (Key k = 0; k < 600; ++k) keys.push_back(k);
  for (Key id = 0; id < 600; ++id) keys.push_back((Key{7} << 40) | (id * 16));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(store.TryLock(keys[i], 1000 + i));
  }
  EXPECT_EQ(store.held_locks(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(store.IsLockedByOther(keys[i], 1));
    EXPECT_FALSE(store.IsLockedByOther(keys[i], 1000 + i));
    EXPECT_FALSE(store.TryLock(keys[i], 1));
  }
  // Release in a scrambled order; every lock still held must stay
  // reachable as deletions shift their probe chains.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(11));
  std::vector<bool> released(keys.size(), false);
  for (size_t n = 0; n < order.size(); ++n) {
    store.Unlock(keys[order[n]], 1000 + order[n]);
    released[order[n]] = true;
    EXPECT_EQ(store.held_locks(), keys.size() - n - 1);
    if (n % 97 == 0) {
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(store.IsLockedByOther(keys[i], 1), !released[i]) << i;
      }
    }
  }
  EXPECT_EQ(store.held_locks(), 0u);
  EXPECT_EQ(store.record_count(), 1000u + 600u);
}

TEST(PartitionStoreTest, UnlockedKeyIsFree) {
  PartitionStore store(0, 10, 100);
  EXPECT_FALSE(store.IsLockedByOther(2, 55));
}

TEST(PartitionStoreTest, InsertCreatesRecord) {
  PartitionStore store(0, 10, 100);
  store.Insert(500);
  EXPECT_TRUE(store.Contains(500));
  EXPECT_EQ(store.VersionOf(500), 1u);
  EXPECT_EQ(store.record_count(), 11u);
}

TEST(PartitionStoreTest, SparseKeysBehaveLikeDenseOnes) {
  PartitionStore store(0, 10, 100);
  // TPC-C-shaped keys far outside the bulk-loaded range.
  Key sparse = (Key{5} << 40) | 123;
  EXPECT_FALSE(store.Contains(sparse));
  EXPECT_EQ(store.VersionOf(sparse), 0u);
  store.Insert(sparse);
  EXPECT_TRUE(store.Contains(sparse));
  EXPECT_EQ(store.VersionOf(sparse), 1u);
  EXPECT_EQ(store.Apply(sparse), 2u);
  EXPECT_EQ(store.VersionOf(sparse), 2u);
  EXPECT_EQ(store.record_count(), 11u);
}

TEST(PartitionStoreTest, SparseTableSurvivesGrowth) {
  PartitionStore store(0, 4, 100);
  // Enough sparse inserts to force several table growths; same-id keys
  // across different "tables" must not collide.
  for (Key table = 1; table <= 8; ++table) {
    for (Key id = 0; id < 200; ++id) {
      InsertAtVersion(&store, (table << 40) | id, 1 + (table + id) % 8);
    }
  }
  for (Key table = 1; table <= 8; ++table) {
    for (Key id = 0; id < 200; ++id) {
      EXPECT_EQ(store.VersionOf((table << 40) | id), 1 + (table + id) % 8);
    }
  }
  EXPECT_EQ(store.record_count(), 4u + 8 * 200);
}

TEST(PartitionStoreTest, ReserveSparsePresizesForBulkLoad) {
  PartitionStore store(0, 100, 8);
  const uint64_t rows = 3211;  // one TPC-C warehouse's sparse row count
  store.ReserveSparse(rows);
  const size_t cap = store.sparse_capacity();
  EXPECT_GE(cap * 7, rows * 8);      // fits at the 7/8 load ceiling...
  EXPECT_LT(cap / 2 * 7, rows * 8);  // ...and half the slots would not
  for (Key id = 0; id < rows; ++id) {
    store.Insert((Key{3} << 40) | id);
  }
  EXPECT_EQ(store.sparse_capacity(), cap)
      << "reserved load must not trigger incremental growth";
  EXPECT_EQ(store.VersionOf((Key{3} << 40) | 1234), 1u);
  EXPECT_EQ(store.record_count(), 100u + rows);
  // Reserving less than the current capacity is a no-op.
  store.ReserveSparse(1);
  EXPECT_EQ(store.sparse_capacity(), cap);
}

TEST(PartitionStoreTest, AllOnesKeyIsAValidKey) {
  // The open-addressing table uses ~0 as its empty-slot marker; the store
  // must still treat it as an ordinary key.
  PartitionStore store(0, 4, 100);
  Key all_ones = ~Key{0};
  EXPECT_FALSE(store.Contains(all_ones));
  EXPECT_EQ(store.VersionOf(all_ones), 0u);
  EXPECT_TRUE(store.TryLock(all_ones, 9));
  EXPECT_TRUE(store.IsLockedByOther(all_ones, 1));
  store.Unlock(all_ones, 9);
  store.Insert(all_ones);
  EXPECT_TRUE(store.Contains(all_ones));
  EXPECT_EQ(store.VersionOf(all_ones), 1u);
  EXPECT_EQ(store.Apply(all_ones), 2u);
  EXPECT_EQ(store.record_count(), 5u);
}

TEST(PartitionStoreTest, SparseTableFillsToSevenEighthsBeforeGrowing) {
  PartitionStore store(0, 4, 100);
  const size_t cap = store.sparse_capacity();
  const size_t fill = cap / 8 * 7;  // exactly the 7/8 ceiling
  for (Key id = 0; id < fill; ++id) {
    InsertAtVersion(&store, (Key{1} << 40) | id, 1 + id % 8);
  }
  EXPECT_EQ(store.sparse_capacity(), cap);
  store.Insert((Key{1} << 40) | fill);  // one past the ceiling
  EXPECT_EQ(store.sparse_capacity(), 2 * cap);
  for (Key id = 0; id <= fill; ++id) {
    const Version want = id == fill ? 1 : 1 + id % 8;
    EXPECT_EQ(store.VersionOf((Key{1} << 40) | id), want) << id;
  }
}

TEST(PartitionStoreTest, OnlyANewRowGrowsAFullSparseTable) {
  PartitionStore store(0, 4, 100);
  ASSERT_EQ(store.sparse_capacity(), 64u);
  const Key base = Key{1} << 40;
  for (Key id = 0; id < 56; ++id) store.Insert(base | id);  // 7/8 full
  ASSERT_EQ(store.sparse_capacity(), 64u);

  // Writing and locking rows that exist adds no key, so the table keeps its
  // slots.
  EXPECT_EQ(store.Apply(base | 3), 2u);
  ASSERT_TRUE(store.TryLock(base | 5, 9));
  EXPECT_EQ(store.sparse_capacity(), 64u);
  store.Unlock(base | 5, 9);

  EXPECT_EQ(store.Apply(base | 56), 1u);  // the 57th row passes 7/8
  EXPECT_EQ(store.sparse_capacity(), 128u);
  EXPECT_EQ(store.record_count(), 4u + 57);
  for (Key id = 0; id <= 56; ++id) {
    ASSERT_TRUE(store.Contains(base | id)) << id;
    EXPECT_EQ(store.VersionOf(base | id), id == 3 ? 2u : 1u) << id;
  }
}

// Reference model: each key's version and who locks it.
struct ModelRecord {
  Version version = 0;
  TxnId holder = 0;
};

// Checks every modeled key against the store.
void ExpectStoreMatches(const PartitionStore& store,
                        const std::unordered_map<Key, ModelRecord>& model) {
  ASSERT_EQ(store.record_count(), model.size());
  size_t held = 0;
  for (const auto& kv : model) {
    ASSERT_TRUE(store.Contains(kv.first)) << kv.first;
    ASSERT_EQ(store.VersionOf(kv.first), kv.second.version) << kv.first;
    ASSERT_EQ(store.IsLockedByOther(kv.first, 0), kv.second.holder != 0)
        << kv.first;
    held += kv.second.holder != 0;
  }
  ASSERT_EQ(store.held_locks(), held);
}

TEST(PartitionStoreTest, DifferentialAgainstReferenceModel) {
  const uint64_t dense = 64;
  PartitionStore store(0, dense, 100);
  std::unordered_map<Key, ModelRecord> model;
  std::vector<Key> known;  // every modeled key, for picking existing rows
  for (Key k = 0; k < dense; ++k) {
    model[k] = ModelRecord{1, 0};
    known.push_back(k);
  }
  size_t sparse_keys = 0;  // keys in the sparse table's slots
  auto row = [&](Key key) -> ModelRecord& {
    auto [it, inserted] = model.try_emplace(key);
    if (inserted) {
      known.push_back(key);
      sparse_keys += key != ~Key{0};
    }
    return it->second;
  };

  // Key shapes the workloads produce: dense ids, TPC-C (table<<40 |
  // id*16+l) rows, sequential and power-of-two-strided ids, and ~0 (the
  // sparse table's empty-slot marker).
  std::mt19937_64 rng(20240416);
  Key next_seq = 0;
  auto pick_key = [&]() -> Key {
    switch (rng() % 6) {
      case 0:
        return rng() % (dense + 8);  // dense, or just past the dense range
      case 1:
        return (Key{1 + rng() % 9} << 40) |
               ((rng() % 1500) * 16 + rng() % 15);
      case 2:
        return (Key{3} << 40) | next_seq++;  // sequential order ids
      case 3:
        return (Key{1} << (6 + rng() % 40)) * (1 + rng() % 4);  // strided
      case 4:
        return ~Key{0};
      default:  // an existing row, so reads, locks and applies hit it
        return known[rng() % known.size()];
    }
  };

  size_t growths = 0;
  size_t boundary_checks = 0;  // capacities checked exactly at 7/8 load
  size_t cap = store.sparse_capacity();
  size_t boundary_cap = 0;
  for (int step = 0; step < 40000; ++step) {
    Key key = pick_key();
    TxnId txn = 1 + rng() % 4;
    auto it = model.find(key);
    switch (rng() % 7) {
      case 0: {  // Insert: a fresh version-1 row, locks untouched
        store.Insert(key);
        row(key).version = 1;
        break;
      }
      case 1: {  // Apply: creates a version-0 row first if absent
        ModelRecord& m = row(key);
        ASSERT_EQ(store.Apply(key), ++m.version) << key;
        break;
      }
      case 2:  // Contains
        ASSERT_EQ(store.Contains(key), it != model.end()) << key;
        break;
      case 3:  // VersionOf
        ASSERT_EQ(store.VersionOf(key),
                  it == model.end() ? 0 : it->second.version)
            << key;
        break;
      case 4: {  // TryLock: creates the row, re-entrant, exclusive
        ModelRecord& m = row(key);
        bool expect = m.holder == 0 || m.holder == txn;
        if (expect) m.holder = txn;
        ASSERT_EQ(store.TryLock(key, txn), expect) << key;
        break;
      }
      case 5:  // Unlock: only the holder releases
        store.Unlock(key, txn);
        if (it != model.end() && it->second.holder == txn) {
          it->second.holder = 0;
        }
        break;
      default: {  // IsLockedByOther
        TxnId holder = it == model.end() ? 0 : it->second.holder;
        ASSERT_EQ(store.IsLockedByOther(key, txn),
                  holder != 0 && holder != txn)
            << key;
        break;
      }
    }
    if (store.sparse_capacity() != cap) {
      cap = store.sparse_capacity();
      growths++;
      ExpectStoreMatches(store, model);
    } else if (sparse_keys == cap / 8 * 7 && boundary_cap != cap) {
      // Exactly at the 7/8 ceiling: the fullest the table ever gets.
      boundary_cap = cap;
      boundary_checks++;
      ExpectStoreMatches(store, model);
    }
    if (step % 5000 == 0) ExpectStoreMatches(store, model);
  }
  ExpectStoreMatches(store, model);
  EXPECT_GE(growths, 5u);
  EXPECT_GE(boundary_checks, 5u);
}

// --- In-place growth --------------------------------------------------------
//
// The sparse table grows inside its own block. Its layout afterwards is
// pinned against a copy into a fresh table, read through
// SparseSlotsForTest().

constexpr Key kEmptySlot = ~Key{0};

size_t HomeOf(Key key, size_t capacity) {
  return PartitionStore::SparseHomeForTest(key, capacity);
}

// Puts `key` in the first empty slot from its home, as the store's probe does.
void ProbeInsert(std::vector<Key>* table, Key key) {
  size_t i = HomeOf(key, table->size());
  while ((*table)[i] != kEmptySlot) i = (i + 1) % table->size();
  (*table)[i] = key;
}

// True if the entry in `old[i]` belongs to a cluster that wrapped past the
// old table's last slot.
bool Wrapped(const std::vector<Key>& old, size_t i) {
  return old[i] != kEmptySlot && HomeOf(old[i], old.size()) > i;
}

// Copies `old` into a fresh table of `capacity` slots in ascending slot
// order, a copy-rehash into a second table. With `wrapped_last`, the entries
// of a cluster that wrapped past the old end go in after all the others.
std::vector<Key> AscendingCopy(const std::vector<Key>& old, size_t capacity,
                               bool wrapped_last) {
  std::vector<Key> table(capacity, kEmptySlot);
  std::vector<Key> later;
  for (size_t i = 0; i < old.size(); ++i) {
    if (old[i] == kEmptySlot) continue;
    if (wrapped_last && Wrapped(old, i)) {
      later.push_back(old[i]);
    } else {
      ProbeInsert(&table, old[i]);
    }
  }
  for (Key key : later) ProbeInsert(&table, key);
  return table;
}

size_t WrappedCount(const std::vector<Key>& old) {
  size_t n = 0;
  for (size_t i = 0; i < old.size(); ++i) n += Wrapped(old, i);
  return n;
}

// Checks the layout `grown` that growing `old` produced, with `added`
// inserted afterwards: it is the ascending copy with the wrapped entries
// inserted last, slot for slot, and it differs from the plain ascending copy
// only inside clusters that hold one of those entries. Returns the number of
// slots that differ from the plain copy.
size_t ExpectGrownLayout(const std::vector<Key>& old,
                         const std::vector<Key>& grown,
                         const std::vector<Key>& added = {}) {
  std::vector<Key> expected = AscendingCopy(old, grown.size(), true);
  std::vector<Key> plain = AscendingCopy(old, grown.size(), false);
  for (Key key : added) {
    ProbeInsert(&expected, key);
    ProbeInsert(&plain, key);
  }
  EXPECT_TRUE(grown == expected) << "layout is not the ascending copy's";
  std::unordered_set<Key> wrapped;
  for (size_t i = 0; i < old.size(); ++i) {
    if (Wrapped(old, i)) wrapped.insert(old[i]);
  }
  // Linear probing fills the same slots whatever the insertion order, so
  // both layouts have the same clusters. Mark the slots of each cluster that
  // holds a wrapped entry, starting after an empty slot so that no cluster
  // is split (a table is never full).
  const size_t n = grown.size();
  size_t empty = 0;
  while (grown[empty] != kEmptySlot) ++empty;
  std::vector<bool> near_wrapped(n, false);
  std::vector<size_t> cluster;
  bool holds_wrapped = false;
  for (size_t k = 1; k <= n; ++k) {
    const size_t i = (empty + k) % n;
    if (grown[i] != kEmptySlot) {
      cluster.push_back(i);
      holds_wrapped |= wrapped.count(grown[i]) > 0;
      continue;
    }
    for (size_t j : cluster) near_wrapped[j] = holds_wrapped;
    cluster.clear();
    holds_wrapped = false;
  }
  size_t differing = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(grown[i] == kEmptySlot, plain[i] == kEmptySlot) << i;
    if (grown[i] == plain[i]) continue;
    differing++;
    EXPECT_TRUE(near_wrapped[i])
        << "slot " << i << " differs outside the wrapped entries' clusters";
  }
  return differing;
}

// Keys whose home is the last slot of every table up to `capacity` slots
// (the top bits of their hash are all ones): a few of them keep a cluster
// wrapping past the end of the table whatever its size.
std::vector<Key> LastSlotKeys(size_t count, size_t capacity) {
  std::vector<Key> keys;
  for (Key key = Key{1} << 41; keys.size() < count; ++key) {
    if (HomeOf(key, capacity) == capacity - 1) keys.push_back(key);
  }
  return keys;
}

TEST(PartitionStoreTest, SparseGrowthKeepsTheAscendingCopyLayout) {
  PartitionStore store(0, 16, 100);
  const size_t cap = 1 << 14;
  store.ReserveSparse(cap / 8 * 7);
  ASSERT_EQ(store.sparse_capacity(), cap);
  std::vector<Key> keys = LastSlotKeys(3, cap);
  std::unordered_set<Key> seen(keys.begin(), keys.end());
  std::mt19937_64 rng(7);
  while (keys.size() < cap / 8 * 7) {
    Key key = (Key{1 + rng() % 9} << 40) | (rng() % 200000);
    if (seen.insert(key).second) keys.push_back(key);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    InsertAtVersion(&store, keys[i], 1 + i % 8);
  }
  const std::vector<Key> before = store.SparseSlotsForTest();
  ASSERT_GE(WrappedCount(before), 2u);

  store.ReserveSparse(1);  // one past the 7/8 ceiling: exactly one doubling
  ASSERT_EQ(store.sparse_capacity(), 2 * cap);
  const size_t differing =
      ExpectGrownLayout(before, store.SparseSlotsForTest());
  // Only the clusters around the old end move: a few slots of 2^15.
  EXPECT_LT(differing, cap / 100);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(store.VersionOf(keys[i]), 1 + i % 8) << keys[i];
  }
}

TEST(PartitionStoreTest, ReserveSparseGrowsANonEmptyTableInOneStep) {
  PartitionStore store(0, 16, 100);
  const size_t start = store.sparse_capacity();
  std::vector<Key> keys = LastSlotKeys(2, start);
  for (Key id = 0; keys.size() < start / 8 * 7; ++id) {
    keys.push_back((Key{2} << 40) | (id * 16));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    InsertAtVersion(&store, keys[i], 1 + i % 8);
  }
  const std::vector<Key> before = store.SparseSlotsForTest();
  ASSERT_GE(WrappedCount(before), 1u);

  const uint64_t more = 100000;  // the first growth of many doublings
  store.ReserveSparse(more);
  const size_t cap = store.sparse_capacity();
  const size_t want = keys.size() + more;
  EXPECT_GE(cap * 7, want * 8);      // fits at the 7/8 load ceiling...
  EXPECT_LT(cap / 2 * 7, want * 8);  // ...and half the slots would not
  ExpectGrownLayout(before, store.SparseSlotsForTest());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(store.VersionOf(keys[i]), 1 + i % 8) << keys[i];
  }
  for (Key id = 0; id < more; ++id) store.Insert((Key{5} << 40) | id);
  EXPECT_EQ(store.sparse_capacity(), cap)
      << "reserved load must not trigger incremental growth";
  EXPECT_EQ(store.record_count(), 16 + keys.size() + more);
}

TEST(PartitionStoreTest, AllOnesKeySurvivesInPlaceGrowth) {
  // ~0 marks an empty slot, so its own record lives outside the slots; the
  // growth pass must neither lose it nor treat its marker as an entry.
  PartitionStore store(0, 4, 100);
  const Key all_ones = ~Key{0};
  store.Insert(all_ones);
  store.Apply(all_ones);
  ASSERT_TRUE(store.TryLock(all_ones, 9));
  const size_t start = store.sparse_capacity();
  for (Key id = 0; store.sparse_capacity() < 16 * start; ++id) {
    store.Insert((Key{6} << 40) | id);
  }
  store.ReserveSparse(4 * store.sparse_capacity());
  ASSERT_TRUE(store.Contains(all_ones));
  EXPECT_EQ(store.VersionOf(all_ones), 2u);
  EXPECT_TRUE(store.IsLockedByOther(all_ones, 1));
  const std::vector<Key> slots = store.SparseSlotsForTest();
  const size_t in_slots = static_cast<size_t>(
      std::count_if(slots.begin(), slots.end(),
                    [](Key k) { return k != kEmptySlot; }));
  EXPECT_EQ(in_slots + 1 + 4, store.record_count());
  store.Unlock(all_ones, 9);
  EXPECT_EQ(store.held_locks(), 0u);
}

TEST(PartitionStoreTest, SparseTableGrowsInPlaceThroughTwelveDoublings) {
  const uint64_t dense = 16;
  PartitionStore store(0, dense, 100);
  const size_t start = store.sparse_capacity();
  const size_t final_capacity = start << 12;
  std::unordered_map<Key, ModelRecord> model;
  std::vector<Key> known;
  for (Key k = 0; k < dense; ++k) {
    model[k] = ModelRecord{1, 0};
    known.push_back(k);
  }
  std::mt19937_64 rng(20261019);
  size_t sparse_keys = 0;  // keys in the sparse table's slots

  // A fresh sparse key: a TPC-C-shaped row, an arbitrary 64-bit key, or one
  // that keeps a cluster wrapping past the table's last slot.
  std::vector<Key> last_slot = LastSlotKeys(4, final_capacity);
  auto fresh_key = [&]() -> Key {
    for (;;) {
      Key key;
      if (!last_slot.empty() && rng() % 64 == 0) {
        key = last_slot.back();
        last_slot.pop_back();
      } else if (rng() % 2 == 0) {
        key = (Key{1 + rng() % 9} << 40) | (rng() % 3000000);
      } else {
        key = rng();
      }
      if (key >= dense && key != kEmptySlot && model.count(key) == 0) {
        return key;
      }
    }
  };

  size_t growths = 0;
  size_t growths_with_wrapped = 0;
  std::vector<Key> before;
  bool all_ones_added = false;
  while (store.sparse_capacity() < final_capacity) {
    const size_t cap = store.sparse_capacity();
    if (sparse_keys == cap / 8 * 7 && before.size() != cap) {
      // At the 7/8 ceiling: the next new row doubles the table; reads and
      // applies of existing rows leave it as it is.
      before = store.SparseSlotsForTest();
    }
    std::vector<Key> added;  // sparse keys this step inserted
    if (rng() % 4 == 0) {    // an existing row: apply or read it
      Key key = known[rng() % known.size()];
      ModelRecord& m = model[key];
      if (rng() % 2 == 0) {
        ASSERT_EQ(store.Apply(key), ++m.version) << key;
      } else {
        ASSERT_TRUE(store.Contains(key)) << key;
        ASSERT_EQ(store.VersionOf(key), m.version) << key;
      }
    } else if (!all_ones_added && sparse_keys > cap / 2 && cap > start) {
      all_ones_added = true;  // out of band: grows nothing
      store.Insert(kEmptySlot);
      model[kEmptySlot] = ModelRecord{1, 0};
      known.push_back(kEmptySlot);
    } else {
      const Key key = fresh_key();
      ModelRecord& m = model[key];
      known.push_back(key);
      added.push_back(key);
      sparse_keys++;
      switch (rng() % 3) {
        case 0:
          m.version = 1;
          store.Insert(key);
          break;
        case 1:
          m.version = 1;
          ASSERT_EQ(store.Apply(key), 1u);
          break;
        default:  // a lock creates the version-0 row
          ASSERT_TRUE(store.TryLock(key, 3));
          store.Unlock(key, 3);
          break;
      }
    }
    if (store.sparse_capacity() != cap) {
      ASSERT_EQ(before.size(), cap) << "grew below the 7/8 ceiling";
      ASSERT_EQ(added.size(), 1u) << "grew without inserting a row";
      ASSERT_EQ(sparse_keys, cap / 8 * 7 + 1);
      ASSERT_EQ(store.sparse_capacity(), 2 * cap);
      growths++;
      growths_with_wrapped += WrappedCount(before) > 0;
      ExpectGrownLayout(before, store.SparseSlotsForTest(), added);
      ExpectStoreMatches(store, model);
    }
  }
  ExpectStoreMatches(store, model);
  EXPECT_TRUE(all_ones_added);
  EXPECT_EQ(growths, 12u);
  EXPECT_EQ(growths_with_wrapped, 12u);
}

}  // namespace
}  // namespace lion
