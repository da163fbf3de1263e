// Authoritative per-partition record storage with versions and write locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lion {

/// One stored record: its version alone (8 bytes). `version` is bumped on
/// every committed write and is what OCC validates; nothing reads a payload,
/// and byte accounting prices records by constants (`record_bytes` here,
/// MessageSizes on the network). Write locks are not stored here: the few
/// held at any moment live in the store's held-lock table.
struct Record {
  Version version = 0;
};
static_assert(sizeof(Record) == 8, "a record is its version alone");

/// Authoritative key-value store for a single partition.
///
/// There is exactly one PartitionStore per partition regardless of replica
/// count: replicas are placement metadata plus LSN lag (see ReplicaGroup).
/// Optionally, secondary copies are materialized by the ReplicationManager
/// for consistency testing.
///
/// Storage is hybrid, tuned for the two key shapes the workloads produce.
/// The bulk-loaded range [0, record_count) — all of YCSB — lives in a dense
/// array of 8-byte records, so the per-operation VersionOf/lock path is one
/// bounds check and an index. Keys outside that range (TPC-C's
/// (table<<40)|id space and runtime inserts) live in an open-addressing side
/// table instead of a node-based std::unordered_map: the store never erases,
/// so lookups are a multiplicative hash plus a linear probe over contiguous
/// 16-byte {key, version} slots, and the table fills to 7/8 before it
/// doubles. It doubles in place, inside its one block, so it never holds two
/// tables: on TPC-C these tables are most of the process's memory, so a
/// second one would set its peak.
/// Profiling put the old unordered_map lookup at >50% of whole-experiment
/// runtime, so this path is worth the specialization.
///
/// Write locks (taken only by Occ's validate-and-lock phase) live in a
/// separate table that holds just the locks currently held, so records stay
/// 8 bytes and an unlocked store answers IsLockedByOther without a probe.
class PartitionStore {
 public:
  /// Creates the store and bulk-loads `record_count` version-1 records with
  /// keys [0, record_count). `record_bytes` only prices migrations
  /// (SizeBytes).
  PartitionStore(PartitionId id, uint64_t record_count, uint64_t record_bytes);

  PartitionId id() const { return id_; }
  uint64_t record_count() const { return dense_.size() + sparse_.size(); }
  uint64_t record_bytes() const { return record_bytes_; }

  /// Total logical size used for migration cost accounting.
  uint64_t SizeBytes() const { return record_count() * record_bytes_; }

  /// Installs a committed write: bumps the version, inserting a version-0
  /// row first if `key` is absent. Returns the version it installs.
  Version Apply(Key key) { return ++GetOrInsert(key).version; }

  /// Returns the current version of `key`, or 0 if absent.
  Version VersionOf(Key key) const {
    const Record* rec = FindRecord(key);
    return rec == nullptr ? 0 : rec->version;
  }

  /// Tries to acquire the record's write lock for `txn`. Succeeds if free or
  /// already held by `txn` (re-entrant). Locking an absent key creates its
  /// version-0 record, which then counts toward record_count().
  bool TryLock(Key key, TxnId txn) {
    GetOrInsert(key);
    return locks_.TryAcquire(key, txn);
  }

  /// Releases the record's lock if held by `txn`.
  void Unlock(Key key, TxnId txn) { locks_.Release(key, txn); }

  /// True if `key` is locked by a transaction other than `txn`.
  bool IsLockedByOther(Key key, TxnId txn) const {
    TxnId holder = locks_.HolderOf(key);
    return holder != 0 && holder != txn;
  }

  /// Number of record locks currently held. Zero once a run has quiesced;
  /// CheckClusterIntegrity reports anything else as a leaked lock.
  size_t held_locks() const { return locks_.size(); }

  /// Makes `key` a version-1 row, as a workload loader's fresh record.
  void Insert(Key key) { GetOrInsert(key) = Record{1}; }

  /// Pre-sizes the sparse side table for `additional` upcoming inserts of
  /// non-dense keys, so bulk loaders (TPC-C Load) pay one growth up front
  /// instead of log2(n) incremental doublings per store.
  void ReserveSparse(uint64_t additional) {
    sparse_.Reserve(sparse_.size() + additional);
  }

  /// Sparse-table slot count (test/diagnostic hook; the table doubles before
  /// its load would pass 7/8, so capacity >= 8/7 x the keys it holds).
  size_t sparse_capacity() const { return sparse_.capacity(); }

  /// Test hooks for the sparse table's layout: the key in each slot, in slot
  /// order (~0 for an empty slot; the ~0 key itself is never in a slot), and
  /// the slot where a probe for `key` starts in a table of `capacity` slots.
  std::vector<Key> SparseSlotsForTest() const;
  static size_t SparseHomeForTest(Key key, size_t capacity) {
    return HashIndex(key, ShiftFor(capacity));
  }

  bool Contains(Key key) const { return FindRecord(key) != nullptr; }

  /// Starts loading `key`'s record into the cache: the record itself in the
  /// dense range, otherwise the key's home slot in the sparse table. Changes
  /// no state and indexes only in range. TwoPhaseEngine::Run issues it for
  /// every op at admission, so the read task finds its records cached.
  void Prefetch(Key key) const {
    if (key < dense_.size()) {
      __builtin_prefetch(&dense_[key]);
    } else {
      __builtin_prefetch(sparse_.HomeSlot(key));
    }
  }

 private:
  /// Open-addressing side table for keys outside the dense range. No erase
  /// support (the store never deletes records), which keeps linear probing
  /// correct without tombstones. The all-ones key doubles as the empty-slot
  /// marker, so that one key is stored out of band (reserved_/has_reserved_)
  /// rather than in a slot — every 64-bit key behaves correctly.
  ///
  /// The slots live in one block, which grows without a second table: a
  /// large block is a mapping of its own that grows by remapping its pages,
  /// and GrowTo re-inserts the entries within the grown block.
  class SparseRecords {
   public:
    SparseRecords();
    ~SparseRecords();
    SparseRecords(const SparseRecords&) = delete;
    SparseRecords& operator=(const SparseRecords&) = delete;

    const Record* Find(Key key) const {
      if (key == kEmptyKey) return has_reserved_ ? &reserved_ : nullptr;
      size_t i = IndexFor(key);
      for (;;) {
        const Slot& s = slots_[i];
        if (s.key == key) return &s.rec;
        if (s.key == kEmptyKey) return nullptr;
        i = (i + 1) & (capacity_ - 1);
      }
    }

    Record* Find(Key key) {
      return const_cast<Record*>(
          static_cast<const SparseRecords*>(this)->Find(key));
    }

    Record& GetOrInsert(Key key);

    /// Where a probe for `key` starts.
    const void* HomeSlot(Key key) const { return &slots_[IndexFor(key)]; }

    /// Grows (never shrinks) to hold `count` keys without further growth, in
    /// one step however many doublings that is.
    void Reserve(size_t count);

    size_t size() const { return size_ + (has_reserved_ ? 1 : 0); }
    size_t capacity() const { return capacity_; }

   private:
    friend class PartitionStore;
    /// Empty-slot marker; the key with this value lives in reserved_.
    static constexpr Key kEmptyKey = ~static_cast<Key>(0);
    static constexpr size_t kMinCapacityLog2 = 6;
    static constexpr size_t kMinCapacity = size_t{1} << kMinCapacityLog2;
    struct Slot {
      Key key = kEmptyKey;
      Record rec;
    };

    /// The one growth rule: `slots` slots may hold `keys` keys while the
    /// load stays at or below 7/8.
    static bool Fits(size_t keys, size_t slots) {
      return keys * 8 <= slots * 7;
    }

    size_t IndexFor(Key key) const { return HashIndex(key, shift_); }
    /// Grows the block to `new_capacity` slots, a power of two larger than
    /// capacity_, and re-inserts every entry within it.
    void GrowTo(size_t new_capacity);

    Slot* slots_;      // capacity_ slots
    size_t capacity_;  // always a power of two
    int shift_;
    size_t size_ = 0;
    Record reserved_;  // the record for kEmptyKey itself, if ever inserted
    bool has_reserved_ = false;
  };

  /// The write locks currently held, keyed by record key. Open addressing
  /// with linear probing and backward-shift deletion, so no tombstones
  /// accumulate as locks come and go. Holder 0 marks an empty slot, which
  /// leaves every key (including ~0) usable. Only Occ takes store locks and
  /// releases them within a commit round, so the table stays a few hundred
  /// entries at most and is usually empty.
  class HeldLocks {
   public:
    /// The holder of `key`'s lock, or 0 if unlocked.
    TxnId HolderOf(Key key) const {
      if (size_ == 0) return 0;
      for (size_t i = HashIndex(key, shift_);; i = (i + 1) & mask()) {
        const Slot& s = slots_[i];
        if (s.holder == 0) return 0;
        if (s.key == key) return s.holder;
      }
    }

    /// Takes `key`'s lock for `txn`; true if it was free or already held by
    /// `txn`.
    bool TryAcquire(Key key, TxnId txn);

    /// Drops `key`'s lock if `txn` holds it; otherwise a no-op.
    void Release(Key key, TxnId txn);

    size_t size() const { return size_; }

   private:
    static constexpr int kMinCapacityLog2 = 4;
    struct Slot {
      Key key = 0;
      TxnId holder = 0;  // 0 = empty slot
    };

    size_t mask() const { return slots_.size() - 1; }
    void Grow();

    std::vector<Slot> slots_;  // empty until the first lock; power of two
    int shift_ = 64;
    size_t size_ = 0;
  };

  /// Fibonacci hashing into a table of 2^(64 - shift) slots: table ids live
  /// in the high bits of TPC-C keys, so masking raw keys would collide every
  /// same-id pair.
  static size_t HashIndex(Key key, int shift) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
  }
  /// The HashIndex shift for a power-of-two slot count.
  static int ShiftFor(size_t slots) {
    int shift = 64;
    for (; slots > 1; slots >>= 1) shift--;
    return shift;
  }

  const Record* FindRecord(Key key) const {
    if (key < dense_.size()) return &dense_[key];
    return sparse_.Find(key);
  }
  Record* FindRecord(Key key) {
    if (key < dense_.size()) return &dense_[key];
    return sparse_.Find(key);
  }
  Record& GetOrInsert(Key key) {
    if (key < dense_.size()) return dense_[key];
    return sparse_.GetOrInsert(key);
  }

  PartitionId id_;
  uint64_t record_bytes_;
  std::vector<Record> dense_;  // keys [0, dense_.size()), bulk-loaded
  SparseRecords sparse_;       // everything else (TPC-C tables, inserts)
  HeldLocks locks_;
};

}  // namespace lion
