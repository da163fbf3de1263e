#include "storage/partition_store.h"

namespace lion {

PartitionStore::PartitionStore(PartitionId id, uint64_t record_count,
                               uint64_t record_bytes)
    : id_(id), record_bytes_(record_bytes) {
  dense_.resize(record_count);
  for (uint64_t k = 0; k < record_count; ++k) {
    dense_[k] = Record{static_cast<Value>(k), 1};
  }
}

Record& PartitionStore::SparseRecords::GetOrInsert(Key key) {
  if (key == kEmptyKey) {
    if (!has_reserved_) {
      has_reserved_ = true;
      reserved_ = Record{};
    }
    return reserved_;
  }
  if (!Fits(size_ + 1, slots_.size())) Rehash(slots_.size() * 2);
  size_t i = IndexFor(key);
  for (;;) {
    Slot& s = slots_[i];
    if (s.key == key) return s.rec;
    if (s.key == kEmptyKey) {
      s.key = key;
      s.rec = Record{};
      size_++;
      return s.rec;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
}

void PartitionStore::SparseRecords::Reserve(size_t count) {
  size_t target = slots_.size();
  while (!Fits(count, target)) target *= 2;
  if (target != slots_.size()) Rehash(target);
}

void PartitionStore::SparseRecords::Rehash(size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  shift_ = ShiftFor(new_capacity);
  for (const Slot& s : old) {
    if (s.key == kEmptyKey) continue;
    size_t i = IndexFor(s.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = s;
  }
}

bool PartitionStore::HeldLocks::TryAcquire(Key key, TxnId txn) {
  // Grow at 50% load: the table is tiny, so short probes are worth more
  // than the slots.
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  for (size_t i = HashIndex(key, shift_);; i = (i + 1) & mask()) {
    Slot& s = slots_[i];
    if (s.holder == 0) {
      s = Slot{key, txn};
      size_++;
      return true;
    }
    if (s.key == key) return s.holder == txn;
  }
}

void PartitionStore::HeldLocks::Release(Key key, TxnId txn) {
  if (size_ == 0) return;
  size_t i = HashIndex(key, shift_);
  for (;; i = (i + 1) & mask()) {
    const Slot& s = slots_[i];
    if (s.holder == 0) return;
    if (s.key == key) {
      if (s.holder != txn) return;
      break;
    }
  }
  // Backward-shift deletion: walk the cluster after the hole and pull back
  // every entry whose home slot does not lie strictly between the hole and
  // the entry, so each key stays reachable from its home without tombstones.
  size_t hole = i;
  for (size_t j = (hole + 1) & mask();; j = (j + 1) & mask()) {
    const Slot& s = slots_[j];
    if (s.holder == 0) break;
    size_t home = HashIndex(s.key, shift_);
    if (((j - home) & mask()) >= ((j - hole) & mask())) {
      slots_[hole] = s;
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  size_--;
}

void PartitionStore::HeldLocks::Grow() {
  std::vector<Slot> old = std::move(slots_);
  size_t capacity =
      old.empty() ? size_t{1} << kMinCapacityLog2 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  shift_ = ShiftFor(capacity);
  for (const Slot& s : old) {
    if (s.holder == 0) continue;
    size_t i = HashIndex(s.key, shift_);
    while (slots_[i].holder != 0) i = (i + 1) & mask();
    slots_[i] = s;
  }
}

}  // namespace lion
