#include "storage/partition_store.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace lion {

PartitionStore::PartitionStore(PartitionId id, uint64_t record_count,
                               uint64_t record_bytes)
    : id_(id), record_bytes_(record_bytes), dense_(record_count, Record{1}) {}

namespace {

// A block of at least this many bytes is an anonymous mapping of its own
// rather than malloc'd, so it grows by mremap, which moves its pages instead
// of copying them, and unmapping it returns its pages at once. glibc maps
// large blocks itself only until a large free raises its mapping threshold
// (up to 32 MiB): after one store is freed, as between the points of a
// sweep, realloc would grow the next store's tables by copying inside the
// heap, with both tables resident. The threshold is glibc's own default:
// smaller blocks, such as the 64 KiB tables TPC-C loads, stay on the heap,
// where a copy costs little.
constexpr size_t kMapBytes = size_t{128} << 10;

void* AllocateBlock(size_t bytes) {
  void* block = nullptr;
  if (bytes >= kMapBytes) {
    block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) block = nullptr;
  } else {
    block = std::malloc(bytes);
  }
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

void FreeBlock(void* block, size_t bytes) {
  if (bytes >= kMapBytes) {
    munmap(block, bytes);
  } else {
    std::free(block);
  }
}

// Grows `block` from `old_bytes` to `new_bytes`, keeping its first
// `old_bytes`. mremap is Linux's.
void* GrowBlock(void* block, size_t old_bytes, size_t new_bytes) {
  if (old_bytes >= kMapBytes) {
    void* grown = mremap(block, old_bytes, new_bytes, MREMAP_MAYMOVE);
    if (grown == MAP_FAILED) throw std::bad_alloc();
    return grown;
  }
  void* grown = AllocateBlock(new_bytes);
  std::memcpy(grown, block, old_bytes);
  FreeBlock(block, old_bytes);
  return grown;
}

}  // namespace

std::vector<Key> PartitionStore::SparseSlotsForTest() const {
  std::vector<Key> keys(sparse_.capacity());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = sparse_.slots_[i].key;
  return keys;
}

PartitionStore::SparseRecords::SparseRecords()
    : slots_(static_cast<Slot*>(AllocateBlock(kMinCapacity * sizeof(Slot)))),
      capacity_(kMinCapacity),
      shift_(ShiftFor(kMinCapacity)) {
  static_assert(sizeof(Slot) == 16, "a sparse slot is a key and a record");
  std::uninitialized_fill_n(slots_, capacity_, Slot{});
}

PartitionStore::SparseRecords::~SparseRecords() {
  FreeBlock(slots_, capacity_ * sizeof(Slot));
}

Record& PartitionStore::SparseRecords::GetOrInsert(Key key) {
  if (key == kEmptyKey) {
    if (!has_reserved_) {
      has_reserved_ = true;
      reserved_ = Record{};
    }
    return reserved_;
  }
  size_t i = IndexFor(key);
  for (;;) {
    Slot& s = slots_[i];
    if (s.key == key) return s.rec;
    if (s.key == kEmptyKey) break;
    i = (i + 1) & (capacity_ - 1);
  }
  // A new key. Only an insert can pass the 7/8 ceiling, so only an insert
  // grows the table, and then the probe starts over in the grown one.
  if (!Fits(size_ + 1, capacity_)) {
    GrowTo(capacity_ * 2);
    i = IndexFor(key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & (capacity_ - 1);
  }
  Slot& s = slots_[i];
  s.key = key;
  s.rec = Record{};
  size_++;
  return s.rec;
}

void PartitionStore::SparseRecords::Reserve(size_t count) {
  size_t target = capacity_;
  while (!Fits(count, target)) target *= 2;
  if (target != capacity_) GrowTo(target);
}

// Grows the table without a second one. The block grows (a large one is
// remapped, not copied) and the old slots move to its top, from where the
// entries are re-inserted in ascending old position, the order in which a
// copy into a fresh table would insert them. Fibonacci hashing keeps the top
// bits, so the entry read from old slot i has its new home at or below the
// block slot it was just read from, which the read emptied: the probe stops
// there at the latest, never meets an unread entry, and so lands where the
// fresh copy would put it. The exception is an entry of a cluster that
// wrapped past the old end, whose home lies in the unread top; these few are
// set aside and inserted last with the normal probe. So the layout is the
// ascending copy's except within the clusters those entries join.
void PartitionStore::SparseRecords::GrowTo(size_t new_capacity) {
  const size_t old_capacity = capacity_;
  const int old_shift = shift_;
  slots_ = static_cast<Slot*>(GrowBlock(slots_, old_capacity * sizeof(Slot),
                                        new_capacity * sizeof(Slot)));
  Slot* old = slots_ + (new_capacity - old_capacity);
  std::memcpy(old, slots_, old_capacity * sizeof(Slot));
  std::uninitialized_fill(slots_, old, Slot{});
  capacity_ = new_capacity;
  shift_ = ShiftFor(new_capacity);

  std::vector<Slot> wrapped;
  for (size_t i = 0; i < old_capacity; ++i) {
    const Slot entry = old[i];
    if (entry.key == kEmptyKey) continue;
    old[i] = Slot{};
    if (HashIndex(entry.key, old_shift) > i) {
      wrapped.push_back(entry);
      continue;
    }
    Slot* s = slots_ + IndexFor(entry.key);
    while (s->key != kEmptyKey) ++s;
    assert(s <= old + i && "the probe met an unread slot");
    *s = entry;
  }
  for (const Slot& entry : wrapped) {
    size_t i = IndexFor(entry.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & (capacity_ - 1);
    slots_[i] = entry;
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
