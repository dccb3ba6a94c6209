#ifndef XSB_BASE_CONCURRENT_H_
#define XSB_BASE_CONCURRENT_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace xsb {

// Building blocks for the shared-table serving layer: append-only storage
// whose *read* side is wait-free and never takes a lock, while the *write*
// side is driven by a single mutator at a time (the holder of the table
// space's evaluation lock, or an externally sharded lock).
//
// The shared invariant, frozen here as API: once an element is published it
// never moves and is never mutated except through fields that are themselves
// atomic. Growth allocates new blocks; it never relocates old ones, so a
// reader holding an index (or a pointer) stays sound across any amount of
// concurrent appending.

// Append-only arena over geometrically growing blocks. Indices are dense and
// stable; block 0 holds 2^kBaseShift elements and each further block doubles,
// so element `i` is located with one compare in block 0 and otherwise one
// bit_width — close enough to a vector index that the tabling hot path keeps
// its cost profile. Every arena here is addressed by a 32-bit id, so the
// block-pointer array holds just the blocks that 2^32 elements fill.
//
// Thread contract: any number of concurrent readers (operator[], size) race
// safely against ONE appender (EmplaceBack/AppendRun). Appenders must be
// externally serialized. Clear/destruction require quiescence.
template <typename T, size_t kBaseShift = 9>
class ConcurrentArena {
 public:
  static constexpr size_t kBase = size_t{1} << kBaseShift;
  // Blocks 0..b hold kBase * (2^(b+1) - 1) elements: 33 - kBaseShift blocks
  // reach past index 2^32 - 1.
  static constexpr size_t kMaxBlocks = 33 - kBaseShift;
  static_assert(kBaseShift < 32);

  ConcurrentArena() = default;
  ConcurrentArena(const ConcurrentArena&) = delete;
  ConcurrentArena& operator=(const ConcurrentArena&) = delete;
  ~ConcurrentArena() { DestroyAll(/*free_blocks=*/true); }

  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const {
    size_t b, off;
    Locate(i, &b, &off);
    return blocks_[b].load(std::memory_order_acquire)[off];
  }
  T& operator[](size_t i) {
    size_t b, off;
    Locate(i, &b, &off);
    return blocks_[b].load(std::memory_order_acquire)[off];
  }

  // Appends a new element (writer only); returns its index. The element is
  // fully constructed before the new size is released to readers.
  template <typename... Args>
  size_t EmplaceBack(Args&&... args) {
    size_t i = size_.load(std::memory_order_relaxed);
    size_t b, off;
    Locate(i, &b, &off);
    T* block = EnsureBlock(b);
    ::new (static_cast<void*>(block + off)) T(std::forward<Args>(args)...);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  T& back() { return (*this)[size_.load(std::memory_order_relaxed) - 1]; }

  // Appends `n` elements as one contiguous run (writer only); returns the
  // index of the first. Runs never straddle block boundaries: when the
  // current block cannot fit the run, the remainder of the block is filled
  // with value-initialized padding (readers never index padding — callers
  // hold run starts, not raw sizes). Requires n <= capacity of the block the
  // run lands in (any n <= kBase always fits).
  size_t AppendRun(const T* src, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n == 0) return size_.load(std::memory_order_relaxed);
    size_t i = size_.load(std::memory_order_relaxed);
    size_t b, off;
    Locate(i, &b, &off);
    if (off + n > BlockCapacity(b)) {
      // Pad out the block; the run starts at the next block's base.
      size_t pad = BlockCapacity(b) - off;
      T* block = EnsureBlock(b);
      for (size_t k = 0; k < pad; ++k) {
        ::new (static_cast<void*>(block + off + k)) T();
      }
      i += pad;
      Locate(i, &b, &off);
    }
    T* block = EnsureBlock(b);
    for (size_t k = 0; k < n; ++k) {
      ::new (static_cast<void*>(block + off + k)) T(src[k]);
    }
    size_.store(i + n, std::memory_order_release);
    return i;
  }

  // Pointer to the element at `i`; valid forever (blocks never move). For
  // contiguous runs written by AppendRun, the whole run is reachable.
  const T* at(size_t i) const {
    size_t b, off;
    Locate(i, &b, &off);
    return blocks_[b].load(std::memory_order_acquire) + off;
  }

  // Destroys all elements and resets to empty, keeping the first block
  // allocated. Writer only, and only when no reader can be live (the
  // single-threaded engine path between queries).
  void Clear() {
    DestroyAll(/*free_blocks=*/false);
    size_.store(0, std::memory_order_release);
  }

  // Bytes of the blocks that hold elements [0, size()): what bytes() reports
  // for an arena that was never cleared. A cleared arena keeps its first
  // block for reuse, which this does not count.
  size_t used_bytes() const {
    size_t n = size();
    if (n == 0) return 0;
    size_t b, off;
    Locate(n - 1, &b, &off);
    return ((kBase << (b + 1)) - kBase) * sizeof(T);
  }

  // Approximate resident bytes (allocated blocks).
  size_t bytes() const {
    size_t total = 0;
    for (size_t b = 0; b < kMaxBlocks; ++b) {
      if (blocks_[b].load(std::memory_order_acquire) == nullptr) break;
      total += BlockCapacity(b) * sizeof(T);
    }
    return total;
  }

 private:
  static constexpr size_t BlockCapacity(size_t b) { return kBase << b; }

  static void Locate(size_t i, size_t* b, size_t* off) {
    if (i < kBase) {
      *b = 0;
      *off = i;
      return;
    }
    size_t q = (i >> kBaseShift) + 1;
    size_t bb = static_cast<size_t>(std::bit_width(q)) - 1;
    *b = bb;
    *off = i - (((size_t{1} << bb) - 1) << kBaseShift);
  }

  T* EnsureBlock(size_t b) {
    if (b >= kMaxBlocks) {
      throw std::length_error("ConcurrentArena: index past the 32-bit range");
    }
    T* block = blocks_[b].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = static_cast<T*>(::operator new(
          BlockCapacity(b) * sizeof(T), std::align_val_t{alignof(T)}));
      blocks_[b].store(block, std::memory_order_release);
    }
    return block;
  }

  void DestroyAll(bool free_blocks) {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      size_t n = size_.load(std::memory_order_relaxed);
      for (size_t i = 0; i < n; ++i) (*this)[i].~T();
    }
    if (free_blocks) {
      for (size_t b = 0; b < kMaxBlocks; ++b) {
        T* block = blocks_[b].load(std::memory_order_relaxed);
        if (block != nullptr) {
          ::operator delete(static_cast<void*>(block),
                            std::align_val_t{alignof(T)});
        }
        blocks_[b].store(nullptr, std::memory_order_relaxed);
      }
    } else {
      for (size_t b = 1; b < kMaxBlocks; ++b) {
        T* block = blocks_[b].load(std::memory_order_relaxed);
        if (block != nullptr) {
          ::operator delete(static_cast<void*>(block),
                            std::align_val_t{alignof(T)});
        }
        blocks_[b].store(nullptr, std::memory_order_relaxed);
      }
    }
  }

  std::atomic<size_t> size_{0};
  std::atomic<T*> blocks_[kMaxBlocks] = {};
};

// Open-addressing hash map from a 64-bit key to a 32-bit value with
// lock-free reads and single-writer inserts; no deletion. Used for the
// escalated child indexes of high-fanout trie nodes, which are probed
// lock-free by concurrent readers while the evaluation-lock holder inserts.
//
// Read contract: a Find that returns kNotFound is *advisory* — it may miss a
// key inserted concurrently (the caller falls back to a locked re-check); a
// Find that returns a value is definitive. Growth copies into a fresh slot
// array and publishes it; superseded arrays are retired until destruction,
// so a reader probing a stale array sees (at worst) an advisory miss.
//
// Clear empties the map for reuse (a recycled answer trie's escalated
// indexes), keeping its first slot array: a cleared map costs what a new
// one costs, and refilling it allocates only to grow.
class AtomicKeyMap {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};  // never a valid key
  static constexpr uint32_t kNotFound = 0xffffffffu;

  explicit AtomicKeyMap(size_t initial_capacity = 16) {
    current_.store(NewTable(initial_capacity), std::memory_order_release);
  }
  AtomicKeyMap(const AtomicKeyMap&) = delete;
  AtomicKeyMap& operator=(const AtomicKeyMap&) = delete;
  ~AtomicKeyMap() {
    delete current_.load(std::memory_order_relaxed);
    for (Table* t : retired_) delete t;
  }

  // Empties the map to the state of AtomicKeyMap(initial_capacity): the slot
  // array of that size is kept, emptied, and the larger ones are freed.
  // Writer only, and only when no reader can be live.
  void Clear(size_t initial_capacity) {
    size_t capacity = Capacity(initial_capacity);
    Table* keep = nullptr;
    auto sort = [&](Table* t) {
      if (keep == nullptr && t->capacity == capacity) {
        keep = t;
      } else {
        delete t;
      }
    };
    sort(current_.load(std::memory_order_relaxed));
    for (Table* t : retired_) sort(t);
    retired_.clear();
    if (keep == nullptr) {
      keep = NewTable(capacity);
    } else {
      for (size_t i = 0; i < capacity; ++i) {
        keep->slots[i].key.store(kEmptyKey, std::memory_order_relaxed);
      }
      keep->used = 0;
    }
    current_.store(keep, std::memory_order_release);
  }

  uint32_t Find(uint64_t key) const {
    const Table* t = current_.load(std::memory_order_acquire);
    size_t mask = t->capacity - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
      if (k == key) return t->slots[i].val.load(std::memory_order_relaxed);
      if (k == kEmptyKey) return kNotFound;
    }
  }

  // Writer only. `key` must not already be present.
  void Insert(uint64_t key, uint32_t val) {
    Table* t = current_.load(std::memory_order_relaxed);
    if ((t->used + 1) * 10 >= t->capacity * 7) t = Grow(t);
    InsertInto(t, key, val);
    ++t->used;
  }

  size_t size() const {
    return current_.load(std::memory_order_acquire)->used;
  }
  size_t bytes() const {
    size_t total = sizeof(*this);
    const Table* t = current_.load(std::memory_order_acquire);
    total += sizeof(Table) + t->capacity * sizeof(Slot);
    for (const Table* r : retired_) {
      total += sizeof(Table) + r->capacity * sizeof(Slot);
    }
    return total;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint32_t> val{0};
  };
  struct Table {
    size_t capacity = 0;  // power of two
    size_t used = 0;      // writer-side bookkeeping
    std::unique_ptr<Slot[]> slots;
  };

  static uint64_t Hash(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 29;
    return key;
  }

  static size_t Capacity(size_t requested) {
    return std::bit_ceil(requested < 16 ? size_t{16} : requested);
  }

  static Table* NewTable(size_t capacity) {
    Table* t = new Table;
    t->capacity = Capacity(capacity);
    t->slots = std::make_unique<Slot[]>(t->capacity);
    return t;
  }

  static void InsertInto(Table* t, uint64_t key, uint32_t val) {
    size_t mask = t->capacity - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (t->slots[i].key.load(std::memory_order_relaxed) == kEmptyKey) {
        // Value first, then the key with release: a reader that sees the
        // key is guaranteed to see the value.
        t->slots[i].val.store(val, std::memory_order_relaxed);
        t->slots[i].key.store(key, std::memory_order_release);
        return;
      }
    }
  }

  Table* Grow(Table* old) {
    Table* bigger = NewTable(old->capacity * 2);
    bigger->used = old->used;
    for (size_t i = 0; i < old->capacity; ++i) {
      uint64_t k = old->slots[i].key.load(std::memory_order_relaxed);
      if (k != kEmptyKey) {
        InsertInto(bigger, k,
                   old->slots[i].val.load(std::memory_order_relaxed));
      }
    }
    retired_.push_back(old);
    current_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<Table*> current_{nullptr};
  // Superseded slot arrays, kept until destruction: total memory is bounded
  // by 2x the live table (geometric growth), and retiring rather than
  // freeing is what lets readers probe without any lock.
  std::vector<Table*> retired_;
};

}  // namespace xsb

#endif  // XSB_BASE_CONCURRENT_H_
