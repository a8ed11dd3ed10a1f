#pragma once
// Deterministic open-addressed flat hash containers for the simulator's hot
// paths (DESIGN.md §10). Three containers, all keyed on 64-bit integers:
//
//   FlatTable<V>  u64 -> V map: linear probing, tombstoned erase, power-of-
//                 two growth. Replaces unordered_map on paths where per-node
//                 allocation and pointer-chasing dominate (backing-store page
//                 table, sim-heap block directory).
//   FlatSet      u64 set with O(1) epoch-based clear(). Replaces
//                 unordered_set for transactional read/write line sets and
//                 TL2's commit-time stripe dedup.
//   WriteIndex   Addr -> u32 position map, small-size-optimized: a linear
//                 inline array below kInlineCap entries, spilling to an
//                 epoch-cleared open-addressed table above it. Replaces the
//                 STM write-set RAW-lookup unordered_map (TinySTM/TL2),
//                 whose typical population is a handful of entries.
//
// Determinism: layout and iteration order are a pure function of the
// insert/erase sequence (fixed hash, fixed growth schedule, no allocator or
// libc++ variance), which tests/test_flat_table.cpp pins. Keys hash through
// the splitmix64 finalizer so dense line/page numbers spread over the table.

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace tsx::util {

// splitmix64 finalizer: deterministic, well-mixed, cheap.
inline constexpr uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Open-addressed u64 -> V map with linear probing and tombstones.
template <typename V>
class FlatTable {
 public:
  FlatTable() = default;

  V* find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    size_t i = mix64(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return nullptr;
      if (s.state == kFull && s.key == key) return &s.value;
      i = (i + 1) & mask_;
    }
  }
  const V* find(uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  // Inserts a default-constructed value if absent.
  V& operator[](uint64_t key) { return *try_emplace(key).first; }

  // Returns {slot, inserted}.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(uint64_t key, Args&&... args) {
    if (used_ + 1 > capacity_limit()) grow();
    size_t i = mix64(key) & mask_;
    size_t tomb = kNoSlot;
    for (;;) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) {
        Slot& dst = tomb == kNoSlot ? s : slots_[tomb];
        if (tomb == kNoSlot) ++used_;  // tombstone reuse keeps `used_`
        dst.key = key;
        dst.value = V(std::forward<Args>(args)...);
        dst.state = kFull;
        ++size_;
        return {&dst.value, true};
      }
      if (s.state == kTombstone && tomb == kNoSlot) tomb = i;
      if (s.state == kFull && s.key == key) return {&s.value, false};
      i = (i + 1) & mask_;
    }
  }

  bool erase(uint64_t key) {
    if (slots_.empty()) return false;
    size_t i = mix64(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return false;
      if (s.state == kFull && s.key == key) {
        s.value = V();
        s.state = kTombstone;
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = used_ = 0;
  }

  // Visits entries in slot order (deterministic for a given op sequence).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.state == kFull) fn(s.key, s.value);
    }
  }

  void reserve(size_t n) {
    while (capacity_limit() < n) grow();
  }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr size_t kNoSlot = ~size_t{0};

  struct Slot {
    uint64_t key = 0;
    V value{};
    uint8_t state = kEmpty;
  };

  // Max load factor 11/16 (~0.69); growth rehashes away all tombstones.
  size_t capacity_limit() const { return slots_.size() / 16 * 11; }

  void grow() {
    size_t ncap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(ncap);  // value-init; works for move-only V
    mask_ = ncap - 1;
    size_ = used_ = 0;
    for (Slot& s : old) {
      if (s.state != kFull) continue;
      size_t i = mix64(s.key) & mask_;
      while (slots_[i].state == kFull) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      slots_[i].state = kFull;
      ++size_;
      ++used_;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;  // kFull slots
  size_t used_ = 0;  // kFull + kTombstone (probe-length control)
};

// u64 set with O(1) clear. No erase and no iteration: the simulator clears
// transactional line sets wholesale (commit/abort), never element-wise.
class FlatSet {
 public:
  FlatSet() = default;

  // Returns true if the key was newly inserted.
  bool insert(uint64_t key) {
    if (size_ + 1 > slots_.size() / 16 * 11) grow();
    size_t i = mix64(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.key = key;
        s.epoch = epoch_;
        ++size_;
        return true;
      }
      if (s.key == key) return false;
      i = (i + 1) & mask_;
    }
  }

  bool contains(uint64_t key) const {
    if (slots_.empty()) return false;
    size_t i = mix64(key) & mask_;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return false;
      if (s.key == key) return true;
      i = (i + 1) & mask_;
    }
  }
  size_t count(uint64_t key) const { return contains(key) ? 1 : 0; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // epoch wraparound: hard-reset the stamps
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t epoch = 0;  // slot live iff epoch == epoch_
  };

  // Rehashes the live slots, in slot order, into a table twice the size.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    uint32_t old_epoch = epoch_;
    size_t ncap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(ncap, Slot{});
    mask_ = ncap - 1;
    epoch_ = 1;
    for (const Slot& o : old) {
      if (o.epoch != old_epoch) continue;
      size_t i = mix64(o.key) & mask_;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      slots_[i].key = o.key;
      slots_[i].epoch = epoch_;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint32_t epoch_ = 1;  // 0 marks never-used slots
};

// Small-size-optimized Addr -> u32 index map for STM write sets: linear scan
// over an inline array up to kInlineCap entries, then an epoch-cleared
// open-addressed table. Typical transactions write a handful of distinct
// words, so the spill path is rare; clear() is O(1) in both modes.
class WriteIndex {
 public:
  static constexpr uint32_t kInlineCap = 16;

  uint32_t* find(uint64_t key) {
    if (!spilled_) {
      for (uint32_t i = 0; i < count_; ++i) {
        if (inline_keys_[i] == key) return &inline_vals_[i];
      }
      return nullptr;
    }
    size_t i = mix64(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask_;
    }
  }

  // Key must not be present (callers find() first).
  void insert(uint64_t key, uint32_t value) {
    if (!spilled_) {
      if (count_ < kInlineCap) {
        inline_keys_[count_] = key;
        inline_vals_[count_] = value;
        ++count_;
        return;
      }
      spill();
    }
    if (count_ + 1 > slots_.size() / 16 * 11) grow();
    place(key, value);
    ++count_;
  }

  void clear() {
    count_ = 0;
    spilled_ = false;
    if (!slots_.empty() && ++epoch_ == 0) {
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  size_t size() const { return count_; }
  bool spilled() const { return spilled_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = 0;
    uint32_t epoch = 0;
  };

  void place(uint64_t key, uint32_t value) {
    size_t i = mix64(key) & mask_;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
    slots_[i].key = key;
    slots_[i].value = value;
    slots_[i].epoch = epoch_;
  }

  void spill() {
    spilled_ = true;
    if (slots_.empty()) {
      slots_.assign(64, Slot{});
      mask_ = 63;
      epoch_ = 1;
    } else {
      clear_slots();
    }
    for (uint32_t i = 0; i < count_; ++i) {
      place(inline_keys_[i], inline_vals_[i]);
    }
  }

  void clear_slots() {
    if (++epoch_ == 0) {
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    uint32_t old_epoch = epoch_;
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    epoch_ = 1;
    for (Slot& s : old) {
      if (s.epoch == old_epoch) place(s.key, s.value);
    }
  }

  uint64_t inline_keys_[kInlineCap];
  uint32_t inline_vals_[kInlineCap];
  uint32_t count_ = 0;
  bool spilled_ = false;

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t epoch_ = 1;
};

}  // namespace tsx::util
