// Tests for util/flat_table.h (FlatTable / FlatSet / WriteIndex) and
// util/arena.h. These containers sit on digest-relevant simulator paths, so
// beyond correctness the suite pins *determinism*: layout and iteration
// order must be a pure function of the operation sequence, and the STM
// write-set index must agree with a reference map under a randomized
// tm_fuzz-style seed sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/arena.h"
#include "util/flat_table.h"
#include "util/fn_ref.h"

namespace {

using tsx::util::Arena;
using tsx::util::FlatSet;
using tsx::util::FlatTable;
using tsx::util::FnRef;
using tsx::util::WriteIndex;

// ---------------------------------------------------------------- FlatTable

TEST(FlatTable, InsertFindBasic) {
  FlatTable<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(7), nullptr);
  auto [v, inserted] = t.try_emplace(7, 42);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(t.size(), 1u);
  auto [v2, inserted2] = t.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 42);  // existing value untouched
  EXPECT_EQ(*t.find(7), 42);
}

TEST(FlatTable, OperatorIndexDefaultConstructs) {
  FlatTable<uint64_t> t;
  t[3] += 5;
  t[3] += 5;
  EXPECT_EQ(*t.find(3), 10u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTable, EraseAndTombstoneReuse) {
  FlatTable<int> t;
  for (uint64_t k = 0; k < 8; ++k) t.try_emplace(k, int(k));
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.size(), 7u);
  // Keys past the tombstone are still reachable (probe continues).
  for (uint64_t k = 0; k < 8; ++k) {
    if (k == 3) continue;
    ASSERT_NE(t.find(k), nullptr) << k;
    EXPECT_EQ(*t.find(k), int(k));
  }
  // Re-inserting the erased key reuses the tombstone: no growth pressure.
  size_t cap = t.capacity();
  auto [v, inserted] = t.try_emplace(3, -3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, -3);
  EXPECT_EQ(t.capacity(), cap);
}

TEST(FlatTable, GrowthPreservesEntriesAndDropsTombstones) {
  FlatTable<uint64_t> t;
  for (uint64_t k = 0; k < 500; ++k) t.try_emplace(k, k * 3);
  for (uint64_t k = 0; k < 500; k += 2) t.erase(k);
  for (uint64_t k = 1000; k < 1500; ++k) t.try_emplace(k, k * 3);  // forces rehash
  EXPECT_EQ(t.size(), 250u + 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(t.find(k), nullptr) << k;
    } else {
      ASSERT_NE(t.find(k), nullptr) << k;
      EXPECT_EQ(*t.find(k), k * 3);
    }
  }
  for (uint64_t k = 1000; k < 1500; ++k) ASSERT_NE(t.find(k), nullptr) << k;
}

TEST(FlatTable, MoveOnlyValues) {
  FlatTable<std::unique_ptr<int>> t;
  for (uint64_t k = 0; k < 100; ++k) {
    t.try_emplace(k, std::make_unique<int>(int(k)));
  }
  // Pointees survive rehash (slots are moved, not copied).
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(**t.find(k), int(k));
  }
}

// Pointee stability across rehash is what lets BackingStore keep a raw
// Page* cache: the unique_ptr slot moves, the pointee never does.
TEST(FlatTable, PointeeStableAcrossGrowth) {
  FlatTable<std::unique_ptr<int>> t;
  t.try_emplace(0, std::make_unique<int>(7));
  int* pointee = t.find(0)->get();
  for (uint64_t k = 1; k < 1000; ++k) {
    t.try_emplace(k, std::make_unique<int>(int(k)));
  }
  EXPECT_EQ(t.find(0)->get(), pointee);
  EXPECT_EQ(*pointee, 7);
}

// Same operation sequence => same slot layout => same for_each order.
// This is the digest-relevant property: nothing about iteration depends on
// allocator state or the standard library's hash seeding.
TEST(FlatTable, IterationOrderIsPureFunctionOfOpSequence) {
  auto build = [] {
    FlatTable<uint64_t> t;
    std::mt19937_64 rng(1234);
    for (int i = 0; i < 300; ++i) t.try_emplace(rng() % 512, uint64_t(i));
    for (int i = 0; i < 100; ++i) t.erase(rng() % 512);
    for (int i = 0; i < 100; ++i) t.try_emplace(rng() % 512, uint64_t(i));
    return t;
  };
  std::vector<std::pair<uint64_t, uint64_t>> a, b;
  build().for_each([&](uint64_t k, const uint64_t& v) { a.emplace_back(k, v); });
  build().for_each([&](uint64_t k, const uint64_t& v) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FlatTable, RandomizedAgainstUnorderedMap) {
  std::mt19937_64 rng(99);
  FlatTable<uint64_t> t;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng() % 1024;
    switch (rng() % 3) {
      case 0: {
        uint64_t val = rng();
        bool inserted = t.try_emplace(key, val).second;
        bool ref_inserted = ref.try_emplace(key, val).second;
        ASSERT_EQ(inserted, ref_inserted);
        break;
      }
      case 1:
        ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
        break;
      default: {
        auto* p = t.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(p != nullptr, it != ref.end());
        if (p) {
          ASSERT_EQ(*p, it->second);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

// ------------------------------------------------------------------ FlatSet

TEST(FlatSet, InsertContainsClear) {
  FlatSet s;
  EXPECT_TRUE(s.insert(10));
  EXPECT_FALSE(s.insert(10));
  EXPECT_TRUE(s.insert(11));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.count(10), 1u);
  EXPECT_EQ(s.count(12), 0u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(10), 0u);
  EXPECT_TRUE(s.insert(10));  // re-insert after epoch clear
}

TEST(FlatSet, IterationIsInsertionOrder) {
  FlatSet s;
  std::vector<uint64_t> want = {5, 3, 9, 1, 7};
  for (uint64_t k : want) s.insert(k);
  s.insert(3);  // duplicate: no effect on order
  std::vector<uint64_t> got(s.begin(), s.end());
  EXPECT_EQ(got, want);
}

TEST(FlatSet, SurvivesGrowthAndManyClears) {
  FlatSet s;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    std::unordered_set<uint64_t> ref;
    int n = 1 + int(rng() % 300);
    for (int i = 0; i < n; ++i) {
      uint64_t k = rng() % 4096;
      ASSERT_EQ(s.insert(k), ref.insert(k).second);
    }
    ASSERT_EQ(s.size(), ref.size());
    for (uint64_t k : ref) ASSERT_TRUE(s.contains(k));
    s.clear();
    ASSERT_TRUE(s.empty());
  }
}

// -------------------------------------------------------------- WriteIndex

TEST(WriteIndex, InlineModeBasics) {
  WriteIndex w;
  EXPECT_EQ(w.find(0x100), nullptr);
  w.insert(0x100, 0);
  w.insert(0x108, 1);
  ASSERT_NE(w.find(0x100), nullptr);
  EXPECT_EQ(*w.find(0x100), 0u);
  EXPECT_EQ(*w.find(0x108), 1u);
  EXPECT_EQ(w.find(0x110), nullptr);
  EXPECT_FALSE(w.spilled());
  w.clear();
  EXPECT_EQ(w.find(0x100), nullptr);
  EXPECT_EQ(w.size(), 0u);
}

TEST(WriteIndex, SpillsPastInlineCapacity) {
  WriteIndex w;
  for (uint32_t i = 0; i <= WriteIndex::kInlineCap; ++i) {
    w.insert(0x1000 + 8 * uint64_t(i), i);
  }
  EXPECT_TRUE(w.spilled());
  for (uint32_t i = 0; i <= WriteIndex::kInlineCap; ++i) {
    auto* p = w.find(0x1000 + 8 * uint64_t(i));
    ASSERT_NE(p, nullptr) << i;
    EXPECT_EQ(*p, i);
  }
  // clear() returns to inline mode; spilled entries are gone.
  w.clear();
  EXPECT_FALSE(w.spilled());
  EXPECT_EQ(w.find(0x1000), nullptr);
  w.insert(0x2000, 5);
  EXPECT_EQ(*w.find(0x2000), 5u);
}

// The STM write-set equivalence sweep: replay tm_fuzz-style randomized
// transactions (write-heavy, re-write same word, occasional huge write set
// to force the spill path, clear() between txs) against a reference
// unordered_map. Mirrors exactly how tinystm.cpp/tl2.cpp use the index.
TEST(WriteIndex, EquivalenceSweepVsReferenceMap) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    std::mt19937_64 rng(seed);
    WriteIndex w;
    std::unordered_map<uint64_t, uint32_t> ref;
    int txs = 50;
    for (int tx = 0; tx < txs; ++tx) {
      // A few txs are large enough to spill; most stay inline.
      int writes = (rng() % 8 == 0) ? 20 + int(rng() % 200) : int(rng() % 12);
      uint32_t next_pos = 0;
      for (int i = 0; i < writes; ++i) {
        uint64_t addr = 0x10000 + 8 * (rng() % 256);
        uint32_t* p = w.find(addr);
        auto it = ref.find(addr);
        ASSERT_EQ(p != nullptr, it != ref.end()) << "seed " << seed;
        if (p) {
          ASSERT_EQ(*p, it->second) << "seed " << seed;
        } else {
          w.insert(addr, next_pos);
          ref.emplace(addr, next_pos);
          ++next_pos;
        }
        ASSERT_EQ(w.size(), ref.size());
      }
      w.clear();
      ref.clear();
    }
  }
}

// -------------------------------------------------------------------- Arena

TEST(Arena, BumpAllocatesAligned) {
  Arena a(256);
  auto* p1 = a.alloc_array<uint8_t>(3);
  auto* p2 = a.alloc_array<uint64_t>(4);
  EXPECT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % alignof(uint64_t), 0u);
  p2[0] = 42;
  p2[3] = 43;
  EXPECT_EQ(p2[0], 42u);
}

TEST(Arena, GrowsPastBlockSizeAndHonorsLargeRequests) {
  Arena a(64);
  std::vector<uint32_t*> ptrs;
  for (int i = 0; i < 100; ++i) {
    uint32_t* p = a.alloc_array<uint32_t>(8);  // 32 bytes each
    *p = uint32_t(i);
    ptrs.push_back(p);
  }
  // Larger than the block size: gets its own block.
  uint64_t* big = a.alloc_array<uint64_t>(1024);
  big[1023] = 7;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ptrs[i], uint32_t(i));
  EXPECT_GT(a.blocks(), 1u);
}

TEST(Arena, ResetRecyclesBlocks) {
  Arena a(128);
  for (int i = 0; i < 50; ++i) a.alloc_array<uint64_t>(4);
  size_t blocks_before = a.blocks();
  a.reset();
  for (int i = 0; i < 50; ++i) a.alloc_array<uint64_t>(4);
  EXPECT_EQ(a.blocks(), blocks_before);  // no fresh allocation after reset
}

TEST(Arena, CreateConstructsInPlace) {
  struct Pod {
    int a;
    double b;
  };
  Arena arena;
  Pod* p = arena.create<Pod>(Pod{3, 1.5});
  EXPECT_EQ(p->a, 3);
  EXPECT_DOUBLE_EQ(p->b, 1.5);
}

// -------------------------------------------------------------------- FnRef

TEST(FnRef, CallsLambdaWithCapturesNoAllocation) {
  int hits = 0;
  uint64_t a = 1, b = 2, c = 3, d = 4;  // captures beyond any SBO budget
  auto body = [&] { hits += int(a + b + c + d); };
  FnRef<void()> ref(body);
  ref();
  ref();
  EXPECT_EQ(hits, 20);
}

TEST(FnRef, ForwardsArgumentsAndReturn) {
  auto add = [](int x, int y) { return x + y; };
  FnRef<int(int, int)> ref(add);
  EXPECT_EQ(ref(2, 3), 5);
}

TEST(FnRef, WorksWithMutableStateAcrossRetries) {
  // The executor retry loop re-invokes the same body; FnRef must observe
  // the caller's live state every time.
  int attempts = 0;
  auto body = [&] { ++attempts; };
  FnRef<void()> ref(body);
  for (int i = 0; i < 5; ++i) ref();
  EXPECT_EQ(attempts, 5);
}

}  // namespace
