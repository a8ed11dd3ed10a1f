#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "sim/rng.h"
#include "stamp/lib/bitmap.h"
#include "stamp/lib/hashtable.h"
#include "stamp/lib/heap.h"

namespace {

using namespace tsx;
using namespace tsx::stamp;
using core::Backend;
using sim::Word;

core::RunConfig cfg_for(Backend b, uint32_t threads) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = false;
  cfg.stm.lock_table_entries = 1u << 14;
  return cfg;
}

TEST(HashTable, InsertFindRemove) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  HashTable h = HashTable::create_host(rt, 64);
  rt.run([&](core::TxCtx& ctx) {
    EXPECT_TRUE(h.insert(ctx, 1, 10));
    EXPECT_TRUE(h.insert(ctx, 65, 650));  // likely different bucket, any is fine
    EXPECT_FALSE(h.insert(ctx, 1, 99));
    Word v = 0;
    EXPECT_TRUE(h.find(ctx, 1, &v));
    EXPECT_EQ(v, 10u);
    EXPECT_TRUE(h.find(ctx, 65, &v));
    EXPECT_EQ(v, 650u);
    EXPECT_FALSE(h.find(ctx, 2, &v));
    EXPECT_TRUE(h.remove(ctx, 1));
    EXPECT_FALSE(h.remove(ctx, 1));
    EXPECT_EQ(h.size(ctx), 1u);
  });
}

TEST(HashTable, RejectsNonPowerOfTwoBuckets) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  EXPECT_THROW(HashTable::create_host(rt, 100), std::invalid_argument);
}

TEST(HashTable, RandomOpsMatchReference) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  HashTable h = HashTable::create_host(rt, 32);  // small: long chains
  sim::Rng rng(99);
  std::unordered_map<Word, Word> ref;
  rt.run([&](core::TxCtx& ctx) {
    for (int step = 0; step < 2000; ++step) {
      Word key = rng.below(100);
      switch (rng.below(3)) {
        case 0: {
          bool ours = h.insert(ctx, key, step);
          bool theirs = ref.emplace(key, step).second;
          ASSERT_EQ(ours, theirs);
          break;
        }
        case 1: {
          bool ours = h.remove(ctx, key);
          ASSERT_EQ(ours, ref.erase(key) > 0);
          break;
        }
        default: {
          Word v = 0;
          bool ours = h.find(ctx, key, &v);
          auto it = ref.find(key);
          ASSERT_EQ(ours, it != ref.end());
          if (ours) {
            ASSERT_EQ(v, it->second);
          }
        }
      }
    }
  });
  auto items = h.host_items(rt);
  EXPECT_EQ(items.size(), ref.size());
  for (auto [k, v] : items) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  }
}

TEST(HashTable, ConcurrentDistinctInsertsAllLand) {
  core::TxRuntime rt(cfg_for(Backend::kRtm, 4));
  HashTable h = HashTable::create_host(rt, 64);
  rt.run([&](core::TxCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      Word key = ctx.id() * 1000 + i;
      ctx.transaction([&] { h.insert(ctx, key, key); });
    }
  });
  EXPECT_EQ(h.host_items(rt).size(), 400u);
}

TEST(BinHeap, PushPopSortedOrder) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  BinHeap h = BinHeap::create_host(rt, 64);
  rt.run([&](core::TxCtx& ctx) {
    for (Word k : {9, 3, 7, 1, 5}) EXPECT_TRUE(h.push(ctx, k));
    Word prev = 0;
    Word k = 0;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(h.pop_min(ctx, &k));
      EXPECT_GE(k, prev);
      prev = k;
    }
    EXPECT_FALSE(h.pop_min(ctx, &k));
  });
}

TEST(BinHeap, CapacityLimit) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  BinHeap h = BinHeap::create_host(rt, 2);
  rt.run([&](core::TxCtx& ctx) {
    EXPECT_TRUE(h.push(ctx, 1));
    EXPECT_TRUE(h.push(ctx, 2));
    EXPECT_FALSE(h.push(ctx, 3));
  });
}

TEST(BinHeap, RandomOpsKeepInvariant) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  BinHeap h = BinHeap::create_host(rt, 512);
  sim::Rng rng(7);
  std::multiset<Word> ref;
  rt.run([&](core::TxCtx& ctx) {
    for (int step = 0; step < 1500; ++step) {
      if (ref.empty() || rng.chance(0.6)) {
        Word k = rng.below(1000);
        if (h.push(ctx, k)) ref.insert(k);
      } else {
        Word k = 0;
        ASSERT_TRUE(h.pop_min(ctx, &k));
        ASSERT_EQ(k, *ref.begin());
        ref.erase(ref.begin());
      }
    }
  });
  EXPECT_TRUE(h.host_validate(rt));
  EXPECT_EQ(h.host_size(rt), ref.size());
}

TEST(BinHeap, HostPushMatchesSimPush) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  BinHeap h = BinHeap::create_host(rt, 16);
  for (Word k : {5, 2, 8}) h.host_push(rt, k);
  EXPECT_TRUE(h.host_validate(rt));
  rt.run([&](core::TxCtx& ctx) {
    Word k = 0;
    ASSERT_TRUE(h.pop_min(ctx, &k));
    EXPECT_EQ(k, 2u);
  });
}

TEST(Bitmap, SetTestClear) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  Bitmap b = Bitmap::create_host(rt, 200);
  rt.run([&](core::TxCtx& ctx) {
    EXPECT_FALSE(b.test(ctx, 5));
    EXPECT_TRUE(b.set(ctx, 5));
    EXPECT_FALSE(b.set(ctx, 5));  // already set
    EXPECT_TRUE(b.test(ctx, 5));
    EXPECT_TRUE(b.set(ctx, 64));  // second word
    EXPECT_TRUE(b.set(ctx, 199));
    b.clear(ctx, 5);
    EXPECT_FALSE(b.test(ctx, 5));
    EXPECT_THROW(b.test(ctx, 200), std::out_of_range);
    EXPECT_THROW(b.set(ctx, 999), std::out_of_range);
  });
  EXPECT_EQ(b.host_count_set(rt), 2u);
}

TEST(Bitmap, ConcurrentClaimIsExclusive) {
  // Four threads race to claim bits transactionally; each bit must be won
  // exactly once.
  core::TxRuntime rt(cfg_for(Backend::kRtm, 4));
  Bitmap b = Bitmap::create_host(rt, 256);
  std::array<uint64_t, 4> wins{};
  rt.run([&](core::TxCtx& ctx) {
    for (uint64_t bit = 0; bit < 256; ++bit) {
      bool won = false;
      ctx.transaction([&] { won = b.set(ctx, bit); });
      if (won) ++wins[ctx.id()];
    }
  });
  EXPECT_EQ(wins[0] + wins[1] + wins[2] + wins[3], 256u);
  EXPECT_EQ(b.host_count_set(rt), 256u);
}

}  // namespace
