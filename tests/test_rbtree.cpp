#include <gtest/gtest.h>

#include <map>

#include "sim/rng.h"
#include "stamp/lib/rbtree.h"

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

TEST(RbTree, InsertFindBasics) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    EXPECT_TRUE(t.insert(ctx, 10, 100));
    EXPECT_TRUE(t.insert(ctx, 5, 50));
    EXPECT_TRUE(t.insert(ctx, 15, 150));
    EXPECT_FALSE(t.insert(ctx, 10, 999));  // duplicate rejected
    Word v = 0;
    EXPECT_TRUE(t.find(ctx, 5, &v));
    EXPECT_EQ(v, 50u);
    EXPECT_FALSE(t.find(ctx, 7, &v));
    EXPECT_EQ(t.size(ctx), 3u);
    EXPECT_TRUE(t.update(ctx, 5, 55));
    EXPECT_TRUE(t.find(ctx, 5, &v));
    EXPECT_EQ(v, 55u);
    EXPECT_FALSE(t.update(ctx, 7, 1));
  });
  std::string why;
  EXPECT_TRUE(t.host_validate(rt, &why)) << why;
}

TEST(RbTree, RemoveAllShapes) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    for (Word k = 1; k <= 31; ++k) EXPECT_TRUE(t.insert(ctx, k, k));
    // Remove leaf, one-child, two-children and root-ish nodes.
    for (Word k : {1, 16, 8, 31, 2, 30, 15, 17}) {
      EXPECT_TRUE(t.remove(ctx, k));
      EXPECT_FALSE(t.find(ctx, k, nullptr));
    }
    EXPECT_FALSE(t.remove(ctx, 1));  // already gone
    EXPECT_EQ(t.size(ctx), 31u - 8u);
  });
  std::string why;
  EXPECT_TRUE(t.host_validate(rt, &why)) << why;
}

TEST(RbTree, MinAndSuccessorIterate) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    for (Word k : {20, 10, 30, 5, 15, 25, 35}) t.insert(ctx, k, 0);
    std::vector<Word> keys;
    for (sim::Addr n = t.min_node(ctx); n != 0; n = t.successor(ctx, n)) {
      keys.push_back(t.node_key(ctx, n));
    }
    EXPECT_EQ(keys, (std::vector<Word>{5, 10, 15, 20, 25, 30, 35}));
  });
}

TEST(RbTree, LowerBound) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    for (Word k : {10, 20, 30}) t.insert(ctx, k, 0);
    EXPECT_EQ(t.node_key(ctx, t.lower_bound(ctx, 5)), 10u);
    EXPECT_EQ(t.node_key(ctx, t.lower_bound(ctx, 10)), 10u);
    EXPECT_EQ(t.node_key(ctx, t.lower_bound(ctx, 11)), 20u);
    EXPECT_EQ(t.lower_bound(ctx, 31), 0u);
  });
}

TEST(RbTree, FindNodeAllowsDirectAccess) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    t.insert(ctx, 7, 70);
    sim::Addr n = t.find_node(ctx, 7);
    ASSERT_NE(n, 0u);
    EXPECT_EQ(t.node_value(ctx, n), 70u);
    t.set_node_value(ctx, n, 71);
    Word v = 0;
    EXPECT_TRUE(t.find(ctx, 7, &v));
    EXPECT_EQ(v, 71u);
    EXPECT_EQ(t.find_node(ctx, 8), 0u);
  });
}

// Property test: a random operation mix must match std::map exactly and
// preserve every red-black invariant, across several seeds.
class RbTreeRandomOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbTreeRandomOps, MatchesStdMapAndKeepsInvariants) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  RbTree t = RbTree::create_host(rt);
  sim::Rng rng(GetParam());
  std::map<Word, Word> ref;
  rt.run([&](core::TxCtx& ctx) {
    for (int step = 0; step < 3000; ++step) {
      Word key = rng.below(200);
      int op = static_cast<int>(rng.below(10));
      if (op < 5) {
        bool ours = t.insert(ctx, key, step);
        bool theirs = ref.emplace(key, step).second;
        ASSERT_EQ(ours, theirs) << "insert(" << key << ") step " << step;
      } else if (op < 8) {
        bool ours = t.remove(ctx, key);
        bool theirs = ref.erase(key) > 0;
        ASSERT_EQ(ours, theirs) << "remove(" << key << ") step " << step;
      } else {
        Word v = 0;
        bool ours = t.find(ctx, key, &v);
        auto it = ref.find(key);
        ASSERT_EQ(ours, it != ref.end()) << "find(" << key << ")";
        if (ours) {
          ASSERT_EQ(v, it->second);
        }
      }
    }
  });
  std::string why;
  ASSERT_TRUE(t.host_validate(rt, &why)) << why;
  auto items = t.host_items(rt);
  ASSERT_EQ(items.size(), ref.size());
  size_t i = 0;
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(items[i].first, k);
    EXPECT_EQ(items[i].second, v);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeRandomOps,
                         ::testing::Values(1, 2, 3, 42, 1337));

// Concurrent property: disjoint key ranges inserted transactionally by four
// threads; the final tree must contain exactly the union and stay valid.
class RbTreeConcurrent : public ::testing::TestWithParam<Backend> {};

TEST_P(RbTreeConcurrent, ParallelInsertsAndRemoves) {
  core::TxRuntime rt(cfg_for(GetParam(), 4));
  RbTree t = RbTree::create_host(rt);
  const int per_thread = 120;
  rt.run([&](core::TxCtx& ctx) {
    Word base = ctx.id() * 1000;
    for (int i = 0; i < per_thread; ++i) {
      ctx.transaction([&] { t.insert(ctx, base + i, ctx.id()); });
    }
    // Remove every third key again.
    for (int i = 0; i < per_thread; i += 3) {
      ctx.transaction([&] { t.remove(ctx, base + i); });
    }
  });
  std::string why;
  ASSERT_TRUE(t.host_validate(rt, &why)) << why;
  auto items = t.host_items(rt);
  uint64_t expected = 4ull * (per_thread - (per_thread + 2) / 3);
  EXPECT_EQ(items.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Backends, RbTreeConcurrent,
                         ::testing::Values(Backend::kLock, Backend::kRtm,
                                           Backend::kTinyStm, Backend::kTl2),
                         [](const auto& suite_info) {
                           return core::backend_name(suite_info.param);
                         });

TEST(RbTree, AbortedInsertLeavesTreeUntouched) {
  core::RunConfig cfg = cfg_for(Backend::kRtm, 1);
  cfg.retry.max_attempts = 1;
  core::TxRuntime rt(cfg);
  RbTree t = RbTree::create_host(rt);
  rt.run([&](core::TxCtx& ctx) {
    ctx.transaction([&] { t.insert(ctx, 1, 1); });
    ctx.transaction([&] {
      t.insert(ctx, 2, 2);
      if (!ctx.in_rtm_fallback()) {
        rt.machine().tx_abort(0x3);  // abort the speculative attempt
      }
    });
  });
  // Key 2 was inserted exactly once (by the fallback execution).
  auto items = t.host_items(rt);
  ASSERT_EQ(items.size(), 2u);
  std::string why;
  EXPECT_TRUE(t.host_validate(rt, &why)) << why;
}

}  // namespace
