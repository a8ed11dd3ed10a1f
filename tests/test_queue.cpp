#include <gtest/gtest.h>

#include <set>

#include "stamp/lib/queue.h"

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

TEST(Queue, HostPushAndSize) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  Queue q = Queue::create(rt, 100);
  EXPECT_EQ(q.host_size(rt), 0u);
  for (int i = 0; i < 100; ++i) q.host_push(rt, i);
  EXPECT_EQ(q.host_size(rt), 100u);
  EXPECT_THROW(q.host_push(rt, 1), std::runtime_error);
}

TEST(Queue, FifoOrderSingleThread) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  Queue q = Queue::create(rt, 10);
  rt.run([&](core::TxCtx& ctx) {
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(ctx, 100 + i));
    Word v;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.pop(ctx, &v));
      EXPECT_EQ(v, static_cast<Word>(100 + i));
    }
    EXPECT_FALSE(q.pop(ctx, &v));
    EXPECT_TRUE(q.is_empty(ctx));
  });
}

TEST(Queue, FullQueueRejectsPush) {
  core::TxRuntime rt(cfg_for(Backend::kSeq, 1));
  Queue q = Queue::create(rt, 3);
  rt.run([&](core::TxCtx& ctx) {
    EXPECT_TRUE(q.push(ctx, 1));
    EXPECT_TRUE(q.push(ctx, 2));
    EXPECT_TRUE(q.push(ctx, 3));
    EXPECT_FALSE(q.push(ctx, 4));
    Word v;
    EXPECT_TRUE(q.pop(ctx, &v));
    EXPECT_TRUE(q.push(ctx, 4));  // wraps around
  });
}

class QueueDrain : public ::testing::TestWithParam<Backend> {};

TEST_P(QueueDrain, ConcurrentPopsDrainExactlyOnce) {
  const uint64_t n = 2000;
  core::TxRuntime rt(cfg_for(GetParam(), 4));
  Queue q = Queue::create(rt, n);
  for (uint64_t i = 0; i < n; ++i) q.host_push(rt, i + 1);
  std::array<std::vector<Word>, 4> popped;
  rt.run([&](core::TxCtx& ctx) {
    Word v = 0;
    for (;;) {
      bool ok = false;
      ctx.transaction([&] { ok = q.pop(ctx, &v); });
      if (!ok) break;
      popped[ctx.id()].push_back(v);
    }
  });
  std::set<Word> all;
  uint64_t total = 0;
  for (const auto& vec : popped) {
    total += vec.size();
    all.insert(vec.begin(), vec.end());
  }
  EXPECT_EQ(total, n);            // nothing lost
  EXPECT_EQ(all.size(), n);       // nothing popped twice
  EXPECT_EQ(q.host_size(rt), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, QueueDrain,
                         ::testing::Values(Backend::kLock, Backend::kRtm,
                                           Backend::kTinyStm),
                         [](const auto& suite_info) {
                           return core::backend_name(suite_info.param);
                         });

TEST(Queue, CasPopDrainsExactlyOnce) {
  const uint64_t n = 2000;
  core::TxRuntime rt(cfg_for(Backend::kSeq, 4));
  Queue q = Queue::create(rt, n);
  for (uint64_t i = 0; i < n; ++i) q.host_push(rt, i + 1);
  std::array<std::vector<Word>, 4> popped;
  rt.run([&](core::TxCtx& ctx) {
    Word v = 0;
    while (q.pop_cas(ctx, &v)) popped[ctx.id()].push_back(v);
  });
  std::set<Word> all;
  uint64_t total = 0;
  for (const auto& vec : popped) {
    total += vec.size();
    all.insert(vec.begin(), vec.end());
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(all.size(), n);
}

}  // namespace
