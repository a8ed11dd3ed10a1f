// The core::RetryPolicy seam: attempt budget and lock-subscription mode,
// exercised both directly and through the public TxExecutor interface
// (TxRuntime with a kRtm backend).

#include <gtest/gtest.h>

#include "core/retry_policy.h"
#include "core/runtime.h"

namespace {

using namespace tsx::core;
using tsx::sim::Addr;
using tsx::sim::Word;

RunConfig make_cfg(Backend b, uint32_t threads) {
  RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = false;
  cfg.stm.lock_table_entries = 1u << 14;  // fast init in tests
  return cfg;
}

// ---- The policy object itself ----

TEST(RetryPolicy, BudgetExhaustion) {
  RetryPolicy p;
  p.max_attempts = 3;
  EXPECT_FALSE(p.unbounded());
  EXPECT_FALSE(p.exhausted(0));
  EXPECT_FALSE(p.exhausted(2));
  EXPECT_TRUE(p.exhausted(3));
  EXPECT_TRUE(p.exhausted(100));

  p.max_attempts = 0;  // unbounded: no fallback, retry forever
  EXPECT_TRUE(p.unbounded());
  EXPECT_FALSE(p.exhausted(1u << 30));
}

// ---- Through the public TxExecutor interface ----

TEST(RetryPolicySeam, BudgetExhaustionTakesFallbackAfterExactlyMaxAttempts) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  cfg.retry.max_attempts = 2;
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  const int txs = 5;
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < txs; ++i) {
      ctx.transaction([&] {
        ctx.store(data, ctx.load(data) + 1);
        if (!ctx.in_rtm_fallback()) {
          rt.machine().tx_abort(0x1);  // doom every speculative attempt
        }
      });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.transactions, static_cast<uint64_t>(txs));
  EXPECT_EQ(r.rtm.attempts, static_cast<uint64_t>(txs) * 2);  // the budget
  EXPECT_EQ(r.rtm.commits, 0u);
  EXPECT_EQ(r.rtm.fallbacks, static_cast<uint64_t>(txs));
  EXPECT_EQ(rt.machine().peek(data), static_cast<Word>(txs));
}

TEST(RetryPolicySeam, UnboundedBudgetNeverTakesFallback) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  cfg.retry.max_attempts = 0;  // unbounded
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  int aborts_left = 3;
  rt.run([&](TxCtx& ctx) {
    ctx.transaction([&] {
      ctx.store(data, ctx.load(data) + 1);
      if (aborts_left > 0) {
        --aborts_left;
        rt.machine().tx_abort(0x1);
      }
    });
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.attempts, 4u);  // 3 aborted + 1 committed
  EXPECT_EQ(r.rtm.commits, 1u);
  EXPECT_EQ(r.rtm.fallbacks, 0u);
  EXPECT_EQ(rt.machine().peek(data), 1u);
}

// One thread repeatedly overflows write capacity (guaranteed fallback) while
// another runs short increments: the subscription mode decides how the
// speculative side observes the serial sections.
class SubscriptionMode : public ::testing::TestWithParam<LockSubscription> {};

TEST_P(SubscriptionMode, FallbackHeavyWorkload) {
  LockSubscription mode = GetParam();
  RunConfig cfg = make_cfg(Backend::kRtm, 2);
  cfg.retry.max_attempts = 2;
  cfg.retry.subscription = mode;
  TxRuntime rt(cfg);
  const int kLines = 700;  // beyond hardware write capacity
  Addr big = rt.heap().host_alloc(kLines * 64, 64);
  Addr counter = rt.heap().host_alloc(8, 64);
  // Thread 1 needs enough iterations to still be issuing transactions while
  // thread 0 is inside its (long) serial sections; each overflow costs
  // thread 0 roughly max_attempts*kLines + kLines accesses.
  const int overflows = 4, iters = 2000;
  std::vector<std::function<void(TxCtx&)>> workers;
  workers.emplace_back([&](TxCtx& ctx) {
    for (int r = 0; r < overflows; ++r) {
      ctx.transaction([&] {
        for (int i = 0; i < kLines; ++i) {
          ctx.store(big + static_cast<Addr>(i) * 64, r);
        }
      });
    }
  });
  workers.emplace_back([&](TxCtx& ctx) {
    for (int i = 0; i < iters; ++i) {
      ctx.transaction(
          [&] { ctx.store(counter, ctx.load(counter) + 1); });
    }
  });
  rt.run(std::move(workers));

  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.fallbacks, static_cast<uint64_t>(overflows));
  uint64_t lock_aborts =
      r.rtm.aborts_by_class[static_cast<size_t>(tsx::htm::AbortClass::kLock)];
  // Both modes subscribe, which keeps the counter exact even with serial
  // sections interleaved.
  EXPECT_EQ(rt.machine().peek(counter), static_cast<Word>(iters));
  if (mode == LockSubscription::kSubscribeInTx) {
    // In-tx subscription converts overlapping serial sections into
    // observable lock-class aborts.
    EXPECT_GT(lock_aborts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SubscriptionMode,
    ::testing::Values(LockSubscription::kSubscribeInTx,
                      LockSubscription::kWaitThenSubscribe),
    [](const auto& param_info) {
      switch (param_info.param) {
        case LockSubscription::kSubscribeInTx: return "SubscribeInTx";
        case LockSubscription::kWaitThenSubscribe: return "WaitThenSubscribe";
      }
      return "Unknown";
    });

}  // namespace
