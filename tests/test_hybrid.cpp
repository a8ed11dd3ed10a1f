// Backend::kHybrid: hardware transaction attempts with a TinySTM (not
// serial-lock) fallback. Exercises the coupling invariants — STM fallbacks
// run concurrently with hardware attempts and both directions of conflict
// are detected — through the public runtime interface and the differential
// oracle.

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/oracle.h"
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

TEST(Hybrid, SharedCounterIsExactAcrossThreadCounts) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    RunConfig cfg = make_cfg(Backend::kHybrid, threads);
    TxRuntime rt(cfg);
    Addr counter = rt.heap().host_alloc(8, 64);
    const int iters = 200;
    rt.run([&](TxCtx& ctx) {
      for (int i = 0; i < iters; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(counter);
          ctx.compute(7);
          ctx.store(counter, v + 1);
        });
      }
    });
    EXPECT_EQ(rt.machine().peek(counter), static_cast<Word>(threads) * iters)
        << threads << " threads";
  }
}

TEST(Hybrid, CapacityOverflowFallsBackToStmNotSerial) {
  RunConfig cfg = make_cfg(Backend::kHybrid, 1);
  cfg.retry.max_attempts = 1;
  TxRuntime rt(cfg);
  const int kLines = 700;  // beyond hardware write capacity
  Addr big = rt.heap().host_alloc(kLines * 64, 64);
  bool saw_serial_fallback = false;
  rt.run([&](TxCtx& ctx) {
    ctx.transaction([&] {
      for (int i = 0; i < kLines; ++i) {
        ctx.store(big + static_cast<Addr>(i) * 64, 7);
      }
      saw_serial_fallback |= ctx.in_rtm_fallback();
    });
  });
  RunReport r = rt.report();
  // One hardware attempt (write-capacity abort), then one software tx.
  EXPECT_EQ(r.rtm.attempts, 1u);
  EXPECT_EQ(r.rtm.fallbacks, 1u);
  EXPECT_EQ(r.stm.transactions, 1u);
  EXPECT_EQ(r.stm.commits, 1u);
  // The hybrid has no serial fallback path at all.
  EXPECT_FALSE(saw_serial_fallback);
  for (int i = 0; i < kLines; ++i) {
    ASSERT_EQ(rt.machine().peek(big + static_cast<Addr>(i) * 64), 7u);
  }
}

TEST(Hybrid, StmFallbackAndHardwareAttemptsShareOneCounterExactly) {
  // Thread 0: short transactions (hardware commits). Thread 1: every
  // transaction overflows capacity (STM fallback) and also bumps the shared
  // counter — so software commits must be visible to hardware attempts and
  // vice versa.
  RunConfig cfg = make_cfg(Backend::kHybrid, 2);
  cfg.retry.max_attempts = 2;
  TxRuntime rt(cfg);
  const int kLines = 700;
  Addr big = rt.heap().host_alloc(kLines * 64, 64);
  Addr counter = rt.heap().host_alloc(8, 64);
  const int small_iters = 150, big_iters = 4;
  std::vector<std::function<void(TxCtx&)>> workers;
  workers.emplace_back([&](TxCtx& ctx) {
    for (int i = 0; i < small_iters; ++i) {
      ctx.transaction([&] { ctx.store(counter, ctx.load(counter) + 1); },
                      /*site=*/1);
    }
  });
  workers.emplace_back([&](TxCtx& ctx) {
    for (int r = 0; r < big_iters; ++r) {
      ctx.transaction(
          [&] {
            for (int i = 0; i < kLines; ++i) {
              ctx.store(big + static_cast<Addr>(i) * 64, r);
            }
            ctx.store(counter, ctx.load(counter) + 1);
          },
          /*site=*/2);
    }
  });
  rt.run(std::move(workers));

  EXPECT_EQ(rt.machine().peek(counter),
            static_cast<Word>(small_iters + big_iters));
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.fallbacks, static_cast<uint64_t>(big_iters));
  EXPECT_EQ(r.stm.commits, static_cast<uint64_t>(big_iters));
  // Per-site stats survive the hybrid path: all fallbacks belong to site 2.
  EXPECT_EQ(r.site_stats(1).fallbacks, 0u);
  EXPECT_EQ(r.site_stats(2).fallbacks, static_cast<uint64_t>(big_iters));
}

// A raw RMW inside a hardware attempt would write the word without
// publishing its stripe, so STM readers could miss the write. Hybrid rejects
// it as TinySTM does; RTM keeps raw RMWs, whose line joins the write set.
TEST(Hybrid, RawRmwInsideHardwareAttemptThrows) {
  for (bool use_cas : {true, false}) {
    for (Backend b : {Backend::kHybrid, Backend::kRtm}) {
      TxRuntime rt(make_cfg(b, 1));
      Addr data = rt.heap().host_alloc(8, 64);
      auto run = [&] {
        rt.run([&](TxCtx& ctx) {
          ctx.transaction([&] {
            if (use_cas) {
              ctx.cas(data, 0, 1);
            } else {
              ctx.fetch_add(data, 1);
            }
          });
        });
      };
      if (b == Backend::kHybrid) {
        EXPECT_THROW(run(), std::logic_error) << (use_cas ? "cas" : "fetch_add");
      } else {
        run();
        EXPECT_EQ(rt.machine().peek(data), 1u);
      }
    }
  }
}

TEST(Hybrid, OracleWorkloadsSerializableAndDigestMatchesLock) {
  tsx::check::OracleConfig ocfg;
  ocfg.threads = 4;
  ocfg.loops = 24;
  ocfg.check_history = true;  // includes the STM-fallback seal point
  for (const char* w : {"eigen-inc", "rbtree", "queue"}) {
    auto hybrid = tsx::check::run_workload(w, Backend::kHybrid, ocfg);
    ASSERT_TRUE(hybrid.ok) << w << ": " << hybrid.error;
    auto lock = tsx::check::run_workload(w, Backend::kLock, ocfg);
    ASSERT_TRUE(lock.ok) << w << ": " << lock.error;
    if (hybrid.comparable && lock.comparable) {
      EXPECT_EQ(hybrid.digest, lock.digest) << w;
    }
  }
}

}  // namespace
