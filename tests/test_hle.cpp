// HLE through the runtime (Backend::kHle): one elided attempt with the TAS
// lock word subscribed, then the real acquisition; RunReport::rtm accounts
// both.

#include <gtest/gtest.h>

#include "core/runtime.h"

namespace {

using namespace tsx::core;
using tsx::htm::AbortClass;
using tsx::htm::RtmStats;

RunConfig hle_cfg(uint32_t threads) {
  RunConfig cfg;
  cfg.backend = Backend::kHle;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = false;
  return cfg;
}

// Share of sections that committed speculatively.
double elision_rate(const RtmStats& s) {
  return s.transactions ? static_cast<double>(s.commits) /
                              static_cast<double>(s.transactions)
                        : 0.0;
}

TEST(HleBackend, UncontendedSectionsElide) {
  TxRuntime rt(hle_cfg(1));
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(rt.machine().peek(data), 20u);
  EXPECT_EQ(r.rtm.commits, 20u);
  EXPECT_EQ(r.rtm.fallbacks, 0u);
  EXPECT_DOUBLE_EQ(elision_rate(r.rtm), 1.0);
}

TEST(HleBackend, DisjointSectionsRunConcurrently) {
  // Four threads update four different lines under ONE elided lock: with
  // elision they don't serialize (that's the whole point of HLE).
  TxRuntime rt(hle_cfg(4));
  Addr data = rt.heap().host_alloc(4 * 64, 64);
  rt.run([&](TxCtx& ctx) {
    Addr mine = data + ctx.id() * 64;
    for (int i = 0; i < 50; ++i) {
      ctx.transaction([&] {
        Word v = ctx.load(mine);
        ctx.compute(50);
        ctx.store(mine, v + 1);
      });
    }
  });
  for (CtxId t = 0; t < 4; ++t) {
    EXPECT_EQ(rt.machine().peek(data + t * 64), 50u);
  }
  // Near-perfect elision despite sharing the lock.
  EXPECT_GT(elision_rate(rt.report().rtm), 0.95);
}

TEST(HleBackend, ConflictingSectionsStayAtomic) {
  TxRuntime rt(hle_cfg(4));
  Addr data = rt.heap().host_alloc(8, 64);
  const int iters = 150;
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < iters; ++i) {
      ctx.transaction([&] {
        Word v = ctx.load(data);
        ctx.compute(25);
        ctx.store(data, v + 1);
      });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(rt.machine().peek(data), 4u * iters);
  EXPECT_GT(r.rtm.aborts(), 0u);
  EXPECT_GT(r.rtm.fallbacks, 0u);
}

TEST(HleBackend, CapacityOverflowFallsBackToRealLock) {
  TxRuntime rt(hle_cfg(1));
  const int kLines = 700;  // beyond the 512-line write capacity
  Addr big = rt.heap().host_alloc(kLines * 64, 64);
  rt.run([&](TxCtx& ctx) {
    ctx.transaction([&] {
      for (int i = 0; i < kLines; ++i) {
        ctx.store(big + static_cast<Addr>(i) * 64, 1);
      }
    });
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.commits, 0u);
  EXPECT_EQ(r.rtm.fallbacks, 1u);
  for (int i = 0; i < kLines; ++i) {
    EXPECT_EQ(rt.machine().peek(big + static_cast<Addr>(i) * 64), 1u);
  }
}

// Thread 0 overflows (taking the real lock) four times; thread 1 runs 100
// short elided sections, which abort while thread 0 acquires or holds it.
RunReport run_overflow_against_elided(Word* counter) {
  TxRuntime rt(hle_cfg(2));
  const int kLines = 700;
  Addr big = rt.heap().host_alloc(kLines * 64, 64);
  Addr data = rt.heap().host_alloc(8, 64);
  std::vector<std::function<void(TxCtx&)>> workers;
  workers.emplace_back([&](TxCtx& ctx) {
    for (int r = 0; r < 4; ++r) {
      ctx.transaction([&] {
        Word v = ctx.load(data);
        for (int i = 1; i < kLines; ++i) {
          ctx.store(big + static_cast<Addr>(i) * 64, v);
        }
        ctx.store(data, v + 1);
      });
    }
  });
  workers.emplace_back([&](TxCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.transaction([&] {
        Word v = ctx.load(data);
        ctx.compute(20);
        ctx.store(data, v + 1);
      });
    }
  });
  rt.run(std::move(workers));
  *counter = rt.machine().peek(data);
  return rt.report();
}

TEST(HleBackend, RealAcquisitionAbortsElidedSections) {
  // The elided sections must abort-and-wait during the acquisition, keeping
  // the shared counter exact.
  Word counter = 0;
  run_overflow_against_elided(&counter);
  EXPECT_EQ(counter, 104u);
}

TEST(HleBackend, ReportsAttemptsAndLockAborts) {
  Word counter = 0;
  RunReport r = run_overflow_against_elided(&counter);
  EXPECT_EQ(r.rtm.transactions, 104u);
  EXPECT_EQ(r.rtm.attempts, r.rtm.transactions);  // stock HLE: one attempt
  EXPECT_EQ(r.rtm.commits + r.rtm.fallbacks, r.rtm.transactions);
  EXPECT_GE(r.rtm.fallbacks, 4u);  // every overflowing section
  EXPECT_GT(r.rtm.aborts_by_class[static_cast<size_t>(AbortClass::kLock)],
            0u);
  EXPECT_EQ(r.site_stats(0).attempts, r.rtm.attempts);
}

}  // namespace
