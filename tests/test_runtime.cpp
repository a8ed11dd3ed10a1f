#include <gtest/gtest.h>

#include "core/runtime.h"

namespace {

using namespace tsx::core;
using tsx::sim::Addr;
using tsx::sim::Word;

RunConfig make_cfg(Backend b, uint32_t threads, bool interrupts = false) {
  RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = interrupts;
  cfg.stm.lock_table_entries = 1u << 14;  // fast init in tests
  return cfg;
}

// The canonical atomicity workload: every backend must produce an exact
// shared counter.
class BackendCounter : public ::testing::TestWithParam<std::tuple<Backend, uint32_t>> {};

TEST_P(BackendCounter, SharedCounterIsExact) {
  auto [backend, threads] = GetParam();
  RunConfig cfg = make_cfg(backend, threads);
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
  EXPECT_EQ(rt.machine().peek(counter), static_cast<Word>(threads) * iters);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendCounter,
    ::testing::Combine(::testing::Values(Backend::kLock, Backend::kRtm,
                                         Backend::kTinyStm, Backend::kTl2,
                                         Backend::kHybrid),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& suite_info) {
      return std::string(backend_name(std::get<0>(suite_info.param))) + "_" +
             std::to_string(std::get<1>(suite_info.param)) + "t";
    });

TEST(TxRuntime, SeqBackendRunsWithoutSynchronization) {
  RunConfig cfg = make_cfg(Backend::kSeq, 1);
  TxRuntime rt(cfg);
  Addr counter = rt.heap().host_alloc(8);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.transaction([&] { ctx.store(counter, ctx.load(counter) + 1); });
    }
  });
  EXPECT_EQ(rt.machine().peek(counter), 100u);
}

// An STM runtime prefaults its 8 MiB lock table and its log rings (2,562
// pages at the default config). They materialize on first touch, so
// construction allocates at most 2 pages.
TEST(TxRuntime, StmConstructionMaterializesAtMostTwoPages) {
  for (Backend b : {Backend::kTinyStm, Backend::kTl2, Backend::kHybrid}) {
    RunConfig cfg;
    cfg.backend = b;
    cfg.threads = 4;
    TxRuntime rt(cfg);
    EXPECT_LE(rt.machine().memory().backing().pages_allocated(), 2u)
        << backend_name(b);
  }
}

TEST(TxRuntime, ReportMeasuresWindowOnly) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(4096, 64);
  rt.run([&](TxCtx& ctx) {
    // Expensive setup phase.
    for (int i = 0; i < 100; ++i) ctx.compute(1000);
    ctx.barrier();
    if (ctx.id() == 0) ctx.runtime().mark_measurement_start();
    ctx.barrier();
    for (int i = 0; i < 10; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  // The measured window excludes the 100k-cycle setup.
  EXPECT_LT(r.wall_cycles, 60'000u);
  EXPECT_GT(r.wall_cycles, 0u);
  EXPECT_GT(r.joules(), 0.0);
}

TEST(TxRuntime, RtmReportCountsTransactions) {
  RunConfig cfg = make_cfg(Backend::kRtm, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.transactions, 100u);
  EXPECT_EQ(r.rtm.commits + r.rtm.fallbacks, 100u);
}

TEST(TxRuntime, StmReportCountsTransactions) {
  RunConfig cfg = make_cfg(Backend::kTinyStm, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.stm.transactions, 100u);
  EXPECT_EQ(r.stm.commits, 100u);
}

TEST(TxRuntime, NestedTransactionsFlatten) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    ctx.transaction([&] {
      ctx.store(data, 1);
      ctx.transaction([&] { ctx.store(data + 8, 2); });
    });
  });
  EXPECT_EQ(rt.machine().peek(data), 1u);
  EXPECT_EQ(rt.machine().peek(data + 8), 2u);
  EXPECT_EQ(rt.report().rtm.transactions, 1u);
}

TEST(TxRuntime, MallocInsideAbortedRtmTxIsReclaimed) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  cfg.retry.max_attempts = 1;
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  uint64_t allocs_live_before = 0;
  rt.run([&](TxCtx& ctx) {
    allocs_live_before = ctx.runtime().heap().stats().bytes_live;
    ctx.transaction([&] {
      Addr p = ctx.malloc(64);
      ctx.store(data, p);
      if (!ctx.in_rtm_fallback()) {
        // Force an abort on the speculative path only.
        ctx.runtime().machine().tx_abort(0x1);
      }
    });
  });
  // Exactly one allocation (from the fallback execution) survives.
  EXPECT_EQ(rt.heap().stats().bytes_live, allocs_live_before + 64);
}

TEST(TxRuntime, HeterogeneousWorkers) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(16, 64);
  std::vector<std::function<void(TxCtx&)>> workers;
  workers.push_back([&](TxCtx& ctx) { ctx.store(data, 11); });
  workers.push_back([&](TxCtx& ctx) { ctx.store(data + 8, 22); });
  rt.run(std::move(workers));
  EXPECT_EQ(rt.machine().peek(data), 11u);
  EXPECT_EQ(rt.machine().peek(data + 8), 22u);
}

TEST(TxRuntime, WorkerCountMismatchThrows) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  std::vector<std::function<void(TxCtx&)>> workers(1, [](TxCtx&) {});
  EXPECT_THROW(rt.run(std::move(workers)), std::invalid_argument);
}

TEST(TxRuntime, CasInsideStmTxRejected) {
  RunConfig cfg = make_cfg(Backend::kTinyStm, 1);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  EXPECT_THROW(
      rt.run([&](TxCtx& ctx) {
        ctx.transaction([&] {
          ctx.store(data, 1);  // makes the STM tx active
          ctx.cas(data, 1, 2);
        });
      }),
      std::logic_error);
}

TEST(TxRuntime, EnergySequentialVsParallel) {
  // A perfectly parallel workload: 4 threads must be faster and, with the
  // race-to-idle static-power term, spend less total energy than 1 thread
  // doing 4x the work.
  auto run_with = [](uint32_t threads, int iters_per_thread) {
    RunConfig cfg = make_cfg(Backend::kSeq, threads);
    TxRuntime rt(cfg);
    std::vector<Addr> regions;
    for (uint32_t t = 0; t < threads; ++t) {
      regions.push_back(rt.heap().host_alloc(64 * 1024, 64));
    }
    rt.run([&](TxCtx& ctx) {
      Addr base = regions[ctx.id()];
      for (int i = 0; i < iters_per_thread; ++i) {
        Addr a = base + (i % 8192) * 8;
        ctx.store(a, ctx.load(a) + 1);
        ctx.compute(20);
      }
    });
    return rt.report();
  };
  RunReport seq = run_with(1, 4000);
  RunReport par = run_with(4, 1000);
  EXPECT_LT(par.wall_cycles, seq.wall_cycles);
  EXPECT_LT(par.joules(), seq.joules());
}

}  // namespace
