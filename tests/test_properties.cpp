// Property-based tests over randomized workloads: atomicity (counts
// conserved), isolation (paired-cell invariant never observed broken),
// snapshot consistency, and determinism of the whole stack. Parameterized
// over backend x threads x seed.

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "sim/rng.h"

namespace {

using namespace tsx;
using core::Backend;
using sim::Addr;
using sim::Word;

core::RunConfig cfg_for(Backend b, uint32_t threads, uint64_t seed,
                        bool interrupts = false) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.machine.seed = seed;
  cfg.machine.interrupts_enabled = interrupts;
  cfg.stm.lock_table_entries = 1u << 14;
  return cfg;
}

using Param = std::tuple<Backend, uint32_t, uint64_t>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::string(core::backend_name(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param)) + "t_s" +
         std::to_string(std::get<2>(info.param));
}

class RandomWorkload : public ::testing::TestWithParam<Param> {};

TEST_P(RandomWorkload, IncrementsConservedAndPairsNeverTorn) {
  auto [backend, threads, seed] = GetParam();
  core::TxRuntime rt(cfg_for(backend, threads, seed));
  constexpr uint32_t kCells = 64;  // pairs: cell i and i + kCells stay equal
  Addr base = rt.heap().host_alloc(2 * kCells * 8, 64);

  std::vector<uint64_t> increments(threads, 0);
  std::vector<bool> torn(threads, false);

  rt.run([&](core::TxCtx& ctx) {
    sim::Rng& rng = ctx.rng();
    for (int i = 0; i < 150; ++i) {
      uint64_t c = rng.below(kCells);
      uint64_t mode = rng.below(3);
      bool did_inc = false;
      ctx.transaction([&] {
        did_inc = false;
        Addr a = base + c * 8;
        Addr b = base + (kCells + c) * 8;
        Word va = ctx.load(a);
        if (mode == 2) ctx.compute(60);  // widen the window
        Word vb = ctx.load(b);
        if (va != vb) {
          torn[ctx.id()] = true;  // isolation broken
          return;
        }
        if (mode != 1) {
          ctx.store(a, va + 1);
          ctx.store(b, vb + 1);
          did_inc = true;
        }
      });
      if (did_inc) ++increments[ctx.id()];
    }
  });

  for (uint32_t t = 0; t < threads; ++t) {
    EXPECT_FALSE(torn[t]) << "thread " << t << " observed a torn pair";
  }
  uint64_t total = 0;
  for (uint64_t i : increments) total += i;
  uint64_t sum_a = 0, sum_b = 0;
  for (uint32_t c = 0; c < kCells; ++c) {
    sum_a += rt.machine().peek(base + c * 8);
    sum_b += rt.machine().peek(base + (kCells + c) * 8);
  }
  EXPECT_EQ(sum_a, total);
  EXPECT_EQ(sum_b, total);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RandomWorkload,
    ::testing::Combine(::testing::Values(Backend::kLock, Backend::kRtm,
                                         Backend::kTinyStm, Backend::kTl2),
                       ::testing::Values(2u, 4u, 8u),
                       ::testing::Values(11u, 22u, 33u)),
    param_name);

// The same property must hold with interrupts enabled (asynchronous aborts
// mid-transaction) and with the mutual-kill conflict policy.
class HostileWorkload : public ::testing::TestWithParam<Backend> {};

TEST_P(HostileWorkload, ConservationUnderInterruptsAndMutualKill) {
  core::RunConfig cfg = cfg_for(GetParam(), 4, 77, /*interrupts=*/true);
  cfg.machine.interrupt_mean_cycles = 30'000;  // hostile interrupt rate
  cfg.machine.mutual_kill_conflicts = true;
  core::TxRuntime rt(cfg);
  Addr counter = rt.heap().host_alloc(8, 64);
  rt.run([&](core::TxCtx& ctx) {
    for (int i = 0; i < 150; ++i) {
      ctx.transaction([&] {
        Word v = ctx.load(counter);
        ctx.compute(100);
        ctx.store(counter, v + 1);
      });
    }
  });
  EXPECT_EQ(rt.machine().peek(counter), 600u);
}

INSTANTIATE_TEST_SUITE_P(Backends, HostileWorkload,
                         ::testing::Values(Backend::kRtm, Backend::kTinyStm,
                                           Backend::kTl2),
                         [](const auto& suite_info) {
                           return core::backend_name(suite_info.param);
                         });

TEST(Determinism, FullStackBitIdenticalAcrossRuns) {
  auto run_once = [] {
    core::TxRuntime rt(cfg_for(Backend::kRtm, 4, 123, /*interrupts=*/true));
    Addr data = rt.heap().host_alloc(4096, 64);
    rt.run([&](core::TxCtx& ctx) {
      sim::Rng& rng = ctx.rng();
      for (int i = 0; i < 200; ++i) {
        uint64_t c = rng.below(512);
        ctx.transaction([&] {
          Word v = ctx.load(data + c * 8);
          ctx.store(data + c * 8, v * 3 + 1);
        });
      }
    });
    auto r = rt.report();
    uint64_t checksum = 0;
    for (int c = 0; c < 512; ++c) checksum ^= rt.machine().peek(data + c * 8) * (c + 1);
    return std::tuple(r.wall_cycles, r.rtm.attempts, r.rtm.aborts(), checksum,
                      r.machine.interrupts);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, SeedChangesOutcome) {
  auto run_with = [](uint64_t seed) {
    core::TxRuntime rt(cfg_for(Backend::kRtm, 4, seed, true));
    Addr data = rt.heap().host_alloc(4096, 64);
    rt.run([&](core::TxCtx& ctx) {
      sim::Rng& rng = ctx.rng();
      for (int i = 0; i < 100; ++i) {
        uint64_t c = rng.below(512);
        ctx.transaction([&] {
          ctx.store(data + c * 8, ctx.load(data + c * 8) + 1);
        });
      }
    });
    return rt.report().wall_cycles;
  };
  EXPECT_NE(run_with(1), run_with(2));
}

TEST(EnergyModel, ComponentsAddUp) {
  sim::EnergyParams p;
  sim::EnergyModel em(p, 3.4);
  auto e = em.compute(1000, 800, 100, 50, 10, 5, 3, 1e6, 2'000'000);
  EXPECT_GT(e.dynamic_j, 0);
  EXPECT_GT(e.core_active_j, 0);
  EXPECT_GT(e.package_idle_j, 0);
  EXPECT_NEAR(e.total_j(), e.dynamic_j + e.core_active_j + e.package_idle_j,
              1e-12);
  // Idle power: 14 W for 2e6 cycles at 3.4 GHz.
  EXPECT_NEAR(e.package_idle_j, 14.0 * 2e6 / 3.4e9, 1e-9);
  EXPECT_NEAR(em.seconds(3'400'000'000ull), 1.0, 1e-9);
}

TEST(EnergyModel, AbortedWorkCostsEnergy) {
  // Same committed work, one run with forced extra aborted attempts: the
  // aborting run must burn more energy.
  auto run_with_aborts = [](bool force_aborts) {
    core::RunConfig cfg = cfg_for(Backend::kRtm, 2, 5);
    cfg.retry.max_attempts = 4;
    core::TxRuntime rt(cfg);
    Addr data = rt.heap().host_alloc(8, 64);
    rt.run([&](core::TxCtx& ctx) {
      for (int i = 0; i < 100; ++i) {
        int attempt = 0;
        ctx.transaction([&] {
          Word v = ctx.load(data);
          ctx.compute(200);
          ctx.store(data, v + 1);
          if (force_aborts && ++attempt <= 2 && !ctx.in_rtm_fallback()) {
            ctx.runtime().machine().tx_abort(0x9);
          }
        });
      }
    });
    return rt.report().joules();
  };
  EXPECT_GT(run_with_aborts(true), run_with_aborts(false));
}

}  // namespace
