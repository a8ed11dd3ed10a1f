#include <gtest/gtest.h>

#include <algorithm>

#include "sim/machine.h"
#include "stm/tinystm.h"
#include "stm/tl2.h"

namespace {

using namespace tsx::sim;
using namespace tsx::stm;

MachineConfig quiet() {
  MachineConfig cfg;
  cfg.interrupts_enabled = false;
  return cfg;
}

constexpr Addr kStmBase = 0x0001'0000'0000ull;
constexpr Addr kData = 0x2000;

StmConfig small_cfg() {
  StmConfig cfg;
  cfg.lock_table_entries = 1u << 12;  // keep init cheap in tests
  return cfg;
}

// Typed tests over both STM implementations.
template <typename T>
std::unique_ptr<StmSystem> make_stm(Machine& m, const StmConfig& cfg) {
  return std::make_unique<T>(m, kStmBase, cfg);
}

template <typename T>
class StmTest : public ::testing::Test {};

using StmImpls = ::testing::Types<TinyStm, Tl2>;
TYPED_TEST_SUITE(StmTest, StmImpls);

TYPED_TEST(StmTest, ReadYourOwnWrite) {
  Machine m(quiet(), 1);
  m.prefault(kData, 4096);
  auto stm = make_stm<TypeParam>(m, small_cfg());
  stm->init();
  m.set_thread(0, [&] {
    m.poke(kData, 10);
    stm->tx_start(0);
    EXPECT_EQ(stm->tx_read(0, kData), 10u);
    stm->tx_write(0, kData, 20);
    EXPECT_EQ(stm->tx_read(0, kData), 20u);  // redo-log visibility
    // Not yet visible in memory (write-back design).
    EXPECT_EQ(m.peek(kData), 10u);
    stm->tx_commit(0);
    EXPECT_EQ(m.peek(kData), 20u);
  });
  m.run();
  EXPECT_EQ(stm->stats().commits, 1u);
}

TYPED_TEST(StmTest, AbortDiscardsWrites) {
  Machine m(quiet(), 1);
  m.prefault(kData, 4096);
  auto stm = make_stm<TypeParam>(m, small_cfg());
  stm->init();
  m.set_thread(0, [&] {
    m.poke(kData, 1);
    stm->tx_start(0);
    stm->tx_write(0, kData, 99);
    stm->tx_abort_cleanup(0);
    EXPECT_EQ(m.peek(kData), 1u);
    EXPECT_FALSE(stm->tx_active(0));
    // Locks released: a new transaction can write the same word.
    stm->tx_start(0);
    stm->tx_write(0, kData, 5);
    stm->tx_commit(0);
    EXPECT_EQ(m.peek(kData), 5u);
  });
  m.run();
}

TYPED_TEST(StmTest, ExecutorCountsCorrectlyUnderContention) {
  Machine m(quiet(), 4);
  m.prefault(kData, 4096);
  StmConfig cfg = small_cfg();
  Machine* mp = &m;
  auto stm = make_stm<TypeParam>(m, cfg);
  stm->init();
  StmExecutor exec(m, *stm);
  const int iters = 250;
  for (CtxId t = 0; t < 4; ++t) {
    m.set_thread(t, [&, t] {
      for (int i = 0; i < iters; ++i) {
        exec.execute([&] {
          Word v = stm->tx_read(t, kData);
          mp->compute(25);
          stm->tx_write(t, kData, v + 1);
        });
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek(kData), 4u * iters);
  EXPECT_EQ(stm->stats().commits, 4u * iters);
  EXPECT_GT(stm->stats().aborts(), 0u);
}

TYPED_TEST(StmTest, IsolationNoDirtyReads) {
  // Thread 0 writes two words in a tx with a pause in between; thread 1
  // reads both in its own txs — it must never observe a torn pair.
  Machine m(quiet(), 2);
  m.prefault(kData, 4096);
  StmConfig cfg = small_cfg();
  auto stm = make_stm<TypeParam>(m, cfg);
  stm->init();
  StmExecutor exec(m, *stm);
  bool torn = false;
  m.set_thread(0, [&] {
    for (int i = 1; i <= 50; ++i) {
      exec.execute([&] {
        stm->tx_write(0, kData, static_cast<Word>(i));
        m.compute(200);
        stm->tx_write(0, kData + 8, static_cast<Word>(i));
      });
    }
  });
  m.set_thread(1, [&] {
    for (int i = 0; i < 100; ++i) {
      Word a = 0, b = 0;
      exec.execute([&] {
        a = stm->tx_read(1, kData);
        m.compute(100);
        b = stm->tx_read(1, kData + 8);
      });
      if (a != b) torn = true;
    }
  });
  m.run();
  EXPECT_FALSE(torn);
}

TYPED_TEST(StmTest, FalseConflictsViaStripeAliasing) {
  // Two addresses exactly lock_table_entries*8 words apart share a stripe.
  Machine m(quiet(), 1);
  StmConfig cfg = small_cfg();
  auto stm = make_stm<TypeParam>(m, cfg);
  stm->init();
  Addr a1 = kData;
  Addr a2 = kData + (static_cast<Addr>(cfg.lock_table_entries)
                     << LockTable::kStripeShift);
  m.prefault(a1, 4096);
  m.prefault(a2, 4096);
  m.set_thread(0, [&] {
    stm->tx_start(0);
    stm->tx_write(0, a1, 7);
    // Same stripe, different address: owned by us, must not self-abort.
    stm->tx_write(0, a2, 8);
    EXPECT_EQ(stm->tx_read(0, a2), 8u);
    stm->tx_commit(0);
  });
  m.run();
  EXPECT_EQ(m.peek(a1), 7u);
  EXPECT_EQ(m.peek(a2), 8u);
}

TEST(TinyStm, TimestampExtensionHappens) {
  Machine m(quiet(), 2);
  m.prefault(kData, 4096);
  StmConfig cfg = small_cfg();
  TinyStm stm(m, kStmBase, cfg);
  stm.init();
  StmExecutor exec(m, stm);
  // Thread 1 commits writes to an unrelated word, advancing the clock;
  // thread 0 then reads a word whose version is newer than its snapshot.
  m.set_thread(0, [&] {
    exec.execute([&] {
      (void)stm.tx_read(0, kData);  // snapshot rv = 0-ish
      m.compute(4000);              // let thread 1 commit meanwhile
      (void)stm.tx_read(0, kData + 512);
    });
  });
  m.set_thread(1, [&] {
    m.compute(300);
    for (int i = 0; i < 4; ++i) {
      exec.execute([&] {
        Word v = stm.tx_read(1, kData + 512);
        stm.tx_write(1, kData + 512, v + 1);
      });
    }
  });
  m.run();
  EXPECT_GT(stm.stats().extensions + stm.stats().aborts(), 0u);
}

TEST(TinyStm, WriteAfterReadDetectsInterveningCommit) {
  // T0 reads X; T1 commits X+1; T0 then writes X -> must abort/extend, and
  // the final value must reflect both increments.
  Machine m(quiet(), 2);
  m.prefault(kData, 4096);
  StmConfig cfg = small_cfg();
  TinyStm stm(m, kStmBase, cfg);
  stm.init();
  StmExecutor exec(m, stm);
  m.set_thread(0, [&] {
    exec.execute([&] {
      Word v = stm.tx_read(0, kData);
      m.compute(3000);  // T1 commits in this window
      stm.tx_write(0, kData, v + 1);
    });
  });
  m.set_thread(1, [&] {
    m.compute(200);
    exec.execute([&] {
      Word v = stm.tx_read(1, kData);
      stm.tx_write(1, kData, v + 1);
    });
  });
  m.run();
  EXPECT_EQ(m.peek(kData), 2u);
}

TEST(Tl2, CommitTimeLockingLeavesStripesCleanOnAbort) {
  Machine m(quiet(), 1);
  m.prefault(kData, 4096);
  StmConfig cfg = small_cfg();
  Tl2 stm(m, kStmBase, cfg);
  stm.init();
  m.set_thread(0, [&] {
    stm.tx_start(0);
    stm.tx_write(0, kData, 42);
    stm.tx_abort_cleanup(0);  // nothing was locked yet (commit-time locking)
    stm.tx_start(0);
    stm.tx_write(0, kData, 43);
    stm.tx_commit(0);
  });
  m.run();
  EXPECT_EQ(m.peek(kData), 43u);
}

TEST(StmExecutor, BackoffDrawsTinyStmExponentialWindow) {
  // TinySTM's suicide backoff: 120 cycles plus one draw below a window that
  // doubles per failed attempt and stops growing after 2^10.
  tsx::sim::Rng rng(77), ref(77);
  for (uint32_t attempt = 1; attempt <= 16; ++attempt) {
    uint64_t window = uint64_t{120} << std::min(attempt, 10u);
    uint64_t expect = 120 + ref.below(window | 1);
    EXPECT_EQ(StmExecutor::backoff_cycles(attempt, rng), expect);
  }
  // Exactly one draw per call.
  EXPECT_EQ(rng.next(), ref.next());
}

TEST(StmStats, AbortCauseNames) {
  EXPECT_STREQ(stm_abort_cause_name(StmAbortCause::kReadLocked), "read-locked");
  EXPECT_STREQ(stm_abort_cause_name(StmAbortCause::kValidation), "validation");
}

}  // namespace
