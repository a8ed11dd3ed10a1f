#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.h"
#include "sim/machine.h"

namespace {

using namespace tsx::sim;

MachineConfig quiet() {
  MachineConfig cfg;
  cfg.interrupts_enabled = false;
  return cfg;
}

TEST(Machine, SingleThreadLoadStore) {
  Machine m(quiet(), 1);
  m.prefault(0x1000, 4096);
  m.set_thread(0, [&] {
    m.store(0x1000, 7);
    EXPECT_EQ(m.load(0x1000), 7u);
    EXPECT_EQ(m.load(0x1008), 0u);
  });
  m.run();
  EXPECT_EQ(m.peek(0x1000), 7u);
  EXPECT_GT(m.wall(), 0u);
}

TEST(Machine, OpsOutsideFiberThrow) {
  Machine m(quiet(), 1);
  EXPECT_THROW(m.load(0x1000), std::logic_error);
  EXPECT_THROW(m.compute(10), std::logic_error);
}

TEST(Machine, DeterministicInterleaving) {
  auto run_once = [] {
    Machine m(quiet(), 4);
    m.prefault(0x1000, 4096);
    for (CtxId t = 0; t < 4; ++t) {
      m.set_thread(t, [&m, t] {
        for (int i = 0; i < 100; ++i) {
          Word v = m.load(0x1000);
          m.compute(t * 3 + 1);
          m.store(0x1000, v + 1);
        }
      });
    }
    m.run();
    return std::pair(m.peek(0x1000), m.wall());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);  // identical final value AND identical timing
}

TEST(Machine, PageFaultCostOncePerPage) {
  Machine m(quiet(), 1);
  Cycles first = 0, second = 0;
  m.set_thread(0, [&] {
    Cycles t0 = m.now();
    m.load(0x5000);
    first = m.now() - t0;
    t0 = m.now();
    m.load(0x5008);
    second = m.now() - t0;
  });
  m.run();
  MachineConfig cfg = quiet();
  EXPECT_GE(first, cfg.page_fault_cycles);
  EXPECT_LT(second, cfg.page_fault_cycles);
  EXPECT_EQ(m.stats().mem.page_faults, 1u);
}

// An untouched prefaulted word reads 0 without a fault; the first access
// materializes its page, on the fast path and on the general path alike.
TEST(Machine, PrefaultedPageMaterializesOnFirstAccess) {
  for (bool general_only : {false, true}) {
    Machine m(quiet(), 1);
    if (general_only) {
      TraceHooks hooks;
      hooks.on_access = [](CtxId, Addr, Word, Word, bool, bool) {};
      m.set_trace_hooks(std::move(hooks));
    }
    const Addr base = 0x100000;
    m.prefault(base, 64 * kPageBytes);
    const BackingStore& bs = m.memory().backing();
    EXPECT_EQ(bs.pages_allocated(), 0u);
    m.set_thread(0, [&] {
      EXPECT_EQ(m.load(base + 5 * kPageBytes), 0u);
      EXPECT_EQ(bs.pages_allocated(), 1u);
      m.store(base + 9 * kPageBytes + 8, 42);
      EXPECT_EQ(m.load(base + 9 * kPageBytes + 8), 42u);
      EXPECT_EQ(bs.pages_allocated(), 2u);
    });
    m.run();
    EXPECT_EQ(m.stats().mem.page_faults, 0u) << general_only;
    EXPECT_EQ(m.peek(base + 9 * kPageBytes + 8), 42u);
  }
}

TEST(Machine, TxCommitMakesWritesDurable) {
  Machine m(quiet(), 1);
  m.prefault(0x1000, 4096);
  m.set_thread(0, [&] {
    m.tx_begin();
    m.store(0x1000, 99);
    EXPECT_TRUE(m.in_tx());
    m.tx_commit();
    EXPECT_FALSE(m.in_tx());
  });
  m.run();
  EXPECT_EQ(m.peek(0x1000), 99u);
  EXPECT_EQ(m.stats().tx.committed, 1u);
  EXPECT_EQ(m.stats().tx.started, 1u);
}

TEST(Machine, ExplicitAbortRollsBack) {
  Machine m(quiet(), 1);
  m.prefault(0x1000, 4096);
  m.set_thread(0, [&] {
    m.poke(0x1000, 5);
    try {
      m.tx_begin();
      m.store(0x1000, 123);
      m.tx_abort(0x42);
      FAIL() << "tx_abort must throw";
    } catch (const TxAborted& a) {
      EXPECT_EQ(a.reason, AbortReason::kExplicit);
      EXPECT_TRUE(a.status & xstatus::kExplicit);
      EXPECT_EQ(xstatus::unpack_code(a.status), 0x42);
    }
    EXPECT_FALSE(m.in_tx());
  });
  m.run();
  EXPECT_EQ(m.peek(0x1000), 5u);  // speculative store undone
  EXPECT_EQ(m.stats().tx.aborts_by_reason[size_t(AbortReason::kExplicit)], 1u);
}

TEST(Machine, ConflictAbortsOtherTx) {
  Machine m(quiet(), 2);
  m.prefault(0x1000, 4096);
  bool aborted = false;
  m.set_thread(0, [&] {
    try {
      m.tx_begin();
      m.load(0x1000);
      // Spin long enough for thread 1's write to land.
      for (int i = 0; i < 100; ++i) m.compute(100);
      m.tx_commit();
    } catch (const TxAborted& a) {
      aborted = true;
      EXPECT_EQ(a.reason, AbortReason::kConflict);
      EXPECT_TRUE(a.status & xstatus::kConflict);
      EXPECT_EQ(a.conflict_line, line_of(0x1000));
    }
  });
  m.set_thread(1, [&] {
    m.compute(500);
    m.store(0x1000, 1);
  });
  m.run();
  EXPECT_TRUE(aborted);
}

TEST(Machine, WriteCapacityAbort) {
  Machine m(quiet(), 1);
  m.prefault(0x100000, 16 * 1024 * 1024);
  bool aborted = false;
  m.set_thread(0, [&] {
    try {
      m.tx_begin();
      // 600 distinct lines written: beyond the 512-line L1.
      for (int i = 0; i < 600; ++i) {
        m.store(0x100000 + static_cast<Addr>(i) * 64, 1);
      }
      m.tx_commit();
    } catch (const TxAborted& a) {
      aborted = true;
      EXPECT_EQ(a.reason, AbortReason::kWriteCapacity);
      EXPECT_TRUE(a.status & xstatus::kCapacity);
    }
  });
  m.run();
  EXPECT_TRUE(aborted);
  // Everything rolled back.
  for (int i = 0; i < 600; ++i) {
    EXPECT_EQ(m.peek(0x100000 + static_cast<Addr>(i) * 64), 0u);
  }
}

TEST(Machine, PageFaultInsideTxAbortsAndDoesNotService) {
  Machine m(quiet(), 1);
  bool aborted = false;
  m.set_thread(0, [&] {
    try {
      m.tx_begin();
      m.load(0x9000);  // absent page
      m.tx_commit();
    } catch (const TxAborted& a) {
      aborted = true;
      EXPECT_EQ(a.reason, AbortReason::kPageFault);
    }
    // Outside the tx the fault services normally.
    m.load(0x9000);
  });
  m.run();
  EXPECT_TRUE(aborted);
  EXPECT_EQ(m.stats().mem.page_faults, 1u);  // only the non-tx access
}

TEST(Machine, InterruptsAbortLongTransactions) {
  MachineConfig cfg;
  cfg.interrupt_mean_cycles = 50'000;  // frequent for the test
  Machine m(cfg, 1);
  m.prefault(0x1000, 4096);
  int aborts = 0, commits = 0;
  m.set_thread(0, [&] {
    for (int t = 0; t < 50; ++t) {
      try {
        m.tx_begin();
        for (int i = 0; i < 100; ++i) m.compute(1000);  // ~100K cycles
        m.tx_commit();
        ++commits;
      } catch (const TxAborted& a) {
        EXPECT_EQ(a.reason, AbortReason::kInterrupt);
        ++aborts;
      }
    }
  });
  m.run();
  EXPECT_GT(aborts, 10);  // ~87% abort probability per tx
}

TEST(Machine, UnsupportedInsnAbortsTx) {
  Machine m(quiet(), 1);
  bool aborted = false;
  m.set_thread(0, [&] {
    try {
      m.tx_begin();
      m.tx_unsupported_insn();
      m.tx_commit();
    } catch (const TxAborted& a) {
      aborted = true;
      EXPECT_EQ(a.reason, AbortReason::kUnsupportedInsn);
    }
    m.tx_unsupported_insn();  // no-op outside tx
  });
  m.run();
  EXPECT_TRUE(aborted);
}

TEST(Machine, NestedTxFlattens) {
  Machine m(quiet(), 1);
  m.prefault(0x1000, 4096);
  m.set_thread(0, [&] {
    m.tx_begin();
    m.tx_begin();
    m.store(0x1000, 1);
    m.tx_commit();
    EXPECT_TRUE(m.in_tx());  // still inside the outer tx
    m.tx_commit();
    EXPECT_FALSE(m.in_tx());
  });
  m.run();
  EXPECT_EQ(m.stats().tx.started, 1u);
  EXPECT_EQ(m.stats().tx.committed, 1u);
}

TEST(Machine, BarrierSynchronizesClocks) {
  Machine m(quiet(), 2);
  Cycles after0 = 0, after1 = 0;
  m.set_thread(0, [&] {
    m.compute(10'000);
    m.barrier();
    after0 = m.now();
  });
  m.set_thread(1, [&] {
    m.compute(10);
    m.barrier();
    after1 = m.now();
  });
  m.run();
  EXPECT_EQ(after0, after1);
  EXPECT_GE(after0, 10'000u);
}

TEST(Machine, CasSucceedsAndFails) {
  Machine m(quiet(), 1);
  m.prefault(0x1000, 4096);
  m.set_thread(0, [&] {
    m.store(0x1000, 5);
    EXPECT_TRUE(m.cas(0x1000, 5, 6));
    EXPECT_FALSE(m.cas(0x1000, 5, 7));
    EXPECT_EQ(m.load(0x1000), 6u);
    EXPECT_EQ(m.fetch_add(0x1000, 10), 6u);
    EXPECT_EQ(m.load(0x1000), 16u);
  });
  m.run();
}

TEST(Machine, WorkloadExceptionPropagatesFromRun) {
  Machine m(quiet(), 1);
  m.set_thread(0, [] { throw std::runtime_error("workload bug"); });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, CommitOutsideTxThrows) {
  Machine m(quiet(), 1);
  m.set_thread(0, [&] { EXPECT_THROW(m.tx_commit(), std::logic_error); });
  m.run();
}

TEST(Machine, SmtSlowsComputePerCore) {
  // 8 threads on 4 cores: compute is scaled by smt_slowdown.
  MachineConfig cfg = quiet();
  Machine m4(cfg, 4), m8(cfg, 8);
  Cycles t4 = 0, t8 = 0;
  for (CtxId t = 0; t < 4; ++t) {
    m4.set_thread(t, [&m4, &t4] {
      m4.compute(10'000);
      t4 = std::max(t4, m4.now());
    });
  }
  for (CtxId t = 0; t < 8; ++t) {
    m8.set_thread(t, [&m8, &t8] {
      m8.compute(10'000);
      t8 = std::max(t8, m8.now());
    });
  }
  m4.run();
  m8.run();
  EXPECT_GT(t8, t4);
  EXPECT_NEAR(static_cast<double>(t8) / static_cast<double>(t4),
              cfg.smt_slowdown, 0.05);
}

// The fast/general-path equivalence contract (DESIGN.md §10): with a no-op
// access hook installed, which sends every op down the general path, an
// identical workload must produce identical stats, clocks, and memory — op
// for op.
struct EquivResult {
  MachineStats stats;
  Cycles wall = 0;
  std::vector<Cycles> finish;
  std::vector<Word> values;
};

EquivResult run_equiv_workload(bool general_only, bool interrupts) {
  MachineConfig cfg;
  cfg.interrupts_enabled = interrupts;
  cfg.interrupt_mean_cycles = 20'000;  // several per run at this length
  constexpr uint32_t kThreads = 4;
  Machine m(cfg, kThreads);
  if (general_only) {
    TraceHooks hooks;
    hooks.on_access = [](CtxId, Addr, Word, Word, bool, bool) {};
    m.set_trace_hooks(std::move(hooks));
  }
  m.prefault(0x1000, 4096);
  // 0x900000 left unfaulted: the first touches exercise the page-fault path.
  for (CtxId t = 0; t < kThreads; ++t) {
    m.set_thread(t, [&m, t] {
      Addr priv = 0x1000 + t * 512;
      Addr shared = 0x1000;
      Addr cold = 0x900000 + t * 8192;
      for (int i = 0; i < 400; ++i) {
        m.store(priv, m.load(priv) + 1);
        m.compute(5);
        if (i % 7 == 0) m.fetch_add(shared, 1);
        if (i % 11 == 0) m.cas(priv + 8, m.load(priv + 8), i);
        if (i % 31 == 0) m.load(cold + i * 8);
        if (i % 13 == 0) {
          try {
            m.tx_begin();
            m.store(priv + 16, m.load(priv + 16) + 1);
            m.load(shared + 64 + (t % 2) * 64);
            m.tx_commit();
          } catch (const TxAborted&) {
            // aborted attempts count too; no retry needed for equivalence
          }
        }
        if (i == 200) m.barrier();
      }
    });
  }
  m.run();
  EquivResult r;
  r.stats = m.snapshot();
  r.wall = m.wall();
  for (CtxId t = 0; t < kThreads; ++t) {
    r.finish.push_back(m.ctx_finish(t));
    r.values.push_back(m.peek(0x1000 + t * 512));
    r.values.push_back(m.peek(0x1000 + t * 512 + 16));
  }
  r.values.push_back(m.peek(0x1000));
  return r;
}

void expect_equiv(const EquivResult& fast, const EquivResult& slow) {
  EXPECT_EQ(fast.stats.ops, slow.stats.ops);
  EXPECT_EQ(fast.stats.interrupts, slow.stats.interrupts);
  EXPECT_EQ(fast.stats.mem.loads, slow.stats.mem.loads);
  EXPECT_EQ(fast.stats.mem.stores, slow.stats.mem.stores);
  EXPECT_EQ(fast.stats.mem.l1_hits, slow.stats.mem.l1_hits);
  EXPECT_EQ(fast.stats.mem.l2_hits, slow.stats.mem.l2_hits);
  EXPECT_EQ(fast.stats.mem.l3_hits, slow.stats.mem.l3_hits);
  EXPECT_EQ(fast.stats.mem.mem_accesses, slow.stats.mem.mem_accesses);
  EXPECT_EQ(fast.stats.mem.c2c_transfers, slow.stats.mem.c2c_transfers);
  EXPECT_EQ(fast.stats.mem.invalidations, slow.stats.mem.invalidations);
  EXPECT_EQ(fast.stats.mem.writebacks, slow.stats.mem.writebacks);
  EXPECT_EQ(fast.stats.mem.page_faults, slow.stats.mem.page_faults);
  EXPECT_EQ(fast.stats.tx.started, slow.stats.tx.started);
  EXPECT_EQ(fast.stats.tx.committed, slow.stats.tx.committed);
  EXPECT_EQ(fast.stats.tx.aborts_by_reason, slow.stats.tx.aborts_by_reason);
  EXPECT_EQ(fast.wall, slow.wall);
  EXPECT_EQ(fast.finish, slow.finish);
  EXPECT_EQ(fast.values, slow.values);
}

TEST(Machine, FastPathEquivalenceQuiet) {
  expect_equiv(run_equiv_workload(/*general_only=*/false, /*interrupts=*/false),
               run_equiv_workload(/*general_only=*/true, /*interrupts=*/false));
}

TEST(Machine, FastPathEquivalenceWithInterrupts) {
  expect_equiv(run_equiv_workload(/*general_only=*/false, /*interrupts=*/true),
               run_equiv_workload(/*general_only=*/true, /*interrupts=*/true));
}

// The schedule pin: under every combination of the scheduler knobs, a small
// 4-thread workload must interleave exactly as the reference scheduler did.
// The hash covers every access (with the acting context's clock), every
// abort and each context's finish clock, so any change to who runs next, or
// when a context yields, changes it. The expected values were generated by
// the scheduler that resumed every fiber from run() and scanned all contexts
// at each yield point.
uint64_t schedule_hash(Cycles jitter, uint32_t quantum, bool interrupts) {
  MachineConfig cfg;
  cfg.sched_jitter_window = jitter;
  cfg.sched_quantum_ops = quantum;
  cfg.interrupts_enabled = interrupts;
  cfg.interrupt_mean_cycles = 20'000;
  constexpr uint32_t kThreads = 4;
  Machine m(cfg, kThreads);
  m.prefault(0x1000, 4096);
  tsx::harness::Digest d;
  TraceHooks hooks;
  hooks.on_access = [&](CtxId ctx, Addr addr, Word old_value, Word value,
                        bool is_write, bool in_tx) {
    d.add(ctx);
    d.add(addr);
    d.add(old_value);
    d.add(value);
    d.add(is_write);
    d.add(in_tx);
    d.add(m.now());
  };
  hooks.on_tx_abort = [&](CtxId ctx) {
    d.add(std::string("abort"));
    d.add(ctx);
    d.add(m.now());
  };
  m.set_trace_hooks(std::move(hooks));
  for (CtxId t = 0; t < kThreads; ++t) {
    m.set_thread(t, [&m, t] {
      for (int i = 0; i < 150; ++i) {
        m.fetch_add(0x1000, 1);
        m.compute(3 + 5 * ((i + t) % 7));
        if (i % 3 == static_cast<int>(t % 3)) {
          try {
            m.tx_begin();
            Addr a = 0x1100 + 64 * ((i + t) % 4);
            m.store(a, m.load(a) + 1);
            m.load(0x1200 + 64 * (i % 2));
            m.tx_commit();
          } catch (const TxAborted&) {
          }
        }
        if (i == 50 || i == 100) m.barrier();
      }
    });
  }
  m.run();
  for (CtxId t = 0; t < kThreads; ++t) d.add(m.ctx_finish(t));
  return d.value();
}

TEST(Machine, ScheduleIsPinned) {
  struct Pin {
    Cycles jitter;
    uint32_t quantum;
    bool interrupts;
    uint64_t hash;
  };
  const Pin pins[] = {
      {0, 0, false, 0xa887b66b69eba403ull},
      {0, 0, true, 0xfe0f7f4f4f8bce63ull},
      {0, 1, false, 0xa887b66b69eba403ull},
      {0, 1, true, 0xfe0f7f4f4f8bce63ull},
      {0, 5, false, 0xe891f10844538088ull},
      {0, 5, true, 0x84cb34ff681829d2ull},
      {40, 0, false, 0xa3e0e52822b187ebull},
      {40, 0, true, 0x5ad7a56d3f6edf88ull},
      {40, 1, false, 0xa3e0e52822b187ebull},
      {40, 1, true, 0x5ad7a56d3f6edf88ull},
      {40, 5, false, 0x01a06d201fa01592ull},
      {40, 5, true, 0xb11cbd310dd1204bull},
      {400, 0, false, 0x145a82d84810d1e3ull},
      {400, 0, true, 0x2c78f538375c861aull},
      {400, 1, false, 0x145a82d84810d1e3ull},
      {400, 1, true, 0x2c78f538375c861aull},
      {400, 5, false, 0xb38f37f36b31e1b6ull},
      {400, 5, true, 0x4ce3d746ee27e0c7ull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE("jitter " + std::to_string(p.jitter) + " quantum " +
                 std::to_string(p.quantum) + " interrupts " +
                 std::to_string(p.interrupts));
    EXPECT_EQ(schedule_hash(p.jitter, p.quantum, p.interrupts), p.hash);
  }
}

}  // namespace
