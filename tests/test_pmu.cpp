// src/obs PMU: log2 histograms, per-context cycle attribution (the
// committed + wasted + non-tx + idle == wall identity), the committed-vs-
// wasted energy split, perf-stat counters, and the boundary-snapshot time
// series.
//
// The identity tests are the PR's core property: for every backend — pure
// hardware (RTM), pure software (TinySTM), mixed (hybrid), and no
// transactions at all (lock) — and with OS interrupts forcing extra aborts,
// the four attribution buckets must tile each hardware thread's [0, wall]
// exactly, with no mispaired attempt events.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "obs/histogram.h"
#include "obs/pmu.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace {

using namespace tsx;
using core::Backend;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

// ---- Log2Histogram ----

TEST(Log2Histogram, BucketBoundariesAreExactPowersOfTwo) {
  EXPECT_EQ(obs::Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Log2Histogram::bucket_of(~0ull), 64u);

  EXPECT_EQ(obs::Log2Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(obs::Log2Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(obs::Log2Histogram::bucket_lower_bound(2), 2u);
  EXPECT_EQ(obs::Log2Histogram::bucket_lower_bound(11), 1024u);
  // Round-trip: every value lands in a bucket whose bound is <= value.
  for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 64ull, 1000000ull}) {
    size_t b = obs::Log2Histogram::bucket_of(v);
    EXPECT_LE(obs::Log2Histogram::bucket_lower_bound(b), v == 0 ? 0 : v);
  }
}

TEST(Log2Histogram, PercentilesAreExactOnBucketBounds) {
  obs::Log2Histogram h;
  // 100 values: 50x 1, 45x 16, 5x 1024 — all exact bucket lower bounds, so
  // percentile() must return them exactly.
  for (int i = 0; i < 50; ++i) h.record(1);
  for (int i = 0; i < 45; ++i) h.record(16);
  for (int i = 0; i < 5; ++i) h.record(1024);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 50u * 1 + 45u * 16 + 5u * 1024);
  EXPECT_EQ(h.percentile(50), 1u);
  EXPECT_EQ(h.percentile(51), 16u);
  EXPECT_EQ(h.percentile(95), 16u);
  EXPECT_EQ(h.percentile(96), 1024u);
  EXPECT_EQ(h.percentile(99), 1024u);
  EXPECT_EQ(h.percentile(100), 1024u);
}

TEST(Log2Histogram, PercentileInterpolatesWithinMixedBuckets) {
  obs::Log2Histogram h;
  // 90x 100 (bucket [64, 127]) and 10x 1000 (bucket [512, 1023]). The
  // original percentile() returned the bucket *lower* bound, so p99 came
  // back as 512 — underreporting the true tail value (1000) by nearly 2x.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(1000);
  // Regression: the lower bound must no longer be reported for a bucket
  // whose values do not sit on it.
  EXPECT_NE(h.percentile(99), 512u);
  // Within-bucket rank interpolation: rank 99 is the 9th of 10 values in
  // [512, 1023] -> 512 + (1023 - 512) * 9 / 10 = 971.
  EXPECT_EQ(h.percentile(99), 971u);
  // The bucket's top rank reaches the upper bound exactly.
  EXPECT_EQ(h.percentile(100), 1023u);
  // A mid-bucket percentile is also interpolated, never the raw bound.
  EXPECT_EQ(h.percentile(50), 64u + (127u - 64u) * 50 / 90);
  // Never below the bucket's lower bound, never above its upper bound.
  EXPECT_GE(h.percentile(99), 512u);
  EXPECT_LE(h.percentile(99), 1023u);
}

TEST(Log2Histogram, PercentileStaysExactWhenBucketIsDegenerate) {
  obs::Log2Histogram h;
  // A mix: bucket 5 holds only its exact lower bound (16), bucket 11 holds
  // off-bound values. The degenerate bucket must keep the historical exact
  // answer while the other interpolates.
  for (int i = 0; i < 95; ++i) h.record(16);
  for (int i = 0; i < 5; ++i) h.record(1500);
  EXPECT_EQ(h.percentile(50), 16u);
  EXPECT_EQ(h.percentile(95), 16u);
  EXPECT_NE(h.percentile(99), 1024u);  // not the old lower bound
  EXPECT_GE(h.percentile(99), 1024u);
  EXPECT_LE(h.percentile(99), 2047u);
}

TEST(Log2Histogram, MergeMatchesRecordingEverything) {
  obs::Log2Histogram a, b, all;
  for (uint64_t v : {3ull, 16ull, 100ull, 999ull}) {
    a.record(v);
    all.record(v);
  }
  for (uint64_t v : {0ull, 16ull, 1ull << 20, 77ull}) {
    b.record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  for (double p : {10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
  }
}

TEST(Log2Histogram, EmptyHistogramIsAllZero) {
  obs::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

// ---- Cycle-attribution identity across backends ----

core::RunConfig pmu_cfg(Backend b, uint32_t threads, bool interrupts) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = interrupts;
  cfg.obs.enabled = true;
  cfg.obs.metrics.window_cycles = 2000;
  return cfg;
}

// Contended counter increments: every TM backend aborts sometimes here.
void run_counter_workload(core::TxRuntime& rt, uint32_t threads) {
  sim::Addr addr = rt.heap().host_alloc(64, 64);
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < threads; ++t) {
    workers.push_back([addr](core::TxCtx& ctx) {
      for (int i = 0; i < 120; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr);
          ctx.compute(25);
          ctx.store(addr, v + 1);
        });
      }
    });
  }
  rt.run(std::move(workers));
  ASSERT_EQ(rt.machine().peek(addr), 120u * threads);
}

void expect_identity(const obs::PmuData& d) {
  EXPECT_TRUE(d.identity_ok);
  EXPECT_EQ(d.mismatched, 0u);
  ASSERT_EQ(d.ctx.size(), d.threads);
  obs::TxCycleSplit sum;
  for (const obs::PmuCtxSplit& c : d.ctx) {
    // Per-context identity, exact.
    EXPECT_EQ(c.committed + c.wasted + c.non_tx + c.idle, d.wall);
    EXPECT_EQ(c.finish + c.idle, d.wall);
    sum.committed += c.committed;
    sum.wasted += c.wasted;
    sum.non_tx += c.non_tx;
    sum.idle += c.idle;
  }
  // Whole-run split is the per-context sum and tiles threads * wall.
  EXPECT_EQ(d.split.committed, sum.committed);
  EXPECT_EQ(d.split.wasted, sum.wasted);
  EXPECT_EQ(d.split.non_tx, sum.non_tx);
  EXPECT_EQ(d.split.idle, sum.idle);
  EXPECT_EQ(d.split.total(), static_cast<Cycles>(d.threads) * d.wall);
}

class PmuIdentity : public ::testing::TestWithParam<Backend> {};

TEST_P(PmuIdentity, BucketsTileWallExactly) {
  core::TxRuntime rt(pmu_cfg(GetParam(), 2, false));
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  expect_identity(*d);
}

TEST_P(PmuIdentity, HoldsUnderInterruptForcedAborts) {
  core::RunConfig cfg = pmu_cfg(GetParam(), 2, true);
  cfg.machine.interrupt_mean_cycles = 3000;  // frequent: forced aborts
  core::TxRuntime rt(cfg);
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  expect_identity(*d);
}

INSTANTIATE_TEST_SUITE_P(Backends, PmuIdentity,
                         ::testing::Values(Backend::kRtm, Backend::kTinyStm,
                                           Backend::kHybrid, Backend::kLock),
                         [](const auto& suite_info) {
                           return std::string(core::backend_name(suite_info.param));
                         });

TEST(Pmu, LockBackendHasNoTransactionCycles) {
  core::TxRuntime rt(pmu_cfg(Backend::kLock, 2, false));
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->split.committed, 0u);
  EXPECT_EQ(d->split.wasted, 0u);
  EXPECT_GT(d->split.non_tx, 0u);
}

TEST(Pmu, RtmCountersMatchMachineStats) {
  core::TxRuntime rt(pmu_cfg(Backend::kRtm, 2, false));
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  const sim::TxStats& tx = d->machine.tx;
  EXPECT_GT(tx.started, 0u);
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const obs::PerfCounter& c : d->counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("tx-start"), tx.started);
  EXPECT_EQ(counter("tx-commit"), tx.committed);
  EXPECT_EQ(counter("tx-abort"), tx.aborted());
  // Committed-attempt durations: one histogram entry per commit.
  EXPECT_EQ(d->tx_duration.count(), tx.committed);
  EXPECT_EQ(d->abort_latency.count(), tx.aborted());
}

TEST(Pmu, StmAttemptCyclesAreCounted) {
  core::TxRuntime rt(pmu_cfg(Backend::kTinyStm, 2, false));
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(d->stm_starts, 0u);
  EXPECT_GT(d->stm_commits, 0u);
  EXPECT_GT(d->split.committed, 0u);
  // Executor-side cycle counters (RunReport energy split) agree in sign.
  core::RunReport rep = rt.report();
  EXPECT_GT(rep.stm.cycles_committed, 0u);
}

// ---- Energy split ----

TEST(Pmu, EnergySplitSumsToTotalExactly) {
  core::TxRuntime rt(pmu_cfg(Backend::kRtm, 2, false));
  run_counter_workload(rt, 2);
  auto d = rt.pmu_data();
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(d->energy.total_j(), 0.0);
  EXPECT_NEAR(d->energy_split.total_j(), d->energy.total_j(), 1e-12);
  EXPECT_GT(d->energy_split.committed_j, 0.0);
  EXPECT_GE(d->energy_split.wasted_j, 0.0);
  EXPECT_DOUBLE_EQ(d->energy_split.static_j, d->energy.package_idle_j);
}

TEST(RunReport, EnergySplitSumsToReportTotal) {
  core::TxRuntime rt(pmu_cfg(Backend::kRtm, 2, false));
  run_counter_workload(rt, 2);
  core::RunReport rep = rt.report();
  sim::EnergySplit s = rep.energy_split();
  EXPECT_NEAR(s.total_j(), rep.joules(), 1e-12);
  EXPECT_GT(s.committed_j, 0.0);
  EXPECT_GE(s.wasted_share(), 0.0);
  EXPECT_LE(s.wasted_share(), 1.0);
}

// ---- Reports and exports are deterministic ----

obs::Capture captured_run(Backend b, bool with_series = false) {
  core::RunConfig cfg = pmu_cfg(b, 2, false);
  core::TxRuntime rt(cfg);
  run_counter_workload(rt, 2);
  obs::Capture c =
      obs::make_capture(*rt.trace_sink(), "test:pmu", 3.3, 2);
  c.pmu = rt.pmu_data();
  if (with_series) c.metrics = rt.metrics_data();
  return c;
}

TEST(PerfStat, ReportIsByteDeterministicAndNamesHaswellEvents) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(captured_run(Backend::kRtm));
    std::ostringstream os;
    obs::write_perf_stat(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_NE(a.find("perf stat: test:pmu"), std::string::npos);
  EXPECT_NE(a.find("RTM_RETIRED.START"), std::string::npos);
  EXPECT_NE(a.find("RTM_RETIRED.ABORTED_MISC1"), std::string::npos);
  EXPECT_NE(a.find("cycle attribution"), std::string::npos);
  EXPECT_EQ(a.find("IDENTITY VIOLATED"), std::string::npos);
  EXPECT_EQ(a, render());
}

TEST(Timeseries, CsvHasSamplesAndIsByteDeterministic) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(captured_run(Backend::kRtm, /*with_series=*/true));
    std::ostringstream os;
    obs::write_timeseries_csv(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_EQ(a.rfind("label,t_cycles,", 0), 0u);  // header first
  // With a 2000-cycle window and a multi-thousand-cycle run there must be
  // data rows, each labeled and on a window boundary.
  EXPECT_NE(a.find("\ntest:pmu,"), std::string::npos);
  EXPECT_EQ(a, render());
}

// Heap placement counters ride in PmuData: they must feed the counter
// digest and the manifest's heap totals, and stay invariant to capture
// insertion order (the --jobs determinism contract: the registry sorts by
// label before hashing/summing).
obs::Capture captured_heap_run(const std::string& label,
                               mem::PlacementPolicy policy) {
  core::RunConfig cfg = pmu_cfg(Backend::kRtm, 2, false);
  cfg.heap.policy = policy;
  core::TxRuntime rt(cfg);
  run_counter_workload(rt, 2);
  obs::Capture c = obs::make_capture(*rt.trace_sink(), label, 3.3, 2);
  c.pmu = rt.pmu_data();
  return c;
}

TEST(Registry, HeapCountersAreDigestedOrderInvariantly) {
  obs::Capture a =
      captured_heap_run("heap:a", mem::PlacementPolicy::kSizeClass);
  obs::Capture b = captured_heap_run("heap:b", mem::PlacementPolicy::kPadded);
  ASSERT_TRUE(a.pmu.has_value());
  ASSERT_TRUE(a.pmu->heap.present);
  EXPECT_GT(a.pmu->heap.allocs, 0u);

  obs::Registry serial, shuffled;  // jobs=1 vs jobs=N completion orders
  serial.add(a);
  serial.add(b);
  shuffled.add(b);
  shuffled.add(a);
  EXPECT_EQ(serial.counter_digest(), shuffled.counter_digest());

  obs::HeapPmuCounters t1 = serial.heap_totals();
  obs::HeapPmuCounters t2 = shuffled.heap_totals();
  EXPECT_TRUE(t1.present);
  EXPECT_EQ(t1.policy, "mixed");  // the two captures disagree
  EXPECT_EQ(t2.policy, t1.policy);
  EXPECT_EQ(t1.allocs, a.pmu->heap.allocs + b.pmu->heap.allocs);
  EXPECT_EQ(t2.allocs, t1.allocs);
  ASSERT_EQ(t1.set_allocs.size(), t2.set_allocs.size());
  EXPECT_EQ(t1.set_allocs, t2.set_allocs);

  obs::Registry one_policy;  // captures that agree keep the policy's name
  one_policy.add(a);
  one_policy.add(captured_heap_run("heap:c", mem::PlacementPolicy::kSizeClass));
  EXPECT_EQ(one_policy.heap_totals().policy, "size-class");
}

TEST(Registry, HeapPolicyChangesTheCounterDigest) {
  obs::Registry r1, r2;
  r1.add(captured_heap_run("heap:x", mem::PlacementPolicy::kSizeClass));
  r2.add(captured_heap_run("heap:x", mem::PlacementPolicy::kPadded));
  EXPECT_NE(r1.counter_digest(), r2.counter_digest());
}

// ---- Window/total identity: window deltas vs independent totals ----
//
// The windowing contract: every event lands in the window containing its
// timestamp, so for EVERY counter the sum of window deltas must equal the
// run's total exactly — for pure-hardware, pure-software, mixed and
// no-transaction backends, and under interrupt-forced aborts. PmuData's
// software-attempt and fallback totals are themselves window sums, so
// those are checked against the executors' own counters instead; hardware
// attempts against the machine's counters.

core::RunConfig window_cfg(Backend b, uint32_t threads, bool interrupts) {
  core::RunConfig cfg = pmu_cfg(b, threads, interrupts);
  cfg.obs.metrics.window_cycles = 700;  // off-round: exercises boundaries
  return cfg;
}

void expect_window_identity(const obs::MetricsData& m, const obs::PmuData& d,
                            const core::RunReport& rep) {
  ASSERT_GT(m.window_cycles, 0u);
  // The series tiles [0, wall): contiguous fixed-stride starts, covering
  // every cycle of the run.
  for (size_t i = 0; i < m.windows.size(); ++i) {
    EXPECT_EQ(m.windows[i].start, i * m.window_cycles);
  }
  ASSERT_FALSE(m.windows.empty());
  EXPECT_GE(m.windows.size() * m.window_cycles, d.wall);
  EXPECT_LT((m.windows.size() - 1) * m.window_cycles, d.wall);

  obs::MetricsWindow sum;
  for (const obs::MetricsWindow& w : m.windows) {
    sum.hw_starts += w.hw_starts;
    sum.hw_commits += w.hw_commits;
    sum.hw_aborts += w.hw_aborts;
    for (size_t i = 0; i < sum.aborts_by_misc.size(); ++i) {
      sum.aborts_by_misc[i] += w.aborts_by_misc[i];
    }
    for (size_t i = 0; i < sum.aborts_by_reason.size(); ++i) {
      sum.aborts_by_reason[i] += w.aborts_by_reason[i];
    }
    sum.stm_starts += w.stm_starts;
    sum.stm_commits += w.stm_commits;
    sum.stm_aborts += w.stm_aborts;
    sum.fallbacks += w.fallbacks;
    sum.committed_cycles += w.committed_cycles;
    sum.wasted_cycles += w.wasted_cycles;
  }
  const sim::TxStats& tx = d.machine.tx;
  EXPECT_EQ(sum.hw_starts, tx.started);
  EXPECT_EQ(sum.hw_commits, tx.committed);
  EXPECT_EQ(sum.hw_aborts, tx.aborted());
  for (size_t i = 0; i < sum.aborts_by_misc.size(); ++i) {
    EXPECT_EQ(sum.aborts_by_misc[i], tx.aborts_by_misc[i]) << "misc " << i + 1;
  }
  for (size_t i = 0; i < sum.aborts_by_reason.size(); ++i) {
    EXPECT_EQ(sum.aborts_by_reason[i], tx.aborts_by_reason[i])
        << "reason " << i;
  }
  EXPECT_EQ(sum.stm_starts, rep.stm.starts);
  EXPECT_EQ(sum.stm_commits, rep.stm.commits);
  EXPECT_EQ(sum.stm_aborts, rep.stm.aborts());
  EXPECT_EQ(sum.fallbacks, rep.rtm.fallbacks);
  // Cycle deltas: the window records and the per-context records both
  // attribute an attempt's span at its closing event, so the sums agree
  // exactly.
  EXPECT_EQ(sum.committed_cycles, d.split.committed);
  EXPECT_EQ(sum.wasted_cycles, d.split.wasted);
}

class MetricsWindowIdentity : public ::testing::TestWithParam<Backend> {};

TEST_P(MetricsWindowIdentity, WindowDeltasSumToPmuTotals) {
  core::TxRuntime rt(window_cfg(GetParam(), 2, false));
  run_counter_workload(rt, 2);
  auto m = rt.metrics_data();
  auto d = rt.pmu_data();
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(d.has_value());
  expect_window_identity(*m, *d, rt.report());
}

TEST_P(MetricsWindowIdentity, HoldsUnderInterruptForcedAborts) {
  core::RunConfig cfg = window_cfg(GetParam(), 2, true);
  cfg.machine.interrupt_mean_cycles = 3000;  // frequent: forced aborts
  core::TxRuntime rt(cfg);
  run_counter_workload(rt, 2);
  auto m = rt.metrics_data();
  auto d = rt.pmu_data();
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(d.has_value());
  expect_window_identity(*m, *d, rt.report());
}

INSTANTIATE_TEST_SUITE_P(Backends, MetricsWindowIdentity,
                         ::testing::Values(Backend::kRtm, Backend::kTinyStm,
                                           Backend::kHybrid, Backend::kLock),
                         [](const auto& suite_info) {
                           return std::string(core::backend_name(suite_info.param));
                         });

TEST(MetricsWindowIdentity, LockBackendWindowsCarryLockSections) {
  core::TxRuntime rt(window_cfg(Backend::kLock, 2, false));
  run_counter_workload(rt, 2);
  auto m = rt.metrics_data();
  ASSERT_TRUE(m.has_value());
  uint64_t sections = 0;
  Cycles section_cycles = 0;
  for (const obs::MetricsWindow& w : m->windows) {
    sections += w.lock_sections;
    section_cycles += w.lock_section_cycles;
  }
  // Every critical section of the workload is visible: 120 iterations x 2
  // threads, each with a non-zero simulated duration.
  EXPECT_EQ(sections, 240u);
  EXPECT_GT(section_cycles, 0u);
}

TEST(Registry, MetricsDigestIsOrderInvariantAndPresentOnlyWithHub) {
  auto captured_series_run = [](const std::string& label, Backend b) {
    core::TxRuntime rt(window_cfg(b, 2, false));
    run_counter_workload(rt, 2);
    obs::Capture c = obs::make_capture(*rt.trace_sink(), label, 3.3, 2);
    c.pmu = rt.pmu_data();
    c.metrics = rt.metrics_data();
    return c;
  };
  obs::Capture a = captured_series_run("series:a", Backend::kRtm);
  obs::Capture b = captured_series_run("series:b", Backend::kTinyStm);

  obs::Registry serial, shuffled;  // jobs=1 vs jobs=N completion orders
  serial.add(a);
  serial.add(b);
  shuffled.add(b);
  shuffled.add(a);
  auto d1 = serial.metrics_digest();
  auto d2 = shuffled.metrics_digest();
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(*d1, *d2);

  // Without series-carrying captures the digest is absent (and the
  // manifest field omitted), not zero.
  obs::Registry off;
  off.add(captured_run(Backend::kRtm));
  EXPECT_FALSE(off.metrics_digest().has_value());
}

TEST(Registry, CounterDigestIsStableAndNonDestructive) {
  obs::Registry reg;
  reg.add(captured_run(Backend::kRtm));
  uint64_t d1 = reg.counter_digest();
  uint64_t d2 = reg.counter_digest();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(reg.size(), 1u);  // digest must not drain
  // Adding a capture changes the fingerprint.
  reg.add(captured_run(Backend::kTinyStm));
  EXPECT_NE(reg.counter_digest(), d1);
}

}  // namespace
