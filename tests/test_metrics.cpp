// src/obs window series: TraceSink's exact event->window folding and its
// padded, repeatable finalization, the EWMA/CUSUM phase detector on
// synthetic and simulated series, the wasted-cycle flame profile (exact
// under ring wrap), and the OpenMetrics / collapsed-stack exporters'
// determinism.
//
// The window/total identity against independent counters lives in
// test_pmu.cpp next to the cycle-attribution identity it extends.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace {

using namespace tsx;
using core::Backend;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

// ---- PhaseDetector on synthetic window series ----

// A window with the given commit count (activity channel) and optional
// abort traffic (abort-rate channel).
obs::MetricsWindow win(uint64_t commits, uint64_t aborts = 0,
                       Cycles committed_cycles = 0, Cycles wasted_cycles = 0) {
  obs::MetricsWindow w;
  w.hw_starts = commits + aborts;
  w.hw_commits = commits;
  w.hw_aborts = aborts;
  w.aborts_by_reason[static_cast<size_t>(sim::AbortReason::kConflict)] =
      aborts;
  w.aborts_by_misc[static_cast<size_t>(
      sim::misc_bucket_for(sim::AbortReason::kConflict))] = aborts;
  w.committed_cycles = committed_cycles;
  w.wasted_cycles = wasted_cycles;
  return w;
}

TEST(PhaseDetector, SteadySeriesNeverFires) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(det.update(win(100)).has_value()) << "window " << i;
  }
}

TEST(PhaseDetector, ActivityStepUpFiresWithinOneWindow) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100)));
  // 4x throughput step: log1p jumps ~1.4 against a near-zero deviation
  // (floored at 0.08), so the CUSUM must cross on the very first shifted
  // window — the boundary is located to within one window.
  std::optional<obs::PhaseEvent> e = det.update(win(400));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->window, 20u);
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelActivity);
  EXPECT_EQ(e->direction, 1);
  EXPECT_GT(e->score, 4.0);
}

TEST(PhaseDetector, ActivityStepDownFiresFalling) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(400)));
  std::optional<obs::PhaseEvent> e = det.update(win(50));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->window, 20u);
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelActivity);
  EXPECT_EQ(e->direction, -1);
}

TEST(PhaseDetector, AbortRateStepFiresItsOwnChannel) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  // Constant commits (activity flat) with a contention step: abort rate
  // jumps from ~0.09 to 0.5 while log-activity stays fixed.
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100, 10)));
  std::optional<obs::PhaseEvent> e = det.update(win(100, 100));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelAbortRate);
  EXPECT_EQ(e->direction, 1);
}

TEST(PhaseDetector, WastedShareStepFiresItsOwnChannel) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  // Fixed commit/abort counts; only the cycle mix moves, so neither the
  // activity nor the abort-rate channel sees a shift.
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(det.update(win(100, 10, 9000, 1000)));
  }
  std::optional<obs::PhaseEvent> e = det.update(win(100, 10, 4000, 6000));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelWastedShare);
  EXPECT_EQ(e->direction, 1);
}

TEST(PhaseDetector, RelearnsAfterBoundaryWithoutRefiring) {
  obs::PhaseDetector det;  // warmup 3, alpha 0.25, k 0.5, h 4
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100)));
  ASSERT_TRUE(det.update(win(400)).has_value());
  // The new phase is steady at the shifted level: after the cooldown and
  // re-learn the detector must settle, not ring on the same boundary.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(det.update(win(400)).has_value()) << "window " << i;
  }
  // And a genuine second boundary still fires.
  EXPECT_TRUE(det.update(win(100)).has_value());
}

TEST(PhaseDetector, WarmupWindowsNeverFire) {
  obs::PhaseDetector det;
  // A wild series inside the warmup: the detector is still learning and
  // must stay silent for kWarmupWindows + 1 windows (prime + warmup).
  for (uint32_t i = 0; i <= obs::PhaseDetector::kWarmupWindows; ++i) {
    EXPECT_FALSE(det.update(win(i % 2 ? 500 : 10)).has_value());
  }
}

// ---- TraceSink window feeding and finalization ----

TEST(MetricsHub, EventsLandInTheWindowContainingTheirTimestamp) {
  obs::TraceSink sink(1 << 10, 100);
  sink.tx_begin(0, 10);
  sink.tx_commit(0, 99);   // attempt [10, 99]: window 0, 89 committed cycles
  sink.tx_begin(0, 150);
  sink.tx_commit(0, 260);  // closes in window 2: cycles attributed there
  sink.tx_begin(1, 205);
  sink.tx_abort(1, 230, sim::AbortReason::kConflict, ~0ull, 1);
  obs::MetricsData d = sink.metrics_data(300);
  ASSERT_EQ(d.windows.size(), 3u);
  EXPECT_EQ(d.windows[0].hw_starts, 1u);
  EXPECT_EQ(d.windows[0].hw_commits, 1u);
  EXPECT_EQ(d.windows[0].committed_cycles, 89u);
  EXPECT_EQ(d.windows[1].hw_starts, 1u);
  EXPECT_EQ(d.windows[1].hw_commits, 0u);
  EXPECT_EQ(d.windows[2].hw_commits, 1u);
  EXPECT_EQ(d.windows[2].committed_cycles, 110u);
  EXPECT_EQ(d.windows[2].hw_starts, 1u);  // ctx 1's begin at t=205
  EXPECT_EQ(d.windows[2].hw_aborts, 1u);
  EXPECT_EQ(d.windows[2].wasted_cycles, 25u);
  EXPECT_EQ(d.windows[2].aborts_by_reason[static_cast<size_t>(
                sim::AbortReason::kConflict)],
            1u);
}

TEST(MetricsHub, FinalizePadsIdleTailToWall) {
  obs::TraceSink sink(1 << 10, 100);
  sink.tx_begin(0, 5);
  sink.tx_commit(0, 50);
  obs::MetricsData d = sink.metrics_data(1000);
  ASSERT_EQ(d.windows.size(), 10u);  // trailing idle windows materialized
  for (size_t i = 0; i < d.windows.size(); ++i) {
    EXPECT_EQ(d.windows[i].start, i * 100u);
    if (i > 0) {
      EXPECT_EQ(d.windows[i].hw_commits, 0u);
    }
  }
}

TEST(MetricsHub, FinalizeIsIdempotent) {
  obs::TraceSink sink(1 << 10, 100);
  sink.tx_begin(0, 10);
  sink.tx_commit(0, 20);
  const obs::TraceSink& view = sink;
  obs::MetricsData a = view.metrics_data(200);
  obs::MetricsData b = view.metrics_data(200);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  EXPECT_EQ(a.phases.size(), b.phases.size());
  EXPECT_EQ(a.windows[0].hw_commits, b.windows[0].hw_commits);
  // Padding goes into the returned copy, never into the sink's series.
  EXPECT_EQ(view.metrics_data(1000).windows.size(), 10u);
  EXPECT_EQ(view.metrics_data(200).windows.size(), 2u);
}

TEST(MetricsHub, ElideCountersAggregatePerLockPerWindow) {
  obs::TraceSink sink(1 << 10, 100);
  sink.elide_lock_name(3, "hot-mutex");
  sink.elide_acquire(3, 50, obs::ElideAcqKind::kElided, 1, 40, 0, false);
  sink.elide_acquire(3, 60, obs::ElideAcqKind::kFallback, 3, 0, 25, false);
  sink.elide_acquire(3, 150, obs::ElideAcqKind::kElided, 1, 30, 0, false);
  obs::MetricsData d = sink.metrics_data(200);
  ASSERT_EQ(d.windows.size(), 2u);
  const obs::ElideCounters& w0 = d.windows[0].elide.at(3);
  EXPECT_EQ(w0.acquisitions, 2u);
  EXPECT_EQ(w0.attempts, 4u);
  EXPECT_EQ(w0.elided, 1u);
  EXPECT_EQ(w0.fallbacks, 1u);
  EXPECT_EQ(w0.cycles_elided, 40u);
  EXPECT_EQ(w0.cycles_wasted, 25u);
  EXPECT_EQ(d.windows[1].elide.at(3).elided, 1u);
  EXPECT_EQ(d.lock_names.at(3), "hot-mutex");
}

// ---- Flame profile: exact under ring wrap ----

core::RunConfig traced_cfg(Backend b, size_t ring_capacity) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = 2;
  cfg.obs.enabled = true;
  cfg.obs.capacity = ring_capacity;
  cfg.obs.metrics.window_cycles = 500;
  return cfg;
}

void run_contended(core::TxRuntime& rt, uint32_t threads) {
  sim::Addr addr = rt.heap().host_alloc(64, 64);
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < threads; ++t) {
    workers.push_back([addr](core::TxCtx& ctx) {
      for (int i = 0; i < 150; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr);
          ctx.compute(30);
          ctx.store(addr, v + 1);
        });
      }
    });
  }
  rt.run(std::move(workers));
}

TEST(FlameProfile, WeightsSumToWastedCyclesEvenAfterRingWrap) {
  // A 16-event ring wraps hundreds of times in this run; the flame profile
  // aggregates at emission time, so it must not lose a single wasted cycle.
  core::TxRuntime rt(traced_cfg(Backend::kRtm, 16));
  run_contended(rt, 2);
  ASSERT_GT(rt.trace_sink()->dropped(), 0u);
  auto p = rt.pmu_data();
  ASSERT_TRUE(p.has_value());
  ASSERT_GT(p->split.wasted, 0u);
  // The flame edges live in the per-site records; split.wasted sums the
  // per-context records.
  uint64_t flame_total = 0;
  for (const auto& [site, agg] : rt.trace_sink()->sites()) {
    for (const auto& [key, cycles] : agg.flame) flame_total += cycles;
  }
  EXPECT_EQ(flame_total, p->split.wasted);
}

// ---- Exporters ----

obs::Capture series_capture(const std::string& label, Backend b) {
  core::TxRuntime rt(traced_cfg(b, 1 << 16));
  run_contended(rt, 2);
  obs::Capture c = obs::make_capture(*rt.trace_sink(), label, 3.3, 2);
  c.pmu = rt.pmu_data();
  c.metrics = rt.metrics_data();
  return c;
}

TEST(OpenMetrics, ExpositionIsByteDeterministicAndWellFormed) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(series_capture("cell:rtm", Backend::kRtm));
    std::ostringstream os;
    obs::write_openmetrics(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_EQ(a, render());
  // Spot-check the exposition grammar: HELP/TYPE headers, labelled samples,
  // the misc-bucket label, and the mandatory EOF marker last.
  EXPECT_NE(a.find("# HELP tsxlab_window_hw_commits "), std::string::npos);
  EXPECT_NE(a.find("# TYPE tsxlab_window_hw_commits gauge"),
            std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_hw_commits{cell=\"cell:rtm\",w=\"0\"} "),
            std::string::npos);
  EXPECT_NE(a.find("bucket=\"1\""), std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_abort_rate{"), std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_cycles{cell=\"cell:rtm\"} 500"),
            std::string::npos);
  ASSERT_GE(a.size(), 6u);
  EXPECT_EQ(a.substr(a.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, SamplesFollowRegistryLabelOrder) {
  // Registry::drain label-sorts, which is what makes the exposition --jobs
  // invariant; the exporter itself must preserve that order per family.
  obs::Registry reg;
  reg.add(series_capture("cell:b", Backend::kRtm));
  reg.add(series_capture("cell:a", Backend::kRtm));
  std::vector<obs::Capture> caps = reg.drain();
  std::ostringstream os;
  obs::write_openmetrics(os, caps);
  std::string out = os.str();
  size_t first_a = out.find("tsxlab_window_hw_starts{cell=\"cell:a\"");
  size_t first_b = out.find("tsxlab_window_hw_starts{cell=\"cell:b\"");
  ASSERT_NE(first_a, std::string::npos);
  ASSERT_NE(first_b, std::string::npos);
  EXPECT_LT(first_a, first_b);
}

TEST(Flamegraph, CollapsedStacksAreDeterministicAndWeighted) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(series_capture("cell:rtm", Backend::kRtm));
    std::ostringstream os;
    obs::write_flamegraph(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_EQ(a, render());
  ASSERT_FALSE(a.empty());
  // Each line: "cell;victim;attacker-or-[reason] <cycles>" with a positive
  // weight (zero-weight stacks are filtered).
  std::istringstream is(a);
  std::string line;
  uint64_t total = 0;
  while (std::getline(is, line)) {
    ASSERT_EQ(line.rfind("cell:rtm;", 0), 0u) << line;
    size_t semi2 = line.find(';', line.find(';') + 1);
    ASSERT_NE(semi2, std::string::npos) << line;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    uint64_t cycles = std::stoull(line.substr(sp + 1));
    EXPECT_GT(cycles, 0u) << line;
    total += cycles;
  }
  EXPECT_GT(total, 0u);
}

// ---- Phase events reach the finalized data on a simulated phased run ----

TEST(MetricsHub, SimulatedLoadShiftProducesAPhaseEvent) {
  // Two phases in one run: a quiet warmup (sparse small transactions), then
  // a hot burst (every context hammering one line). The detector must mark
  // at least one boundary, on the activity or contention axis.
  core::RunConfig cfg = traced_cfg(Backend::kRtm, 1 << 16);
  cfg.threads = 4;
  cfg.obs.metrics.window_cycles = 2000;
  core::TxRuntime rt(cfg);
  sim::Addr addr = rt.heap().host_alloc(256, 64);
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < 4; ++t) {
    workers.push_back([addr, t](core::TxCtx& ctx) {
      // Phase 1: long idle gaps, disjoint lines — low activity, no aborts.
      for (int i = 0; i < 40; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr + 64 * t);
          ctx.compute(5);
          ctx.store(addr + 64 * t, v + 1);
        });
        ctx.compute(400);
      }
      // Phase 2: tight contended loop on one shared line.
      for (int i = 0; i < 400; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr);
          ctx.compute(10);
          ctx.store(addr, v + 1);
        });
      }
    });
  }
  rt.run(std::move(workers));
  auto m = rt.metrics_data();
  ASSERT_TRUE(m.has_value());
  ASSERT_GT(m->windows.size(), 6u);
  EXPECT_FALSE(m->phases.empty());
  for (const obs::PhaseEvent& e : m->phases) {
    EXPECT_LT(e.window, m->windows.size());
    EXPECT_EQ(e.t, m->windows[e.window].start);
  }
}

}  // namespace
