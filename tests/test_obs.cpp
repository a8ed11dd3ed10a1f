// src/obs: ring-buffer trace sink, abort attribution, and the exporters.
//
// Covers the subsystem's contract end-to-end: the ring keeps the newest
// events while aggregation stays exact; a deliberately conflicting
// two-thread workload is attributed to the correct cache line and attacker
// call site; the Chrome trace export is well-formed and byte-identical
// across repeated identical runs (the --jobs determinism the bench layer
// relies on).

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "obs/abort_report.h"
#include "obs/chrome_trace.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace {

using namespace tsx;
using sim::AbortReason;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

TEST(TraceSink, RingWraparoundKeepsNewestAndAggregatesStayExact) {
  obs::TraceSink sink(4);
  for (Cycles t = 0; t < 10; ++t) sink.stm_begin(0, t, 7);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<obs::Event> ev = sink.events();
  ASSERT_EQ(ev.size(), 4u);
  for (size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].t, 6u + i);  // oldest -> newest, newest kept
    EXPECT_EQ(ev[i].kind, obs::EventKind::kTxBegin);
    EXPECT_EQ(ev[i].flags & obs::kFlagStm, obs::kFlagStm);
  }
  // Per-site attribution is maintained incrementally, not recomputed from
  // the (lossy) ring: all 10 attempts are still counted.
  ASSERT_EQ(sink.sites().count(7u), 1u);
  EXPECT_EQ(sink.sites().at(7u).attempts, 10u);
}

TEST(TraceSink, RejectsZeroCapacity) {
  EXPECT_THROW(obs::TraceSink sink(0), std::invalid_argument);
}

TEST(TraceSink, EventsStayCompact) {
  // The ring holds 65536 events per traced run by default.
  EXPECT_LE(sizeof(obs::Event), 48u);
}

// Two threads hammer the same word from distinct call sites: the abort
// report must name the contended line and blame the opposite site.
core::RunConfig conflict_cfg() {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 2;
  cfg.machine.interrupts_enabled = false;
  cfg.obs.enabled = true;
  return cfg;
}

void run_conflict_workload(core::TxRuntime& rt, sim::Addr* addr_out) {
  sim::Addr addr = rt.heap().host_alloc(64, 64);
  *addr_out = addr;
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < 2; ++t) {
    uint32_t site = t + 1;  // thread 0 -> site 1, thread 1 -> site 2
    workers.push_back([addr, site](core::TxCtx& ctx) {
      for (int i = 0; i < 200; ++i) {
        ctx.transaction(
            [&] {
              Word v = ctx.load(addr);
              ctx.compute(30);
              ctx.store(addr, v + 1);
            },
            site);
      }
    });
  }
  rt.run(std::move(workers));
}

TEST(AbortAttribution, ConflictNamesLineAndAttackerSite) {
  core::TxRuntime rt(conflict_cfg());
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  EXPECT_EQ(rt.machine().peek(addr), 400u);  // workload actually contended

  obs::TraceSink* sink = rt.trace_sink();
  ASSERT_NE(sink, nullptr);
  const auto& sites = sink->sites();
  ASSERT_EQ(sites.count(1u), 1u);
  ASSERT_EQ(sites.count(2u), 1u);

  uint64_t conflicts = 0, on_line = 0, attacked = 0;
  for (uint32_t site : {1u, 2u}) {
    const obs::SiteAgg& agg = sites.at(site);
    EXPECT_GT(agg.attempts, 0u);
    EXPECT_GT(agg.commits, 0u);
    conflicts +=
        agg.aborts_by_reason[static_cast<size_t>(AbortReason::kConflict)];
    auto it = agg.conflict_lines.find(sim::line_of(addr));
    if (it != agg.conflict_lines.end()) on_line += it->second;
    // Attackers can only be the two workload sites (self-aborts are not
    // attributed to an attacker site).
    uint32_t other = site == 1u ? 2u : 1u;
    for (const auto& [asite, n] : agg.attacker_sites) {
      EXPECT_EQ(asite, other) << "victim site " << site;
      attacked += n;
    }
  }
  EXPECT_GT(conflicts, 0u);  // the workload must have conflicted
  EXPECT_GT(on_line, 0u);    // ... on the shared word's cache line
  EXPECT_GT(attacked, 0u);   // ... blamed on the opposite call site
}

TEST(ChromeTrace, ExportIsWellFormedAndDeterministic) {
  auto traced_run = [] {
    core::TxRuntime rt(conflict_cfg());
    sim::Addr addr = 0;
    run_conflict_workload(rt, &addr);
    std::vector<obs::Capture> caps;
    caps.push_back(
        obs::make_capture(*rt.trace_sink(), "test:conflict", 3.3, 2));
    std::ostringstream os;
    obs::write_chrome_trace(os, caps);
    return os.str();
  };
  std::string a = traced_run();
  // Structural sanity without a JSON parser: envelope plus the event types
  // a contended RTM run must produce.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(a.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);  // committed tx spans
  EXPECT_NE(a.find("\"ph\":\"i\""), std::string::npos);  // abort instants
  // The simulation and the export are both deterministic: a second
  // identical run serializes byte-identically (what makes bench traces
  // independent of --jobs).
  EXPECT_EQ(a, traced_run());
}

TEST(AbortReport, WriterCoversEverySiteAndDroppedNote) {
  core::TxRuntime rt(conflict_cfg());
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  std::vector<obs::Capture> caps;
  caps.push_back(obs::make_capture(*rt.trace_sink(), "test:conflict", 3.3, 2));
  std::ostringstream os;
  obs::write_abort_report(os, caps);
  std::string r = os.str();
  EXPECT_NE(r.find("abort attribution: test:conflict"), std::string::npos);
  EXPECT_NE(r.find("site#1"), std::string::npos);
  EXPECT_NE(r.find("site#2"), std::string::npos);
}

TEST(EnergyWindows, SamplesAreEmittedOnMonotonicBoundaries) {
  core::RunConfig cfg = conflict_cfg();
  cfg.obs.metrics.window_cycles = 1000;
  core::TxRuntime rt(cfg);
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  auto m = rt.metrics_data();
  ASSERT_TRUE(m.has_value());
  // Boundaries are crossed in order, so the snapshotted windows are a
  // prefix of the series: one per boundary the run's clock passed.
  size_t n = m->snapshots();
  EXPECT_GT(n, 1u);
  EXPECT_EQ(n, rt.report().wall_cycles / 1000);
  uint64_t last_ops = 0, last_commits = 0;
  for (size_t i = 0; i < m->windows.size(); ++i) {
    const obs::MetricsWindow& w = m->windows[i];
    ASSERT_EQ(w.end.has_value(), i < n) << "window " << i;
    if (!w.end) continue;
    // Cumulative counters never fall from one boundary to the next.
    EXPECT_GE(w.end->machine.ops, last_ops);
    EXPECT_GE(w.end->machine.tx.committed, last_commits);
    last_ops = w.end->machine.ops;
    last_commits = w.end->machine.tx.committed;
  }
  EXPECT_GT(last_commits, 0u);
}

TEST(Registry, DrainSortsByLabelRegardlessOfAddOrder) {
  obs::Registry reg;
  obs::TraceSink sink(8);
  reg.add(obs::make_capture(sink, "b:second", 3.3, 1));
  reg.add(obs::make_capture(sink, "a:first", 3.3, 1));
  EXPECT_EQ(reg.size(), 2u);
  std::vector<obs::Capture> caps = reg.drain();
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps[0].label, "a:first");
  EXPECT_EQ(caps[1].label, "b:second");
  EXPECT_EQ(reg.size(), 0u);
}

}  // namespace
