// bench-smoke tests: the benchmark's own loops against the code paths of the
// bench drivers they stand in for, and a time bound on the smoke run.
//
//   cmake --build build-bench -j && cd build-bench && ctest -L bench-smoke

#include <gtest/gtest.h>

#include "spans.h"
#include "workloads.h"

namespace server = tsx::bench::server;
using namespace tsxbench;

namespace {

void expect_same_histogram(const tsx::obs::Log2Histogram& a,
                           const tsx::obs::Log2Histogram& b) {
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.sum(), b.sum());
}

}  // namespace

// Every smoke-sized server-mix cell, obs on, against run_server_rep with obs
// off: the benchmark's loop must leave the simulation untouched.
TEST(BenchEquivalence, ServerCellMatchesRunServerRep) {
  for (const Cell& c : make_cells(Workload::kServerMix, 9000, true)) {
    SCOPED_TRACE(c.label);
    ASSERT_TRUE(c.obs);
    CellOut o = run_cell(c);
    ASSERT_TRUE(o.ok) << o.error;
    ASSERT_TRUE(o.server.has_value());
    const auto& spec = std::get<ServerSpec>(c.work);
    server::CellResult ref =
        server::run_server_rep(spec.kind, c.backend, spec.traffic, c.seed);
    const server::CellResult& got = o.server->res;
    EXPECT_EQ(got.offered, ref.offered);
    EXPECT_EQ(got.completed, ref.completed);
    EXPECT_EQ(got.offered_span, ref.offered_span);
    EXPECT_EQ(got.wall, ref.wall);
    expect_same_histogram(got.lat_all, ref.lat_all);
    ASSERT_EQ(got.lat_phase.size(), ref.lat_phase.size());
    for (size_t p = 0; p < ref.lat_phase.size(); ++p) {
      expect_same_histogram(got.lat_phase[p], ref.lat_phase[p]);
    }
    EXPECT_EQ(got.completed_phase, ref.completed_phase);
    EXPECT_EQ(got.attempts, ref.attempts);
    EXPECT_EQ(got.aborts, ref.aborts);
    EXPECT_EQ(got.fallbacks, ref.fallbacks);
    EXPECT_EQ(got.elide_attempts, ref.elide_attempts);
    EXPECT_EQ(got.elide_elided, ref.elide_elided);
    EXPECT_EQ(got.elide_fallbacks, ref.elide_fallbacks);
    EXPECT_EQ(got.misses, ref.misses);
    EXPECT_EQ(got.overloaded, ref.overloaded);
    EXPECT_EQ(got.ok, ref.ok);
    // The loop's extra split: queue wait + service time == latency.
    EXPECT_EQ(o.server->queue.sum() + o.server->service.sum(),
              got.lat_all.sum());
  }
}

// A STAMP cell pair's time ratio against SEQ equals stamp_rep's norm_time.
TEST(BenchEquivalence, StampRatioMatchesStampRep) {
  std::vector<Cell> all = make_cells(Workload::kStampRtm, 9000, true);
  std::vector<Cell> pair;
  for (const Cell& c : all) {
    if (std::get<tsx::bench::StampApp>(c.work).name == "intruder") {
      pair.push_back(c);
    }
  }
  ASSERT_EQ(pair.size(), 2u);
  std::vector<CellOut> outs;
  for (const Cell& c : pair) {
    outs.push_back(run_cell(c));
    ASSERT_TRUE(outs.back().ok) << outs.back().error;
  }
  SeqRatios r = seq_ratios(pair, outs);
  ASSERT_EQ(r.time_per_cell.size(), 1u);
  tsx::bench::StampRep ref = tsx::bench::stamp_rep(
      std::get<tsx::bench::StampApp>(pair[1].work), pair[1].backend,
      pair[1].threads, kStampFastInputs, pair[1].seed);
  EXPECT_EQ(r.time_per_cell[0], ref.norm_time);
  EXPECT_EQ(r.time, ref.norm_time);
  EXPECT_EQ(r.energy, ref.norm_energy);
}

// The scaled-down run of all four workloads stays a smoke test.
TEST(BenchSmoke, AllWorkloadsUnderTenSeconds) {
  double t0 = now_s();
  for (Workload w : all_workloads()) {
    for (const Cell& c : make_cells(w, 9000, true)) {
      CellOut o = run_cell(c);
      EXPECT_TRUE(o.ok) << o.error;
      EXPECT_EQ(o.failed, 0u) << c.label;
    }
  }
  EXPECT_LT(now_s() - t0, 10.0);
}

// Self time subtracts the union of the children, not their sum.
TEST(BenchSpans, SelfTimeSubtractsCoveredInterval) {
  Tracer tr;
  int root = tr.add("pass", 0.0, 10.0, -1, -1);
  tr.add("run", 1.0, 4.0, root, 0);
  tr.add("run", 3.0, 5.0, root, 0);
  tr.add("other", 0.0, 2.0, -1, -1);
  std::map<std::string, double> self = tr.self_seconds(root);
  EXPECT_DOUBLE_EQ(self["pass"], 6.0);
  EXPECT_DOUBLE_EQ(self["run"], 5.0);
  EXPECT_EQ(self.count("other"), 0u);
}
