#include <gtest/gtest.h>

#include "eigenbench/eigenbench.h"

namespace {

using namespace tsx;
using namespace tsx::eigenbench;
using core::Backend;

core::RunConfig base_cfg(Backend b, uint32_t threads) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = false;
  cfg.stm.lock_table_entries = 1u << 14;
  return cfg;
}

EigenConfig small_eb() {
  EigenConfig eb;
  eb.loops = 50;
  eb.reads_mild = 18;
  eb.writes_mild = 2;
  eb.ws_bytes = 4096;
  return eb;
}

TEST(Eigenbench, CountsMatchConfiguration) {
  auto res = run(base_cfg(Backend::kSeq, 1), small_eb());
  EXPECT_EQ(res.total_reads, 50u * 18u);
  EXPECT_EQ(res.total_writes, 50u * 2u);
}

TEST(Eigenbench, VerifyIncrementsConservedSeq) {
  EigenConfig eb = small_eb();
  eb.verify_increments = true;
  auto res = run(base_cfg(Backend::kSeq, 1), eb);
  EXPECT_EQ(res.increment_sum, res.total_writes);
}

class EigenAtomicity : public ::testing::TestWithParam<Backend> {};

TEST_P(EigenAtomicity, IncrementsConservedUnderContention) {
  EigenConfig eb = small_eb();
  eb.verify_increments = true;
  eb.reads_hot = 4;
  eb.writes_hot = 4;
  eb.hot_bytes = 512;  // tiny shared array: heavy conflicts
  auto res = run(base_cfg(GetParam(), 4), eb);
  // Atomic increments: the grand total must equal writes performed by
  // committed transactions exactly.
  EXPECT_EQ(res.increment_sum, res.total_writes);
  EXPECT_EQ(res.total_writes, 4u * 50u * (2u + 4u));
}

INSTANTIATE_TEST_SUITE_P(Backends, EigenAtomicity,
                         ::testing::Values(Backend::kLock, Backend::kRtm,
                                           Backend::kTinyStm, Backend::kTl2),
                         [](const auto& suite_info) {
                           return core::backend_name(suite_info.param);
                         });

TEST(Eigenbench, ContentionCausesAborts) {
  EigenConfig eb = small_eb();
  eb.reads_hot = 8;
  eb.writes_hot = 8;
  eb.hot_bytes = 256;
  auto rtm = run(base_cfg(Backend::kRtm, 4), eb);
  EXPECT_GT(rtm.report.rtm.aborts(), 0u);
  auto stm = run(base_cfg(Backend::kTinyStm, 4), eb);
  EXPECT_GT(stm.report.stm.aborts(), 0u);
}

TEST(Eigenbench, NoContentionNoConflicts) {
  EigenConfig eb = small_eb();  // mild arrays are per-thread
  auto res = run(base_cfg(Backend::kRtm, 4), eb);
  using tsx::htm::AbortClass;
  EXPECT_EQ(res.report.rtm.aborts_by_class[size_t(
                AbortClass::kConflictOrReadCap)],
            0u);
}

TEST(Eigenbench, WorkingSetBeyondL1SlowsRtm) {
  EigenConfig small = small_eb();
  small.loops = 100;
  EigenConfig big = small;
  big.ws_bytes = 1 * 1024 * 1024;  // 1 MB: L2-resident
  auto r_small = run(base_cfg(Backend::kRtm, 1), small);
  auto r_big = run(base_cfg(Backend::kRtm, 1), big);
  EXPECT_GT(r_big.report.wall_cycles, r_small.report.wall_cycles);
}

TEST(Eigenbench, ConflictProbabilityFormula) {
  EXPECT_DOUBLE_EQ(conflict_probability(1, 10, 10, 1024), 0.0);
  EXPECT_DOUBLE_EQ(conflict_probability(4, 10, 0, 1024),
                   conflict_probability(4, 10, 0, 1024));
  // More threads, more writes, smaller array -> higher probability.
  double p1 = conflict_probability(2, 5, 5, 4096);
  double p2 = conflict_probability(4, 5, 5, 4096);
  double p3 = conflict_probability(4, 5, 10, 4096);
  double p4 = conflict_probability(4, 5, 10, 1024);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
  EXPECT_GE(p1, 0.0);
  EXPECT_LE(p4, 1.0);
  // Line granularity (fewer units) yields higher contention than words.
  EXPECT_GT(conflict_probability_lines(4, 5, 5, 64 * 1024),
            conflict_probability(4, 5, 5, 64 * 1024 / 8));
}

TEST(Eigenbench, LocalityReducesRtmFootprint) {
  EigenConfig lo = small_eb();
  lo.loops = 100;
  lo.ws_bytes = 256 * 1024;
  lo.locality = 0.0;
  EigenConfig hi = lo;
  hi.locality = 0.9;
  auto r_lo = run(base_cfg(Backend::kRtm, 1), lo);
  auto r_hi = run(base_cfg(Backend::kRtm, 1), hi);
  // High locality touches fewer distinct lines: fewer cache misses, faster.
  EXPECT_LT(r_hi.report.wall_cycles, r_lo.report.wall_cycles);
}

TEST(Eigenbench, RejectsDegenerateArrays) {
  EigenConfig eb = small_eb();
  eb.ws_bytes = 4;
  EXPECT_THROW(run(base_cfg(Backend::kSeq, 1), eb), std::invalid_argument);
}

}  // namespace
