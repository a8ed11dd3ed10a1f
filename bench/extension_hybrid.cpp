// Extension: serial-fallback RTM vs Hybrid TM (RTM fast path with a TinySTM
// fallback) under the Fig. 7 contention sweep.
//
// The serial fallback is Algorithm 1's scalability cliff: one overflowing or
// repeatedly-conflicting transaction stops the world, and the lock
// subscription converts every concurrent speculative transaction into a
// lock abort. The hybrid replaces the serial lock with a full TinySTM
// transaction, so fallbacks run concurrently — at the price of stripe
// subscription loads on the hardware path and clock-line serialization of
// hardware writer commits (see DESIGN.md § Hybrid conflict semantics).
//
// Two sweeps separate the two fallback triggers:
//
//   1. Conflict-driven (the fig07 sweep): fallbacks happen because the data
//      genuinely conflicts. Running them concurrently under STM does not
//      help — the STM transactions conflict on the same words — so the
//      hybrid pays the stripe-subscription tax everywhere and wins nowhere.
//      (Measured, and consistent with the HyTM literature's lukewarm
//      results on contended workloads.)
//
//   2. Capacity-driven on disjoint data (a fig04-style write-set sweep over
//      per-thread arrays, with in-transaction compute so the transaction is
//      more than bare stores): past the L1 write capacity every transaction
//      falls back, but the fallbacks touch disjoint lines. RTM's serial
//      lock serializes the whole transaction — compute included; the
//      hybrid's STM fallbacks commit concurrently and keep scaling. This is
//      the case hybrid TM exists for. (Without the compute the two roughly
//      tie: serial-but-plain stores against concurrent-but-instrumented
//      ones.)

#include "bench/eigen_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Extension", "serial-fallback RTM vs Hybrid TM (HyTM)",
               "concurrent STM fallbacks avoid the serial-lock cliff at high "
               "contention; stripe subscription costs a little at low");

  // Sweep 1 — same as fig07: contention dialed via the shared-array size
  // under the standard 100-access (90r/10w) transaction.
  std::vector<uint64_t> hot_bytes = {16ull << 20, 4ull << 20, 1ull << 20,
                                     256ull << 10, 64ull << 10, 16ull << 10,
                                     4096};
  if (args.fast) hot_bytes = {16ull << 20, 256ull << 10, 16ull << 10};

  const uint32_t threads = 4;
  std::vector<EigenTask> tasks;
  for (uint64_t hot : hot_bytes) {
    eigenbench::EigenConfig eb = paper_default_eb(args.fast ? 100 : 200);
    eb.ws_bytes = 64 * 1024;
    eb.reads_mild = 0;
    eb.writes_mild = 0;
    eb.reads_hot = 90;
    eb.writes_hot = 10;
    eb.hot_bytes = hot;
    tasks.push_back({core::Backend::kRtm, threads, eb, 7000});
    tasks.push_back({core::Backend::kHybrid, threads, eb, 7000});
  }

  // Sweep 2 — capacity-driven fallbacks on disjoint data: writes per
  // transaction to the per-thread mild array. Past the L1 write capacity
  // every transaction falls back; the data never conflicts, so the only
  // question is whether fallbacks serialize (RTM) or overlap (hybrid).
  std::vector<uint32_t> writes_per_tx = {10, 100, 300, 600};
  if (args.fast) writes_per_tx = {10, 300, 600};

  for (uint32_t writes : writes_per_tx) {
    eigenbench::EigenConfig eb = paper_default_eb(args.fast ? 30 : 60);
    eb.ws_bytes = 1 << 20;  // spread writes over many cache sets
    eb.reads_mild = 0;
    eb.writes_mild = writes;
    eb.reads_hot = 0;
    eb.writes_hot = 0;
    eb.nops_in_tx = 2000;  // the work the serial lock needlessly serializes
    tasks.push_back({core::Backend::kRtm, threads, eb, 7000});
    tasks.push_back({core::Backend::kHybrid, threads, eb, 7000});
  }
  // Both sweeps in one run, so the manifest and the captures cover them all.
  std::vector<EigenPoint> points =
      eigen_points("extension_hybrid", tasks, args);

  util::Table t({"P(conflict) word", "RTM speedup", "Hybrid speedup",
                 "RTM energy-eff", "Hybrid energy-eff", "RTM hw-aborts",
                 "Hybrid hw-aborts", "RTM fallbacks", "Hybrid fallbacks"});
  for (size_t i = 0; i < hot_bytes.size(); ++i) {
    const EigenPoint& rtm = points[2 * i];
    const EigenPoint& hyb = points[2 * i + 1];
    const eigenbench::EigenConfig& eb = tasks[2 * i].eb;
    double p_word = eigenbench::conflict_probability(
        threads, eb.reads_hot, eb.writes_hot, hot_bytes[i] / 8);
    t.add_row({util::Table::fmt(p_word, 4), util::Table::fmt(rtm.speedup, 2),
               util::Table::fmt(hyb.speedup, 2),
               util::Table::fmt(rtm.energy_eff, 2),
               util::Table::fmt(hyb.energy_eff, 2),
               util::Table::fmt(rtm.abort_rate, 3),
               util::Table::fmt(hyb.abort_rate, 3),
               util::Table::fmt(rtm.fallback_rate, 3),
               util::Table::fmt(hyb.fallback_rate, 3)});
  }
  emit(t, args);

  util::Table t2({"writes/tx (disjoint)", "RTM speedup", "Hybrid speedup",
                  "RTM energy-eff", "Hybrid energy-eff", "RTM fallbacks",
                  "Hybrid fallbacks"});
  for (size_t i = 0; i < writes_per_tx.size(); ++i) {
    const EigenPoint& rtm = points[2 * (hot_bytes.size() + i)];
    const EigenPoint& hyb = points[2 * (hot_bytes.size() + i) + 1];
    t2.add_row({std::to_string(writes_per_tx[i]),
                util::Table::fmt(rtm.speedup, 2),
                util::Table::fmt(hyb.speedup, 2),
                util::Table::fmt(rtm.energy_eff, 2),
                util::Table::fmt(hyb.energy_eff, 2),
                util::Table::fmt(rtm.fallback_rate, 3),
                util::Table::fmt(hyb.fallback_rate, 3)});
  }
  emit(t2, args);
  return 0;
}
