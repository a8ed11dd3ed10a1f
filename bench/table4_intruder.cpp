// Table IV: intruder — baseline vs §V-A optimized code (prepend + deferred
// sort), at 1/2/4 threads under RTM.
//
// Paper reference: ~48% execution-time reduction at every thread count,
// abort rate 0.28 -> 0.14 at 4 threads, cycles/tx halved (~1800 -> ~900),
// and TID1 memory-induced aborts (capacity+conflict) dropping from 86% to
// 36% single-threaded.

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Table IV", "intruder: baseline vs optimized (§V-A)",
               "~48% time reduction, abort rate halved, cycles/tx ~1800->900, "
               "TID1 capacity+conflict share 86%->36% (1 thread)");

  // Long flows, like the paper's recommended large input: the reassembly
  // list walk dominates the transaction.
  stamp::IntruderConfig base;
  base.flows = args.fast ? 48 : 128;
  base.max_fragments = 160;
  stamp::IntruderConfig opt = base;
  opt.optimized = true;

  util::Table t({"version", "threads", "Mcycles", "% reduc", "speedup",
                 "cycles/tx", "abort rate", "TID1 abort", "TID1 %cap",
                 "TID1 %confl", "TID1 %other"});

  // All (version, threads, rep) runs are independent; fan them out through
  // the sweep harness in serial nesting order, then aggregate below in that
  // same order (byte-identical stdout for any --jobs).
  harness::Digest dig;
  dig.add(base.flows);
  dig.add(base.max_fragments);
  std::vector<Cell<stamp::AppResult>> cells;
  for (bool optimized : {false, true}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (int rep = 0; rep < args.reps; ++rep) {
        uint64_t seed = 9100 + rep;
        cells.push_back(
            {std::string("table4:") + (optimized ? "opt" : "base") + ":" +
                 std::to_string(threads) + "t:rep" + std::to_string(rep),
             seed, [&, optimized, threads, seed](const std::string& label) {
               // RTM on the scaled STAMP machine; --fast only shrinks
               // the input, not the (unused) STM lock table.
               core::RunConfig cfg = stamp_run_cfg(core::Backend::kRtm,
                                                   threads, seed, false);
               apply_settings(cfg, label);
               auto res = stamp::run_intruder(cfg, optimized ? opt : base);
               if (!res.valid) {
                 throw std::runtime_error("VALIDATION FAILED: " +
                                          res.validation_message);
               }
               return res;
             }});
      }
    }
  }
  std::vector<stamp::AppResult> results =
      run_cells(args, "table4_intruder", dig, cells);

  std::array<double, 4> base_time{};  // per-thread-count baseline times
  size_t job = 0;
  for (bool optimized : {false, true}) {
    double one_thread_time = 0;
    for (uint32_t threads : {1u, 2u, 4u}) {
      std::vector<double> times;
      stamp::AppResult last;
      for (int rep = 0; rep < args.reps; ++rep) {
        const auto& res = results[job++];
        times.push_back(static_cast<double>(res.report.wall_cycles));
        last = res;
      }
      double time = util::mean(times);
      if (threads == 1) one_thread_time = time;
      size_t tidx = threads == 1 ? 0 : (threads == 2 ? 1 : 2);
      if (!optimized) base_time[tidx] = time;

      htm::RtmStats overall = last.report.rtm;
      htm::RtmStats tid1 =
          last.report.site_stats(stamp::kIntruderSiteReassembly);
      double cycles_per_tx =
          static_cast<double>(tid1.cycles_committed) /
          std::max<uint64_t>(tid1.commits, 1);
      double tid1_aborts = static_cast<double>(tid1.aborts());
      auto cls = [&](htm::AbortClass c) {
        return tid1_aborts == 0
                   ? 0.0
                   : tid1.aborts_by_class[static_cast<size_t>(c)] / tid1_aborts;
      };
      double pct_cap = cls(htm::AbortClass::kWriteCapacity);
      double pct_confl = cls(htm::AbortClass::kConflictOrReadCap);
      double pct_other = 1.0 - pct_cap - pct_confl;
      double reduc = optimized ? 100.0 * (1.0 - time / base_time[tidx]) : 0.0;

      t.add_row({optimized ? "Opt" : "Base", std::to_string(threads),
                 util::Table::fmt(time / 1e6, 2),
                 optimized ? util::Table::fmt(reduc, 1) : "-",
                 util::Table::fmt(one_thread_time / time, 2),
                 util::Table::fmt(cycles_per_tx, 0),
                 util::Table::fmt(overall.abort_rate(), 2),
                 util::Table::fmt(tid1.abort_rate(), 2),
                 util::Table::fmt(pct_cap, 2), util::Table::fmt(pct_confl, 2),
                 util::Table::fmt(pct_other, 2)});
    }
  }
  emit(t, args);
  return 0;
}
