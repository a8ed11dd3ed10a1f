// Table V: vacation — baseline vs §V-B optimized code (merged lookups, head
// insertion, pre-faulting allocator), 1/2/4 threads under RTM, "-u 100"
// (reservation sessions only), reduced database size.
//
// Paper reference: ~25% execution-time reduction at every thread count,
// abort rate 0.21 -> 0.07 at 4 threads, ~10% shorter transactions, page-
// fault (HLE-unfriendly/misc3) aborts virtually eliminated, misc5 gaining
// relative weight after the fix.

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Table V", "vacation: baseline vs optimized (§V-B)",
               "~25% time reduction, abort rate 0.21->0.07 (4t), misc3/page-"
               "fault aborts eliminated, misc5 gains relative share");

  stamp::VacationConfig base;
  base.relations = args.fast ? 512 : 1024;
  base.customers = 256;
  base.reserve_pct = 100;  // "-u 100": user (reservation) sessions only
  stamp::VacationConfig opt = base;
  opt.optimized = true;

  util::Table t({"version", "threads", "Mcycles", "% reduc", "speedup",
                 "cycles/tx", "abort rate", "%mem", "%pf(misc3)", "%other"});

  // All (version, threads, rep) runs are independent; fan them out through
  // the sweep harness in serial nesting order, then aggregate below in that
  // same order (byte-identical stdout for any --jobs).
  harness::Digest dig;
  dig.add(base.relations);
  dig.add(base.customers);
  dig.add(base.reserve_pct);
  std::vector<Cell<stamp::AppResult>> cells;
  for (bool optimized : {false, true}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (int rep = 0; rep < args.reps; ++rep) {
        uint64_t seed = 9200 + rep;
        cells.push_back(
            {std::string("table5:") + (optimized ? "opt" : "base") + ":" +
                 std::to_string(threads) + "t:rep" + std::to_string(rep),
             seed, [&, optimized, threads, seed](const std::string& label) {
               stamp::VacationConfig app = optimized ? opt : base;
               app.sessions_per_thread = (args.fast ? 1200u : 3600u) / threads;
               // RTM on the scaled STAMP machine; --fast only shrinks
               // the input, not the (unused) STM lock table.
               core::RunConfig cfg = stamp_run_cfg(core::Backend::kRtm,
                                                   threads, seed, false);
               apply_settings(cfg, label);
               auto res = stamp::run_vacation(cfg, app);
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
      run_cells(args, "table5_vacation", dig, cells);

  std::array<double, 3> base_time{};
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

      const htm::RtmStats& s = last.report.rtm;
      htm::RtmStats reserve =
          last.report.site_stats(stamp::kVacationSiteReserve);
      double cycles_per_tx = static_cast<double>(reserve.cycles_committed) /
                             std::max<uint64_t>(reserve.commits, 1);
      double aborts = static_cast<double>(std::max<uint64_t>(s.aborts(), 1));
      double mem_share =
          (s.aborts_by_class[size_t(htm::AbortClass::kConflictOrReadCap)] +
           s.aborts_by_class[size_t(htm::AbortClass::kWriteCapacity)]) /
          aborts;
      double pf_share =
          s.aborts_by_reason[size_t(sim::AbortReason::kPageFault)] / aborts;
      double other = 1.0 - mem_share - pf_share;
      double reduc = optimized ? 100.0 * (1.0 - time / base_time[tidx]) : 0.0;

      t.add_row({optimized ? "Opt" : "Base", std::to_string(threads),
                 util::Table::fmt(time / 1e6, 2),
                 optimized ? util::Table::fmt(reduc, 1) : "-",
                 util::Table::fmt(one_thread_time / time, 2),
                 util::Table::fmt(cycles_per_tx, 0),
                 util::Table::fmt(s.abort_rate(), 3),
                 util::Table::fmt(s.aborts() ? mem_share : 0.0, 2),
                 util::Table::fmt(s.aborts() ? pf_share : 0.0, 2),
                 util::Table::fmt(s.aborts() ? other : 0.0, 2)});
    }
  }
  emit(t, args);
  return 0;
}
