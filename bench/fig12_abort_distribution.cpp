// Fig. 12: RTM abort-rate distribution per STAMP application, broken into
// the paper's Table III categories:
//   data-conflict/read-capacity (indistinguishable on the hardware),
//   write-capacity, lock (serial-fallback acquisitions), misc3
//   (explicit/page-fault/unsupported), misc5 (interrupts etc.).
//
// Paper observation reproduced here: as thread counts grow, the lock-abort
// share grows (each fallback acquisition aborts up to N-1 transactions) and
// masks other abort types.

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Fig. 12", "RTM abort distribution for STAMP",
               "per-app abort rate split by class; lock aborts grow with "
               "thread count");

  std::vector<uint32_t> threads = {1, 2, 4, 8};
  std::vector<StampTask> tasks;
  for (const auto& app : stamp_apps()) {
    for (uint32_t n : threads) {
      tasks.push_back({app, core::Backend::kRtm, n, 9000});
    }
  }
  // The RTM half of fig10's grid, simulated again under this driver's own
  // cell labels (its perf-stat golden pins them); no SEQ baseline is needed.
  std::vector<stamp::AppResult> runs =
      stamp_reps("fig12_abort_distribution", tasks, args, &stamp_run);

  util::Table t({"app", "threads", "abort rate", "confl/read-cap",
                 "write-cap", "lock", "misc3", "misc5"});
  const size_t reps = static_cast<size_t>(args.reps);
  for (size_t i = 0; i < tasks.size(); ++i) {
    // Per-cell stats come from the last rep, like the other STAMP drivers.
    const htm::RtmStats& s = runs[i * reps + reps - 1].report.rtm;
    double attempts = static_cast<double>(std::max<uint64_t>(s.attempts, 1));
    auto share = [&](htm::AbortClass c) {
      return static_cast<double>(s.aborts_by_class[static_cast<size_t>(c)]) /
             attempts;
    };
    t.add_row({tasks[i].app.name, std::to_string(tasks[i].threads),
               util::Table::fmt(s.abort_rate(), 3),
               util::Table::fmt(share(htm::AbortClass::kConflictOrReadCap), 3),
               util::Table::fmt(share(htm::AbortClass::kWriteCapacity), 3),
               util::Table::fmt(share(htm::AbortClass::kLock), 3),
               util::Table::fmt(share(htm::AbortClass::kMisc3), 3),
               util::Table::fmt(share(htm::AbortClass::kMisc5), 3)});
  }
  emit(t, args);
  std::cout
      << "Table III mapping: conflict & read-capacity merge into MISC1 and\n"
         "are not distinguishable; lock aborts surface as conflict or\n"
         "explicit aborts caused by the serialization lock.\n";
  return 0;
}
