// Ablation: the fallback lock-subscription policy of Algorithm 1.
//
// The paper's pseudocode reads the serial lock *inside* the transaction
// (subscribe-in-tx), so a fallback acquisition aborts all speculative
// transactions immediately ("lock aborts"). It also notes the alternative:
// reading the lock before the transaction lets doomed transactions keep
// running and abort later for other reasons — avoiding lock aborts does not
// necessarily help because they mask other abort types.
//
// Both modes still read the lock inside the transaction, so both are safe.
// Dropping the in-transaction read is not a mode: a serial section could
// then run concurrently with speculative ones and lose their updates.

#include "bench/bench_common.h"
#include "stamp/apps/intruder.h"

using namespace tsx;
using namespace tsx::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ablation", "fallback lock-subscription policy",
               "subscribe-in-tx (paper) vs wait-then-subscribe; lock aborts "
               "shift into other abort classes, not into free performance");

  const core::LockSubscription modes[] = {
      core::LockSubscription::kSubscribeInTx,
      core::LockSubscription::kWaitThenSubscribe};
  auto mode_name = [](core::LockSubscription mode) {
    return mode == core::LockSubscription::kSubscribeInTx
               ? "subscribe-in-tx"
               : "wait-then-subscribe";
  };
  stamp::IntruderConfig app;
  app.flows = args.fast ? 128 : 384;
  app.max_fragments = 12;

  std::vector<Cell<stamp::AppResult>> cells;
  for (auto mode : modes) {
    for (int rep = 0; rep < args.reps; ++rep) {
      uint64_t seed = 9400 + rep;
      cells.push_back({std::string("lock_subscription:") + mode_name(mode) +
                           ":rep" + std::to_string(rep),
                       seed, [=](const std::string& label) {
                         core::RunConfig cfg;
                         cfg.backend = core::Backend::kRtm;
                         cfg.threads = 4;
                         cfg.retry.subscription = mode;
                         cfg.machine.seed = seed;
                         cfg.seed = cfg.machine.seed;
                         apply_settings(cfg, label);
                         auto res = stamp::run_intruder(cfg, app);
                         if (!res.valid) {
                           throw std::runtime_error("invalid: " +
                                                    res.validation_message);
                         }
                         return res;
                       }});
    }
  }
  std::vector<stamp::AppResult> results =
      run_cells(args, "ablation_lock_subscription", {}, cells);

  util::Table t({"policy", "Mcycles", "abort rate", "lock-abort share",
                 "confl share", "fallback rate"});
  size_t i = 0;
  for (auto mode : modes) {
    std::vector<double> time, ar, lock_share, confl_share, fb;
    for (int rep = 0; rep < args.reps; ++rep) {
      const stamp::AppResult& res = results[i++];
      const htm::RtmStats& s = res.report.rtm;
      double aborts = static_cast<double>(std::max<uint64_t>(s.aborts(), 1));
      time.push_back(res.report.wall_cycles / 1e6);
      ar.push_back(s.abort_rate());
      lock_share.push_back(
          s.aborts_by_class[size_t(htm::AbortClass::kLock)] / aborts);
      confl_share.push_back(
          s.aborts_by_class[size_t(htm::AbortClass::kConflictOrReadCap)] /
          aborts);
      fb.push_back(s.fallback_rate());
    }
    t.add_row({mode_name(mode), util::Table::fmt(util::mean(time), 2),
               util::Table::fmt(util::mean(ar), 3),
               util::Table::fmt(util::mean(lock_share), 3),
               util::Table::fmt(util::mean(confl_share), 3),
               util::Table::fmt(util::mean(fb), 3)});
  }
  emit(t, args);
  return 0;
}
