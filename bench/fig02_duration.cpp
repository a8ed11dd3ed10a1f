// Fig. 2: RTM abort rate vs transaction duration.
//
// Single thread, 64-byte working set, zero writes — the only remaining
// abort source is asynchronous events (timer interrupts), so the abort rate
// follows 1 - exp(-T/mean_interrupt_interval). Paper shape: duration starts
// to matter beyond ~30K cycles; at >= 10M cycles every transaction aborts.

#include "bench/bench_common.h"
#include "htm/rtm.h"

using namespace tsx;

namespace {

double duration_abort_rate(sim::Cycles target_cycles, int attempts,
                           uint64_t seed, const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 1;
  cfg.machine.seed = seed;  // interrupts stay ENABLED: they are the subject
  bench::apply_settings(cfg, obs_label);
  core::TxRuntime rt(cfg);
  auto& m = rt.machine();
  sim::Addr data = rt.heap().host_alloc(64, 64);

  uint64_t aborts = 0;
  rt.run([&](core::TxCtx& ctx) {
    (void)ctx;
    m.load(data);  // warm the line
    for (int a = 0; a < attempts; ++a) {
      htm::AttemptResult r = htm::attempt(m, [&] {
        // The paper pads duration with reads of a 64 B set; we model each
        // read as an L1 hit plus its surrounding loop work (~16 cycles per
        // iteration), issued in small quanta so interrupt delivery keeps
        // per-op granularity.
        sim::Cycles spent = 0;
        while (spent < target_cycles) {
          m.load(data);
          m.compute(250);
          spent += 255;
        }
      });
      if (!r.committed) ++aborts;
    }
  });
  return static_cast<double>(aborts) / attempts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 2", "RTM abort rate vs transaction duration",
                      "abort rate rises past ~30K cycles and reaches 1.0 by "
                      "~10M cycles (timer-interrupt driven)");

  std::vector<uint64_t> durations = {1'000,     3'000,     10'000,   30'000,
                                     100'000,   300'000,   1'000'000,
                                     3'000'000, 10'000'000};
  if (args.fast) {
    durations = {1'000, 30'000, 300'000, 3'000'000, 10'000'000};
  }

  std::vector<bench::Cell<double>> cells;
  for (uint64_t d : durations) {
    // Long transactions are expensive to simulate; scale the attempt count.
    int attempts = d >= 1'000'000 ? 12 : 40;
    for (int rep = 0; rep < args.reps; ++rep) {
      uint64_t seed = 4000 + rep;
      cells.push_back({"fig02:" + std::to_string(d) + ":rep" +
                           std::to_string(rep),
                       seed, [=](const std::string& label) {
                         return duration_abort_rate(d, attempts, seed, label);
                       }});
    }
  }
  std::vector<double> rates =
      bench::run_cells(args, "fig02_duration", {}, cells);

  util::Table t({"tx duration (cycles)", "abort rate", "expected 1-exp(-T/mean)"});
  core::RunConfig ref_cfg;
  double mean = ref_cfg.machine.interrupt_mean_cycles;
  size_t i = 0;
  for (uint64_t d : durations) {
    double rate = 0;
    for (int rep = 0; rep < args.reps; ++rep) rate += rates[i++];
    rate /= args.reps;
    double expected = 1.0 - std::exp(-static_cast<double>(d) / mean);
    t.add_row({util::Table::fmt_int(static_cast<int64_t>(d)),
               util::Table::fmt(rate, 3), util::Table::fmt(expected, 3)});
  }
  bench::emit(t, args);
  std::cout << "Shape check: negligible below ~30K cycles, saturating by 10M.\n";
  return 0;
}
