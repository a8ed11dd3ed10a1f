// Fig. 1: RTM read-set and write-set capacity test.
//
// Single thread; each transaction touches N distinct cache lines (read-only
// or write-only) and simply retries never — we measure the abort probability
// of a fresh attempt at each set size, exactly like the paper's custom
// microbenchmark. Expected shape: write-only aborts saturate at 512 lines
// (the L1d), read-only aborts at ~128K lines (the L3).

#include "bench/bench_common.h"
#include "htm/rtm.h"

using namespace tsx;

namespace {

// Returns the abort rate of transactions touching `lines` lines.
double capacity_abort_rate(uint64_t lines, bool writes, int attempts_per_size,
                           uint64_t seed, const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 1;
  cfg.machine.interrupts_enabled = false;  // isolate the capacity effect
  cfg.machine.seed = seed;
  bench::apply_settings(cfg, obs_label);

  core::TxRuntime rt(cfg);
  auto& m = rt.machine();
  // A contiguous region of `lines` lines, prefaulted and pre-touched so the
  // only abort cause left is capacity.
  sim::Addr base = rt.heap().host_alloc(lines * sim::kLineBytes, 64);

  uint64_t aborts = 0;
  rt.run([&](core::TxCtx& ctx) {
    (void)ctx;
    // Warm the region (brings lines into the hierarchy non-transactionally).
    for (uint64_t i = 0; i < lines; ++i) {
      m.load(base + i * sim::kLineBytes);
    }
    for (int a = 0; a < attempts_per_size; ++a) {
      htm::AttemptResult r = htm::attempt(m, [&] {
        for (uint64_t i = 0; i < lines; ++i) {
          sim::Addr addr = base + i * sim::kLineBytes;
          if (writes) {
            m.store(addr, a);
          } else {
            (void)m.load(addr);
          }
        }
      });
      if (!r.committed) ++aborts;
    }
  });
  return static_cast<double>(aborts) / attempts_per_size;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Fig. 1", "RTM read-set / write-set capacity",
      "write-only abort rate saturates at 512 cache blocks (L1d size); "
      "read-only abort rate saturates at 128K cache blocks (L3 size)");

  std::vector<uint64_t> sizes = {16,   64,    128,   256,   384,   512,
                                 768,  1024,  4096,  16384, 49152, 98304,
                                 131072, 196608};
  if (args.fast) {
    sizes = {64, 256, 512, 1024, 16384, 131072, 196608};
  }
  int attempts = args.fast ? 3 : 5;

  // One cell per (size, rep, write-only / read-only) run.
  std::vector<bench::Cell<double>> cells;
  for (uint64_t n : sizes) {
    for (int rep = 0; rep < args.reps; ++rep) {
      for (bool writes : {true, false}) {
        // Reads beyond the L3 get slow; cap the attempt count there.
        int a = writes || n <= 65536 ? attempts : 2;
        uint64_t seed = (writes ? 1000 : 2000) + rep;
        cells.push_back({std::string("fig01:") +
                             (writes ? "write-only:" : "read-only:") +
                             std::to_string(n) + ":rep" + std::to_string(rep),
                         seed, [=](const std::string& label) {
                           return capacity_abort_rate(n, writes, a, seed,
                                                      label);
                         }});
      }
    }
  }
  std::vector<double> rates =
      bench::run_cells(args, "fig01_capacity", {}, cells);

  util::Table t({"cache blocks", "write-only abort rate", "read-only abort rate"});
  size_t i = 0;
  for (uint64_t n : sizes) {
    double w = 0, r = 0;
    for (int rep = 0; rep < args.reps; ++rep) {
      w += rates[i++];
      r += rates[i++];
    }
    t.add_row({util::Table::fmt_int(static_cast<int64_t>(n)),
               util::Table::fmt(w / args.reps, 2),
               util::Table::fmt(r / args.reps, 2)});
  }
  bench::emit(t, args);

  std::cout << "Shape check: write-only aborts reach 1.0 by 512+ blocks while\n"
               "read-only transactions keep committing until the working set\n"
               "approaches the 131072-block L3.\n";
  return 0;
}
