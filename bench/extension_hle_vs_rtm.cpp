// Extension: HLE vs RTM-with-fallback on the same critical sections.
//
// The paper introduces both TSX interfaces (§I) but evaluates RTM; this
// extension measures what it would have cost to use HLE instead. HLE's
// hardware-fixed policy (elide once, then take the real lock — aborting
// every concurrent elided section) loses against Algorithm 1's software
// retry budget as contention grows, and ties it when sections are disjoint.

#include "bench/bench_common.h"
#include "stamp/apps/app.h"

using namespace tsx;
using namespace tsx::bench;

namespace {

struct Point {
  double wall_mcycles;
  double serial_rate;  // fallbacks (report.rtm.fallbacks) per section
};

// `shared_fraction`: probability a section touches the shared line instead
// of a thread-private one.
Point run_sections(core::Backend backend, double shared_fraction, int iters,
                   uint64_t seed, bool verify, const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = backend;
  cfg.threads = 4;
  cfg.machine.seed = seed;
  cfg.seed = seed;
  apply_settings(cfg, obs_label);
  core::TxRuntime rt(cfg);
  sim::Addr shared = rt.heap().host_alloc(64, 64);
  std::array<sim::Addr, 4> priv{};
  for (int t = 0; t < 4; ++t) priv[t] = rt.heap().host_alloc(64, 64);

  HistoryVerifier verifier(rt, verify);
  rt.run([&](core::TxCtx& ctx) {
    sim::Rng& rng = ctx.rng();
    stamp::measured_region_begin(ctx);
    for (int i = 0; i < iters; ++i) {
      sim::Addr target = rng.chance(shared_fraction) ? shared : priv[ctx.id()];
      ctx.transaction([&] {
        sim::Word v = ctx.load(target);
        ctx.compute(40);
        ctx.store(target, v + 1);
      });
      ctx.compute(100);
    }
  });
  verifier.check(std::string(core::backend_name(backend)) + " sections");
  core::RunReport rep = rt.report();
  double sections = 4.0 * iters;
  return {rep.wall_cycles / 1e6,
          static_cast<double>(rep.rtm.fallbacks) / sections};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv, {.verify = true});
  print_header("Extension", "HLE vs RTM (Algorithm 1) on elided sections",
               "HLE's single hardware retry serializes under contention; "
               "RTM's software retry budget absorbs transient conflicts");

  int iters = args.fast ? 300 : 1000;
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<Cell<Point>> cells;
  for (double f : fractions) {
    for (int rep = 0; rep < args.reps; ++rep) {
      for (core::Backend b : {core::Backend::kHle, core::Backend::kRtm}) {
        uint64_t seed = 9950 + rep;
        cells.push_back(
            {"hle_vs_rtm:" + util::Table::fmt(f, 2) + ":" +
                 core::backend_name(b) + ":rep" + std::to_string(rep),
             seed, [=, verify = args.verify](const std::string& label) {
               return run_sections(b, f, iters, seed, verify, label);
             }});
      }
    }
  }
  std::vector<Point> points =
      run_cells(args, "extension_hle_vs_rtm", {}, cells);

  util::Table t({"shared fraction", "HLE Mcycles", "RTM Mcycles",
                 "HLE serializations/section", "RTM fallbacks/section"});
  size_t i = 0;
  for (double f : fractions) {
    std::vector<double> hw, rw, hs, rs;
    for (int rep = 0; rep < args.reps; ++rep) {
      const Point& h = points[i++];
      const Point& r = points[i++];
      hw.push_back(h.wall_mcycles);
      rw.push_back(r.wall_mcycles);
      hs.push_back(h.serial_rate);
      rs.push_back(r.serial_rate);
    }
    t.add_row({util::Table::fmt(f, 2), util::Table::fmt(util::mean(hw), 3),
               util::Table::fmt(util::mean(rw), 3),
               util::Table::fmt(util::mean(hs), 3),
               util::Table::fmt(util::mean(rs), 3)});
  }
  emit(t, args);
  return 0;
}
