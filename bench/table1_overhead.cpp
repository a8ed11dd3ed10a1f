// Table I: relative overheads of RTM versus locks and CAS on the STAMP
// queue-drain microbenchmark, normalized to the spinlock variant.
//
// Paper reference values (execution time / lock time):
//   contention  None   Lock  CAS   RTM
//   none        0.64   1     1.05  1.45
//   low         n/a    1     0.64  0.69
//   high        n/a    1     0.64  0.47

#include "bench/bench_common.h"
#include "htm/rtm.h"
#include "stamp/apps/app.h"
#include "stamp/lib/queue.h"
#include "sync/spinlock.h"

using namespace tsx;

namespace {

enum class Sync { kNone, kLock, kCas, kRtm };

// Drains a prefilled queue with the given synchronization; returns the
// wall-cycles of the drain (measured region only).
double drain_cycles(Sync sync, uint32_t threads, uint64_t elements,
                    sim::Cycles local_work, uint64_t seed,
                    const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kSeq;  // synchronization is managed here
  cfg.threads = threads;
  cfg.machine.seed = seed;
  bench::apply_settings(cfg, obs_label);
  core::TxRuntime rt(cfg);
  auto& m = rt.machine();

  stamp::Queue q = stamp::Queue::create(rt, elements);
  for (uint64_t i = 0; i < elements; ++i) q.host_push(rt, i + 1);
  // Prefault the queue's element pages (drain reads all of them).
  sim::Addr lock_mem = rt.heap().host_alloc(256, 64);
  sync::TicketSpinLock lock(m, lock_mem);
  lock.init();

  rt.run([&](core::TxCtx& ctx) {
    stamp::measured_region_begin(ctx);
    sim::Word v = 0;
    for (;;) {
      bool got = false;
      switch (sync) {
        case Sync::kNone:
          got = q.pop(ctx, &v);
          break;
        case Sync::kLock:
          lock.lock();
          got = q.pop(ctx, &v);
          lock.unlock();
          break;
        case Sync::kCas:
          got = q.pop_cas(ctx, &v);
          break;
        case Sync::kRtm: {
          for (;;) {
            htm::AttemptResult r =
                htm::attempt(m, [&] { got = q.pop(ctx, &v); });
            if (r.committed) break;
          }
          break;
        }
      }
      if (!got) break;
      if (local_work) ctx.compute(local_work);
    }
  });
  return static_cast<double>(rt.report().wall_cycles);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Table I", "queue-pop overhead: None / Lock / CAS / RTM",
      "none: RTM ~1.45x lock, CAS ~1.05x; low contention: CAS 0.64 / RTM "
      "0.69; high contention: CAS 0.64 / RTM 0.47 (normalized to Lock)");

  uint64_t elements = args.fast ? 20'000 : 100'000;  // paper uses 1M; scaled

  struct Row {
    const char* name;
    uint32_t threads;
    sim::Cycles local_work;
    bool include_none;
  };
  std::vector<Row> rows = {
      {"none", 1, 0, true},
      {"low", 4, 500, false},  // local work between critical sections
      {"high", 4, 0, false},
  };

  // One cell per (contention row, rep, sync variant) — every drain is an
  // independent simulation. The cells are laid out in the serial nesting
  // order (row -> rep -> sync), and sums are accumulated in that same order
  // after the harness returns, so stdout is byte-identical for any --jobs.
  const std::pair<Sync, const char*> syncs[] = {{Sync::kNone, "none"},
                                                {Sync::kLock, "lock"},
                                                {Sync::kCas, "cas"},
                                                {Sync::kRtm, "rtm"}};
  harness::Digest dig;
  dig.add(elements);
  std::vector<bench::Cell<double>> cells;
  for (const Row& row : rows) {
    dig.add(row.threads);
    dig.add(row.local_work);
    for (int rep = 0; rep < args.reps; ++rep) {
      for (auto [sync, sync_name] : syncs) {
        if (sync == Sync::kNone && !row.include_none) continue;
        uint64_t seed = 5000 + static_cast<uint64_t>(rep);
        cells.push_back({std::string("table1:") + row.name + ":" + sync_name +
                             ":rep" + std::to_string(rep),
                         seed, [=, &row](const std::string& label) {
                           return drain_cycles(sync, row.threads, elements,
                                               row.local_work, seed, label);
                         }});
      }
    }
  }
  std::vector<double> cycles =
      bench::run_cells(args, "table1_overhead", dig, cells);

  util::Table t({"contention", "None", "Lock", "CAS", "RTM"});
  {
    size_t i = 0;
    for (const auto& row : rows) {
      double none = 0, lck = 0, cas = 0, rtm = 0;
      for (int rep = 0; rep < args.reps; ++rep) {
        if (row.include_none) none += cycles[i++];
        lck += cycles[i++];
        cas += cycles[i++];
        rtm += cycles[i++];
      }
      t.add_row({row.name,
                 row.include_none ? util::Table::fmt(none / lck, 2) : "-",
                 "1.00", util::Table::fmt(cas / lck, 2),
                 util::Table::fmt(rtm / lck, 2)});
    }
  }
  bench::emit(t, args);
  std::cout << "Shape check: RTM loses without contention (begin/commit "
               "overhead) and wins under high contention (no hold-and-wait).\n";
  return 0;
}
