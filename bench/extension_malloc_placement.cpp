// Extension: malloc placement as a first-class scenario axis (ROADMAP #4).
//
// Dice/Harris/Kogan/Lev observe that *where* the allocator places blocks
// decides whether HTM transactions abort: blocks packed into few L1 sets
// overflow the 8-way associativity long before the nominal write-set bound,
// while line-padded blocks waste capacity but never false-share. This
// driver sweeps mem::PlacementPolicy x threads over the allocation-heavy
// STAMP apps (vacation, intruder) under RTM and reports the Fig.-12-style
// abort split per cell plus the heap's own placement counters, so the
// policy -> MISC2 (write-capacity) causality is visible in one table.
//
// Expected shape: colored-pack concentrates every block into
// --malloc-pack-sets L1 sets, capping the usable write set at
// sets x ways lines — write-capacity aborts jump even single-threaded.
// padded spreads blocks line-exclusively: fewer conflict aborts at high
// threads, more refills/padding bytes. bump never reuses memory, so its
// footprint (and misc3 page-touch cost) grows monotonically.

#include "bench/stamp_driver.h"

using namespace tsx;
using namespace tsx::bench;

namespace {

struct PolicySpec {
  const char* name;       // table / label / CSV id
  mem::PlacementPolicy policy;
  uint32_t color_sets;    // kColored only: 0 = spread
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Ext/Malloc", "malloc placement policy vs RTM aborts",
               "allocator placement decides HTM capacity aborts (no paper "
               "figure; ROADMAP item 4)");

  const std::vector<PolicySpec> policies = {
      {"size-class", mem::PlacementPolicy::kSizeClass, 0},
      {"bump", mem::PlacementPolicy::kBumpPerThread, 0},
      {"padded", mem::PlacementPolicy::kPadded, 0},
      {"colored-spread", mem::PlacementPolicy::kColored, 0},
      {"colored-pack", mem::PlacementPolicy::kColored, 2},
  };
  const std::vector<uint32_t> threads = args.fast
                                            ? std::vector<uint32_t>{1, 4}
                                            : std::vector<uint32_t>{1, 2, 4, 8};

  // The allocation-heavy STAMP apps: vacation's sessions build/tear rbtree
  // and list nodes inside transactions; intruder churns fragment buffers.
  std::vector<StampApp> apps;
  for (const StampApp& a : stamp_apps()) {
    if (a.name == "vacation" || a.name == "intruder") apps.push_back(a);
  }

  const size_t reps = static_cast<size_t>(args.reps);
  std::vector<Cell<stamp::AppResult>> cells;
  for (const StampApp& app : apps) {
    for (const PolicySpec& p : policies) {
      for (uint32_t n : threads) {
        for (size_t rep = 0; rep < reps; ++rep) {
          uint64_t seed = 9300 + rep;
          cells.push_back(
              {"extension_malloc_placement:" + app.name + ":" + p.name + ":" +
                   std::to_string(n) + "t:rep" + std::to_string(rep),
               seed,
               [&app, p, n, seed, fast = args.fast](const std::string& label) {
                 // Per-cell policy override: the app lambda builds its
                 // RunConfig deep inside stamp_run_cfg.
                 HeapPolicyScope heap_scope(p.policy, p.color_sets);
                 return stamp_run(app, core::Backend::kRtm, n, fast, seed,
                                  label);
               }});
        }
      }
    }
  }
  std::vector<stamp::AppResult> samples =
      run_cells(args, "extension_malloc_placement", {}, cells);

  util::Table t({"app", "policy", "threads", "abort rate", "confl/read-cap",
                 "write-cap", "lock", "misc3", "misc5", "refills", "peak KiB",
                 "pad KiB", "max-set %"});
  // Like the other STAMP drivers, per-cell stats come from the last rep
  // (identical seeds => identical counters across reps).
  size_t last = reps - 1;
  for (const StampApp& app : apps) {
    for (const PolicySpec& p : policies) {
      for (uint32_t n : threads) {
        const core::RunReport& r = samples[last].report;
        last += reps;
        const htm::RtmStats& s = r.rtm;
        const mem::HeapStats& h = r.heap;
        double attempts =
            static_cast<double>(std::max<uint64_t>(s.attempts, 1));
        auto share = [&](htm::AbortClass cls) {
          return static_cast<double>(
                     s.aborts_by_class[static_cast<size_t>(cls)]) /
                 attempts;
        };
        uint64_t placed = 0, set_max = 0;
        for (uint64_t v : h.set_allocs) {
          placed += v;
          set_max = std::max(set_max, v);
        }
        double set_share = placed ? 100.0 * static_cast<double>(set_max) /
                                        static_cast<double>(placed)
                                  : 0.0;
        t.add_row(
            {app.name, p.name, std::to_string(n),
             util::Table::fmt(s.abort_rate(), 3),
             util::Table::fmt(share(htm::AbortClass::kConflictOrReadCap), 3),
             util::Table::fmt(share(htm::AbortClass::kWriteCapacity), 3),
             util::Table::fmt(share(htm::AbortClass::kLock), 3),
             util::Table::fmt(share(htm::AbortClass::kMisc3), 3),
             util::Table::fmt(share(htm::AbortClass::kMisc5), 3),
             std::to_string(h.refills), std::to_string(h.bytes_peak / 1024),
             std::to_string(h.bytes_padding / 1024),
             util::Table::fmt(set_share, 1)});
      }
    }
  }
  emit(t, args);
  std::cout
      << "Reading the split: write-cap is MISC2 (associativity/capacity\n"
         "overflow of the L1 write set). colored-pack confines placements\n"
         "to few sets, so transactions overflow sets x ways lines early;\n"
         "padded gives every block its own line(s) and shifts cost into\n"
         "refills/padding instead. max-set % is the share of placements\n"
         "landing on the hottest L1 set (100/sets = perfectly spread).\n";
  return 0;
}
