#pragma once
// Shared plumbing for the figure/table reproduction drivers in bench/.
// Every driver prints (a) the paper's reference shape, (b) a table of
// simulated measurements, and (c) optionally CSV for post-processing.

#include <array>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/history.h"
#include "core/runtime.h"
#include "harness/runner.h"
#include "mem/sim_heap.h"
#include "obs/abort_report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/registry.h"
#include "util/flags.h"
#include "util/summary.h"
#include "util/table.h"

namespace tsx::bench {

// --trace / --abort-report / --perf-stat / --timeseries / --metrics /
// --flamegraph settings, parsed into a process-global so the drivers'
// run-config helpers (which never see BenchArgs) can consult them.
struct ObsSettings {
  bool trace = false;
  bool abort_report = false;
  bool perf_stat = false;
  bool timeseries = false;
  bool metrics = false;     // --metrics or --flamegraph
  core::Cycles metrics_window = 0;  // window length; 0 = one whole-run window
  bool enabled() const {
    return trace || abort_report || perf_stat || timeseries || metrics;
  }
};

inline ObsSettings& obs_settings() {
  static ObsSettings s;
  return s;
}

// --malloc-policy / --malloc-pack-sets settings. The process-global copy
// holds the flags; a thread-local copy, set by HeapPolicyScope around one
// cell, overrides them (extension_malloc_placement runs several policies in
// one process, and sweep jobs run concurrently on host threads).
struct HeapSettings {
  bool set = false;  // a policy was given
  mem::PlacementPolicy policy = mem::PlacementPolicy::kSizeClass;
  uint32_t color_sets = 0;  // kColored only: 0 = spread, N = pack into N sets
};

inline HeapSettings& heap_settings() {
  static HeapSettings s;
  return s;
}

inline HeapSettings& tls_heap_policy() {
  thread_local HeapSettings p;
  return p;
}

class HeapPolicyScope {
 public:
  HeapPolicyScope(mem::PlacementPolicy policy, uint32_t color_sets) {
    tls_heap_policy() = {true, policy, color_sets};
  }
  ~HeapPolicyScope() { tls_heap_policy() = HeapSettings{}; }
  HeapPolicyScope(const HeapPolicyScope&) = delete;
  HeapPolicyScope& operator=(const HeapPolicyScope&) = delete;
};

// Every RunConfig built inside a sweep cell passes through here. Each run
// gets the heap placement (a HeapPolicyScope wins over the flag; with
// neither the config is untouched, so default runs keep the size-class
// allocator). Only the one run a cell traces passes its label: baselines
// pass none and stay untraced, so the exporters see the measured runs only.
inline void apply_settings(core::RunConfig& cfg,
                           const std::string& obs_label = "") {
  const HeapSettings& heap =
      tls_heap_policy().set ? tls_heap_policy() : heap_settings();
  if (heap.set) {
    cfg.heap.policy = heap.policy;
    cfg.heap.color_sets = heap.color_sets;
  }
  const ObsSettings& s = obs_settings();
  if (!s.enabled() || obs_label.empty()) return;
  cfg.obs.enabled = true;
  cfg.obs.metrics.window_cycles = s.metrics_window;
  cfg.obs.label = obs_label;
}

// Parses a --malloc-policy value. "colored-spread" and "colored-pack" both
// map to kColored; pack uses --malloc-pack-sets (default 2) as color_sets.
inline mem::PlacementPolicy parse_malloc_policy(const std::string& name,
                                                bool* pack) {
  *pack = name == "colored-pack";
  if (name == "size-class") return mem::PlacementPolicy::kSizeClass;
  if (name == "bump") return mem::PlacementPolicy::kBumpPerThread;
  if (name == "padded") return mem::PlacementPolicy::kPadded;
  if (name == "colored-spread" || name == "colored" || *pack) {
    return mem::PlacementPolicy::kColored;
  }
  throw std::invalid_argument(
      "--malloc-policy must be one of size-class, bump, padded, "
      "colored-spread, colored-pack (got '" +
      name + "')");
}

// Label for runs whose RunConfig is built deep inside an app lambda (the
// STAMP drivers): ObsLabelScope sets it around the traced run and
// stamp_run_cfg picks it up. Thread-local because sweep jobs run
// concurrently on host threads.
inline std::string& tls_obs_label() {
  thread_local std::string label;
  return label;
}

class ObsLabelScope {
 public:
  explicit ObsLabelScope(std::string label) {
    tls_obs_label() = std::move(label);
  }
  ~ObsLabelScope() { tls_obs_label().clear(); }
  ObsLabelScope(const ObsLabelScope&) = delete;
  ObsLabelScope& operator=(const ObsLabelScope&) = delete;
};

// Drains the global capture registry when the last BenchArgs copy dies (end
// of main), so the exporters cover every traced run of the process. All
// outputs avoid stdout: each exporter writes to its file, or to stderr for
// the "-" destination — driver stdout stays byte-identical with
// observability on.
class ObsFlusher {
 public:
  // Destinations of the trace, abort report, perf stat, time series,
  // metrics and flame profile: "" = off, "-" = stderr, else a file path.
  explicit ObsFlusher(std::array<std::string, 6> dests)
      : dests_(std::move(dests)) {}
  ~ObsFlusher() {
    using Write = void (*)(std::ostream&, const std::vector<obs::Capture>&);
    std::vector<obs::Capture> caps = obs::Registry::global().drain();
    const std::pair<std::string, Write> exporters[] = {
        {std::to_string(caps.size()) + " capture(s)", &obs::write_chrome_trace},
        {"abort report", &obs::write_abort_report},
        {"perf stat", &obs::write_perf_stat},
        {"time series", &obs::write_timeseries_csv},
        {"metrics", &obs::write_openmetrics},
        {"flame profile", &obs::write_flamegraph}};
    for (size_t i = 0; i < dests_.size(); ++i) {
      const std::string& dest = dests_[i];
      const auto& [what, write] = exporters[i];
      if (dest.empty()) continue;
      if (dest == "-") {
        write(std::cerr, caps);
        continue;
      }
      std::ofstream out(dest);
      if (!out) {
        std::cerr << "[obs] cannot write " << what << " to '" << dest << "'\n";
        continue;
      }
      write(out, caps);
      std::cerr << "[obs] wrote " << what << " to " << dest << "\n";
    }
  }

 private:
  std::array<std::string, 6> dests_;
};

// The flags only some drivers read. A driver names the ones it reads when
// it parses its arguments; every other driver rejects them as unknown.
struct DriverFlags {
  // --verify: record every simulated access and check each run for
  // serializability via src/check (slower, opt-in).
  bool verify = false;
  // --energy-split: extra committed/wasted energy columns; the default
  // columns stay byte-identical.
  bool energy_split = false;
};

// Standard bench flags: --reps (seeds averaged), --csv, --fast (smaller
// workloads for smoke runs), --jobs N (host threads for the sweep harness;
// 0/default = all cores, 1 = the exact serial path; stdout is
// byte-identical for every N),
// --manifest[=FILE] (JSON run manifest to FILE, or stderr when bare),
// --trace[=FILE] (Chrome trace-event JSON of every measured run, default
// trace.json; load in Perfetto / chrome://tracing), --abort-report[=FILE]
// (per-call-site abort attribution table, to FILE or stderr when bare),
// --perf-stat[=FILE] (perf-stat-style simulated-PMU report per measured run,
// to FILE or stderr when bare), --timeseries[=FILE] (CSV of the counters
// at each window boundary, default timeseries.csv), --metrics[=FILE]
// (OpenMetrics text exposition of the per-window metric series per cell,
// default metrics.prom), --flamegraph[=FILE] (collapsed-stack wasted-cycle
// flame profile, default flamegraph.folded; feed to flamegraph.pl or
// speedscope), --metrics-window=CYCLES (the one window length: window
// deltas, the boundary snapshots behind --timeseries and the trace's
// counter tracks; defaults to 10000 when --metrics, --flamegraph or
// --timeseries is given),
// --progress[=BOOL] (force sweep progress lines on/off; default: only when
// stderr is a TTY, see harness::RunnerOptions::assume_tty),
// --malloc-policy=NAME (simulated-heap placement policy for every measured
// run: size-class (default), bump, padded, colored-spread, colored-pack;
// see mem::PlacementPolicy), --malloc-pack-sets=N (L1 sets colored-pack
// confines placements to; default 2).
struct BenchArgs {
  int reps = 2;
  bool csv = false;
  bool fast = false;
  bool verify = false;
  int jobs = 0;
  std::string manifest;
  bool energy_split = false;
  int progress = -1;        // -1 auto (isatty), 0 off, 1 on
  // Keeps the exporters alive until the last BenchArgs copy dies.
  std::shared_ptr<ObsFlusher> obs_flusher;

  // Exits 2 with a message on stderr for any usage error (malformed value,
  // duplicate/unknown flag, stray positional, a driver-specific flag the
  // driver does not read) — drivers never see a throw.
  static BenchArgs parse(int argc, char** argv, DriverFlags reads = {}) {
    try {
      util::Flags flags(argc, argv);
      BenchArgs a;
      a.reps = static_cast<int>(flags.get_int("reps", 2));
      a.csv = flags.get_bool("csv", false);
      a.fast = flags.get_bool("fast", false);
      if (reads.verify) a.verify = flags.get_bool("verify", false);
      a.jobs = static_cast<int>(flags.get_int("jobs", 0));
      if (a.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
      a.manifest = flags.get_string("manifest", "");
      // Exporter destinations, in ObsFlusher order; a bare flag picks the
      // exporter's default file, or stderr ("-") for the reports.
      auto dest = [&flags](const char* flag, const char* bare) {
        std::string d = flags.get_string(flag, "");
        return d == "true" ? std::string(bare) : d;
      };
      std::array<std::string, 6> dests = {
          dest("trace", "trace.json"), dest("abort-report", "-"),
          dest("perf-stat", "-"), dest("timeseries", "timeseries.csv"),
          dest("metrics", "metrics.prom"),
          dest("flamegraph", "flamegraph.folded")};
      int64_t mw = flags.get_int("metrics-window", 0);
      if (mw < 0) throw std::invalid_argument("--metrics-window must be >= 0");
      if (mw == 0 &&
          (!dests[3].empty() || !dests[4].empty() || !dests[5].empty())) {
        mw = 10000;  // window exports requested: a sane default window
      }
      if (reads.energy_split) {
        a.energy_split = flags.get_bool("energy-split", false);
      }
      a.progress = flags.has("progress")
                       ? (flags.get_bool("progress", true) ? 1 : 0)
                       : -1;
      int64_t pack_sets = flags.get_int("malloc-pack-sets", 2);
      if (pack_sets < 1) {
        throw std::invalid_argument("--malloc-pack-sets must be >= 1");
      }
      if (flags.has("malloc-policy")) {
        bool pack = false;
        mem::PlacementPolicy pol =
            parse_malloc_policy(flags.get_string("malloc-policy", ""), &pack);
        HeapSettings& hs = heap_settings();
        hs.set = true;
        hs.policy = pol;
        hs.color_sets = pack ? static_cast<uint32_t>(pack_sets) : 0;
      }
      auto un = flags.unconsumed();
      if (!un.empty()) {
        std::string msg = un.size() == 1 ? "unknown flag " : "unknown flags ";
        for (size_t i = 0; i < un.size(); ++i) {
          if (i) msg += ", ";
          msg += "--" + un[i];
        }
        throw std::invalid_argument(msg);
      }
      auto pos = flags.positional();
      if (!pos.empty()) {
        throw std::invalid_argument("unexpected argument '" + pos[0] +
                                    "' (benches take no positional arguments)");
      }
      ObsSettings& s = obs_settings();
      s.trace = !dests[0].empty();
      s.abort_report = !dests[1].empty();
      s.perf_stat = !dests[2].empty();
      s.timeseries = !dests[3].empty();
      s.metrics = !dests[4].empty() || !dests[5].empty();
      s.metrics_window = static_cast<core::Cycles>(mw);
      if (s.enabled()) a.obs_flusher = std::make_shared<ObsFlusher>(dests);
      return a;
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  }
};

// Builds the Runner options for a driver's sweep: thread count and manifest
// destination from the flags, bench id and config digest from the driver.
// With obs on, the manifest also carries the registry's counter digests and
// lock/heap totals (label-sorted and non-destructive, hence --jobs-invariant;
// the flusher still drains the captures afterwards).
inline harness::RunnerOptions runner_options(const BenchArgs& args,
                                             const std::string& bench_id,
                                             uint64_t config_digest) {
  harness::RunnerOptions opt;
  opt.jobs = static_cast<unsigned>(args.jobs);
  opt.bench_id = bench_id;
  opt.config_digest = config_digest;
  opt.manifest = args.manifest;
  opt.assume_tty = args.progress;
  if (obs_settings().enabled()) {
    opt.manifest_members_fn = [](std::ostream& os) {
      obs::Registry::global().write_manifest_members(os);
    };
  }
  return opt;
}

// One cell of a driver's sweep: `label` names it in the manifest and is the
// obs label of the one run it traces, `seed` is recorded in the manifest,
// and `run` computes the cell's result from its label. `cost` is an
// optional relative cost hint (harness::Job::cost): with --jobs > 1 the
// costliest cells start first.
template <typename T>
struct Cell {
  std::string label;
  uint64_t seed = 0;
  std::function<T(const std::string& label)> run;
  double cost = 0;
};

// The one way a driver runs its simulations: every cell through
// harness::Runner (--jobs, --manifest, --progress), results in cell order.
// Aggregating them in that order keeps stdout byte-identical for any --jobs.
// The manifest's config digest is `config` plus --fast and every cell label,
// so a driver adds only the parameters its labels do not show. Labels must
// be unique — the registry sorts captures by label, so two cells sharing
// one would leave the exporters' order to the host schedule — and a
// duplicate throws std::invalid_argument before any cell runs. A failed
// cell (a validation error, a --verify violation) prints the lowest-indexed
// failure and exits 1.
template <typename T>
std::vector<T> run_cells(const BenchArgs& args, const std::string& bench_id,
                         harness::Digest config,
                         const std::vector<Cell<T>>& cells) {
  std::set<std::string> labels;
  config.add(args.fast);
  for (const Cell<T>& c : cells) {
    if (!labels.insert(c.label).second) {
      throw std::invalid_argument(bench_id + ": duplicate cell label '" +
                                  c.label + "'");
    }
    config.add(c.label);
  }
  harness::Runner runner(runner_options(args, bench_id, config.value()));
  try {
    return runner.map<T>(
        cells.size(),
        [&cells](size_t i) { return cells[i].run(cells[i].label); },
        [&cells](size_t i) {
          harness::Job j;
          j.seed = cells[i].seed;
          j.label = cells[i].label;
          j.cost = cells[i].cost;
          return j;
        });
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
}

// Opt-in history verification for benches that own their TxRuntime:
// construct (with args.verify) before rt.run(), call check() after. A
// serializability violation throws with a diagnosis, which fails the cell
// (run_cells exits 1) — measurements from a non-serializable run would be
// meaningless.
class HistoryVerifier {
 public:
  HistoryVerifier(core::TxRuntime& rt, bool enabled) : rt_(&rt) {
    if (enabled) rec_ = std::make_unique<check::Recorder>(rt);
  }

  void check(const std::string& what) {
    if (!rec_) return;
    check::CheckResult cr = check::check_history(rec_->history(), *rt_);
    if (!cr.ok) {
      throw std::runtime_error("--verify FAILED (" + what + "): " + cr.error);
    }
  }

 private:
  core::TxRuntime* rt_;
  std::unique_ptr<check::Recorder> rec_;
};

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& paper_reference) {
  std::cout << "==== " << id << ": " << title << " ====\n";
  std::cout << "Paper reference: " << paper_reference << "\n\n";
}

inline void emit(const util::Table& t, const BenchArgs& args) {
  t.print(std::cout);
  if (args.csv) {
    std::cout << "\nCSV:\n";
    t.print_csv(std::cout);
  }
  std::cout << "\n";
}

}  // namespace tsx::bench
