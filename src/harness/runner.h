#pragma once
// bench::Runner lives here: a thread pool that fans a vector of independent
// simulation Jobs across host cores and aggregates results *in index order*,
// so driver output is byte-identical regardless of completion order or
// thread count.
//
// Safety precondition (audited in DESIGN/tests): a tsxlab simulation
// (TxRuntime + Machine + SimHeap + fibers) is a self-contained object graph
// with no mutable global state, and a Fiber is created, resumed and
// destroyed on one host thread only. Hence any number of *distinct*
// TxRuntime instances may run on distinct host threads concurrently; a Job
// must simply own every runtime it touches. tests/test_harness.cpp proves
// the determinism end-to-end (jobs=1 vs jobs=8 digests).
//
// Exactness guarantees:
//   * jobs = 1 runs every Job inline on the calling thread, in index order —
//     today's serial path, byte for byte (no pool is spawned).
//   * jobs > 1 runs Jobs on a pool, starting them in descending Job::cost
//     (index breaks ties) so a sweep's costliest jobs do not start last;
//     each Job writes only its own result slot (closure capture), and
//     callers read the slots in index order after run() returns, so
//     aggregation order — including floating-point summation order —
//     matches the serial path.
//   * If Jobs throw, run() rethrows the exception of the lowest-indexed
//     failed Job after the pool drains (deterministic failure choice).
//
// Progress goes to stderr (throttled); stdout stays owned by the driver.
// An optional JSON run manifest (bench id, config digest, per-job seed and
// wall time) supports reproducibility audits; see EXPERIMENTS.md §"Running
// sweeps in parallel".

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace tsx::harness {

// FNV-1a accumulator for the manifest's sim-config digest. Drivers feed the
// fields that determine their workload (backend ids, thread counts, sweep
// parameters, seeds); equal digests => same job grid.
class Digest {
 public:
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  void add(T v) {
    add_u64(static_cast<uint64_t>(v));
  }
  void add(double v);
  void add(const std::string& s);
  uint64_t value() const { return h_; }
  std::string hex() const { return hex(h_); }
  static std::string hex(uint64_t v);  // "0x" + 16 lowercase hex digits

 private:
  void add_u64(uint64_t v);
  void bytes(const void* p, size_t n);
  uint64_t h_ = 14695981039346656037ull;
};

struct Job {
  // Runs the simulation and stores its result via closure capture. Must not
  // touch stdout and must own every TxRuntime/Machine it creates.
  std::function<void()> fn;
  // Recorded in the manifest; purely descriptive.
  uint64_t seed = 0;
  std::string label;
  // Relative cost hint, in any unit shared by one run's jobs: the pool
  // (jobs > 1) starts costlier jobs first. Results, the manifest and the
  // serial path ignore it.
  double cost = 0;
};

struct RunnerOptions {
  // Worker threads; 0 = std::thread::hardware_concurrency(). 1 = exact
  // serial path (jobs run inline, no pool).
  unsigned jobs = 0;
  // Bench id shown in progress lines and recorded in the manifest.
  std::string bench_id = "bench";
  // Digest of the simulated configuration (see Digest above).
  uint64_t config_digest = 0;
  // Manifest destination: "" = off, "-" or "true" (bare --manifest) =
  // stderr, anything else = file path.
  std::string manifest;
  // Test seams: redirect progress / manifest to a stream. Progress defaults
  // to stderr; a non-null manifest_stream overrides `manifest`.
  std::ostream* progress_stream = nullptr;
  std::ostream* manifest_stream = nullptr;
  // Suppress progress lines entirely (tests).
  bool quiet = false;
  // Progress-line policy: -1 = auto (emit only when the destination is a
  // terminal — a set progress_stream counts as one, otherwise isatty on
  // stderr), 0 = force off, 1 = force on (--progress); quiet overrides it.
  // Keeps redirected logs free of throttled status lines.
  int assume_tty = -1;
  // Optional extra manifest members (obs::Registry::write_manifest_members
  // renders the counter digests and lock/heap totals). Called once, after
  // every job has completed; writes zero or more `  "key": value,` lines.
  // Must be deterministic w.r.t. --jobs — the determinism tests diff it.
  std::function<void(std::ostream&)> manifest_members_fn;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opt);

  // Executes all jobs and blocks until every one finished (or was abandoned
  // after a failure was recorded; queued jobs still run — results are
  // complete either way). Rethrows the lowest-indexed Job failure.
  void run(std::vector<Job> jobs);

  // Resolved worker count (after the 0 = hardware_concurrency default).
  unsigned jobs() const { return jobs_; }

  // Fan-out convenience: results[i] = fn(i), in index order. meta(i) supplies
  // the manifest seed/label for job i.
  template <typename T, typename Fn, typename MetaFn>
  std::vector<T> map(size_t n, Fn fn, MetaFn meta) {
    std::vector<T> out(n);
    std::vector<Job> js;
    js.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Job j = meta(i);
      j.fn = [&out, fn, i] { out[i] = fn(i); };
      js.push_back(std::move(j));
    }
    run(std::move(js));
    return out;
  }

 private:
  void emit_manifest(const std::vector<Job>& jobs,
                     const std::vector<double>& job_seconds,
                     double wall_seconds) const;

  RunnerOptions opt_;
  unsigned jobs_ = 1;
};

}  // namespace tsx::harness
