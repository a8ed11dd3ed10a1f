#pragma once
// Process-global collection point for per-run trace captures.
//
// The harness may run benchmark tasks on several worker threads (`--jobs N`)
// and in arbitrary completion order. Each TxRuntime that traces deposits an
// immutable Capture here under its unique task label; exporters drain the
// registry sorted by label, which makes trace and abort-report output
// byte-identical across --jobs values (timestamps inside a capture are
// simulated, hence already deterministic).

#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/trace_sink.h"

namespace tsx::obs {

struct Capture {
  std::string label;       // unique task label, e.g. "fig07:eigen:RTM:rep0"
  double freq_ghz = 0;     // for cycle -> microsecond conversion
  uint32_t threads = 0;    // simulated hardware threads in the run
  std::vector<Event> events;  // oldest -> newest (ring-bounded)
  size_t dropped = 0;
  std::map<uint32_t, SiteAgg> sites;  // abort report and flame profile
  std::map<uint32_t, std::string> site_names;
  // Finalized PMU result (perf-stat counters, cycle/energy attribution);
  // present for every run traced with obs enabled.
  std::optional<PmuData> pmu;
  // Finalized window series (window deltas, boundary snapshots, phase
  // boundaries); present when the run had a window length (--metrics,
  // --flamegraph, --timeseries or --metrics-window).
  std::optional<MetricsData> metrics;
};

// Builds an immutable capture from a sink's current state.
Capture make_capture(const TraceSink& sink, std::string label, double freq_ghz,
                     uint32_t threads);

// A site's name in reports: its registered name, "(none)" for kNoSite,
// "site#N" otherwise.
std::string site_name(const Capture& c, uint32_t site);

class Registry {
 public:
  // The process-wide instance used by core::TxRuntime and the bench
  // finalizer. Tests may construct their own.
  static Registry& global();

  void add(Capture c);
  // Removes and returns all captures, sorted by label.
  std::vector<Capture> drain();
  size_t size() const;

  // FNV-1a digest over every capture's PMU counters, cycle split and
  // boundary snapshots, iterated in label order — so the digest is
  // identical across --jobs values. Non-destructive (the harness records it
  // in the run manifest before the exporters drain). Captures without PMU
  // data contribute only their label.
  uint64_t counter_digest() const;

  // Per-lock elision counters aggregated across all captures by lock name,
  // sorted by name. Non-destructive; used for the harness manifest's
  // `elide_locks` array. Empty when no capture recorded elide locks.
  std::vector<ElideLockCounters> elide_totals() const;

  // FNV-1a digest over every capture's window series, phase events and
  // flame profile, iterated in label order (hence --jobs-invariant).
  // Non-destructive; nullopt when no capture carries metrics, so the
  // manifest field only appears for windowed runs.
  std::optional<uint64_t> metrics_digest() const;

  // Simulated-heap counters summed across all captures (policy from the
  // first capture that carries one — a sweep runs one policy per process
  // unless a driver overrides per cell, in which case the manifest reports
  // the first). present == false when no capture has PMU data.
  // Non-destructive; used for the harness manifest's `heap` object.
  HeapPmuCounters heap_totals() const;

  // The run manifest's obs members, one `  "key": value,` line each:
  // counter_digest, then metrics_digest, elide_locks and heap when present.
  // Strings are JSON-escaped. harness::RunnerOptions::manifest_members_fn
  // calls it once every job has completed.
  void write_manifest_members(std::ostream& os) const;

 private:
  // The captures in label order; the caller holds mu_.
  std::vector<const Capture*> sorted_by_label() const;

  mutable std::mutex mu_;
  std::vector<Capture> captures_;
};

}  // namespace tsx::obs
