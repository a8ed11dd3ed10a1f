#pragma once
// The benchmark's four workloads and the code that runs one cell of them.
//
// A cell is one simulated run: one backend, one seed, one input. A pass runs
// every cell of a workload once, in order. Each cell owns its TxRuntime, so
// the modelled caches start empty in every cell, as in the bench drivers.
// The benchmark only calls the library's public functions and times each
// call from outside; the phases it records become the trace's spans.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench/server/server_driver.h"
#include "bench/stamp_driver.h"
#include "eigenbench/eigenbench.h"

namespace tsxbench {

enum class Workload : uint8_t { kEigen1t, kStampRtm, kStampTinyStm, kServerMix };

const char* workload_name(Workload w);
bool workload_from_name(const std::string& s, Workload* out);
std::vector<Workload> all_workloads();

// STAMP cells run the drivers' --fast inputs. On the full inputs one cell,
// bayes under RTM, takes two thirds of a pass of over ten seconds.
inline constexpr bool kStampFastInputs = true;

struct ServerSpec {
  tsx::bench::server::ServiceKind kind = tsx::bench::server::ServiceKind::kKv;
  tsx::bench::server::TrafficConfig traffic;
};

struct Cell {
  std::string label;
  tsx::core::Backend backend = tsx::core::Backend::kSeq;
  uint32_t threads = 1;
  uint64_t seed = 0;
  // Cells of one group share a SEQ baseline (an eigen variant or a STAMP
  // app); -1 for cells without one (server-mix).
  int group = -1;
  // The obs plane: PMU, trace ring and metrics hub (window 10000 cycles),
  // with the perf-stat, abort-report and OpenMetrics exporters written to a
  // discarding stream.
  bool obs = false;
  std::variant<tsx::eigenbench::EigenConfig, tsx::bench::StampApp, ServerSpec>
      work;
};

// Builds the cells of one pass. `seed` maps onto each bench driver's
// historical seeds (eigen drivers S-2000, STAMP S, server kv/orderbook/
// inventory S+100/S+200/S+300), so the default 9000 reproduces them.
// `smoke` shrinks the eigen and server inputs for a run of a few seconds.
// Obs is on for server-mix cells and off for the others.
std::vector<Cell> make_cells(Workload w, uint64_t seed, bool smoke);

// One host-time phase of a cell: gen, setup, run, verify, finalize or
// export, in call order.
struct Phase {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
};

// What the benchmark's own server loop measures beyond run_server_rep: the
// wait from a request's due time to handle() start, and handle() itself.
struct ServerOut {
  tsx::bench::server::CellResult res;
  tsx::obs::Log2Histogram queue;
  tsx::obs::Log2Histogram service;
};

struct CellOut {
  double start_s = 0;
  double end_s = 0;
  std::vector<Phase> phases;
  tsx::core::RunReport report;  // measured region
  bool ok = true;
  std::string error;
  uint64_t ops = 1;  // operations: 1 per eigen/STAMP cell, requests on server
  uint64_t failed = 0;
  uint64_t export_bytes = 0;  // obs exporter output
  uint64_t digest = 0;        // FNV over every simulated result of the cell
  std::optional<ServerOut> server;

  double seconds(const char* phase) const;
};

CellOut run_cell(const Cell& c);

// Simulated time and energy of each non-SEQ cell against the SEQ cell of
// its group (the paper's Figs. 10/11 normalization), as geomeans; 0 when
// no cell has a baseline.
struct SeqRatios {
  double time = 0;
  double energy = 0;
  std::vector<double> time_per_cell;  // non-SEQ grouped cells, in order
};
SeqRatios seq_ratios(const std::vector<Cell>& cells,
                     const std::vector<CellOut>& outs);

}  // namespace tsxbench
