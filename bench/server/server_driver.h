#pragma once
// Server-scale TM workloads (ROADMAP item 2): an open-loop request
// generator driving three services — a KV/session store built on the elide
// layer, an order-book/ledger and an inventory-reservation service built on
// raw transactions — under the RTM / TinySTM / Hybrid / Lock backends.
//
// Open loop means arrivals are independent of completions: each worker's
// request schedule (arrival cycle, key, write/read, amount) is precomputed
// host-side from the seed alone, and a request's latency is measured from
// its *scheduled arrival* to its completion, so queueing delay shows up in
// the percentiles instead of silently throttling the generator (the
// coordinated-omission trap). Key popularity is Zipfian (sim::ZipfSampler,
// O(1) per draw over millions of keys); the schedule is scripted in phases
// — steady state, a hot-key flash crowd, a write burst — so the scoreboard
// shows how each backend degrades, not just its steady-state average.
//
// Everything runs through run_cells (bench_common.h) exactly like the figure
// drivers: cells are (backend x rep), each cell owns its TxRuntime, results
// aggregate in index order, and stdout / --perf-stat / the manifest's
// counter_digest are byte-identical for every --jobs value.

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "elide/elide.h"
#include "obs/histogram.h"
#include "sim/rng.h"
#include "util/warn_once.h"

namespace tsx::bench::server {

// ---------------------------------------------------------------------------
// Traffic model

enum class PhaseKind : uint8_t { kSteady = 0, kFlashCrowd, kWriteBurst };

inline const char* phase_name(PhaseKind k) {
  switch (k) {
    case PhaseKind::kSteady: return "steady";
    case PhaseKind::kFlashCrowd: return "flash-crowd";
    case PhaseKind::kWriteBurst: return "write-burst";
  }
  return "?";
}

// One scripted segment of the arrival schedule. `requests` is per worker;
// the other knobs override the steady-state traffic shape for the segment.
struct Phase {
  PhaseKind kind = PhaseKind::kSteady;
  uint64_t requests = 0;
  // Share of requests redirected to a uniformly-drawn key in [0, hot_keys)
  // (the flash crowd: everyone asks for the same few keys).
  double hot_share = 0.0;
  uint64_t hot_keys = 16;
  double write_ratio = 0.1;
  // Multiplier on the mean interarrival gap (< 1.0 = an arrival-rate spike).
  double arrival_scale = 1.0;
};

struct TrafficConfig {
  uint64_t keys = 1ull << 21;     // Zipf keyspace (millions of keys)
  uint64_t clients = 1ull << 20;  // logical client-id space
  double zipf_theta = 0.99;       // skew exponent (YCSB's default)
  // Mean open-loop interarrival gap per worker, in simulated cycles.
  uint64_t mean_interarrival = 1400;
  uint32_t threads = 4;
  uint64_t seed = 9000;
  std::vector<Phase> phases;
};

// The standard three-act script every server driver runs: steady state, a
// flash crowd (arrival spike + 80% of traffic on 16 keys), a write burst.
inline std::vector<Phase> default_phases(uint64_t requests_per_phase,
                                         double write_ratio) {
  std::vector<Phase> ph(3);
  ph[0] = {PhaseKind::kSteady, requests_per_phase, 0.0, 16, write_ratio, 1.0};
  ph[1] = {PhaseKind::kFlashCrowd, requests_per_phase, 0.8, 16, write_ratio,
           0.5};
  double burst = write_ratio * 4.0 > 0.9 ? 0.9 : write_ratio * 4.0;
  ph[2] = {PhaseKind::kWriteBurst, requests_per_phase, 0.0, 16, burst, 1.0};
  return ph;
}

struct Request {
  sim::Cycles arrival = 0;  // cycles after the measured region opens
  uint64_t key = 0;
  uint64_t key2 = 0;  // second key for basket operations
  uint64_t client = 0;
  uint64_t amount = 0;  // 1..8
  bool is_write = false;
  uint32_t phase = 0;
};

// Precomputes one worker's full request schedule, host-side and from the
// seed alone — identical for any backend, --jobs value, or host. Arrival
// gaps are exponential (Poisson arrivals per worker); keys are Zipf over
// the full keyspace except for the flash-crowd share.
inline std::vector<Request> make_schedule(const TrafficConfig& cfg,
                                          uint32_t worker) {
  sim::Rng rng(cfg.seed + 0x517cc1b727220a95ull * (worker + 1));
  sim::ZipfSampler zipf(cfg.keys, cfg.zipf_theta);
  std::vector<Request> out;
  uint64_t total = 0;
  for (const Phase& p : cfg.phases) total += p.requests;
  out.reserve(total);
  sim::Cycles t = 0;
  for (uint32_t pi = 0; pi < cfg.phases.size(); ++pi) {
    const Phase& p = cfg.phases[pi];
    double mean = static_cast<double>(cfg.mean_interarrival) * p.arrival_scale;
    if (mean < 1.0) mean = 1.0;
    for (uint64_t i = 0; i < p.requests; ++i) {
      t += 1 + static_cast<sim::Cycles>(rng.exponential(mean));
      Request r;
      r.arrival = t;
      r.key = (p.hot_share > 0.0 && rng.chance(p.hot_share))
                  ? rng.below(p.hot_keys < cfg.keys ? p.hot_keys : cfg.keys)
                  : zipf(rng);
      r.key2 = zipf(rng);
      r.client = rng.below(cfg.clients);
      r.amount = 1 + rng.below(8);
      r.is_write = rng.chance(p.write_ratio);
      r.phase = pi;
      out.push_back(r);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Services

enum class ServiceKind : uint8_t { kKv = 0, kOrderBook, kInventory };

inline const char* service_name(ServiceKind k) {
  switch (k) {
    case ServiceKind::kKv: return "kv";
    case ServiceKind::kOrderBook: return "orderbook";
    case ServiceKind::kInventory: return "inventory";
  }
  return "?";
}

// A service owns the simulated state one cell's requests run against. The
// protocol mirrors the STAMP apps: host-free construction, init() on worker
// 0 before the measured region, handle() per request, verify() on worker 0
// after the closing barrier. verify() must check a conservation invariant
// that any lost atomicity would break, using only O(state-summary) reads —
// never a full keyspace scan.
class Service {
 public:
  virtual ~Service() = default;
  virtual void init(core::TxCtx& ctx) = 0;
  virtual void handle(core::TxCtx& ctx, uint32_t worker, const Request& r) = 0;
  virtual void verify(core::TxCtx& ctx) = 0;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Requests the service declined for lack of state (partial matches,
  // rejected reservations); 0 for services where every request succeeds.
  virtual uint64_t misses() const { return 0; }
  virtual elide::ElideStats elide_totals() const { return {}; }

 protected:
  void fail(std::string msg) {
    ok_ = false;
    error_ = std::move(msg);
  }
  bool ok_ = true;
  std::string error_;
};

namespace detail {
inline sim::Addr word(sim::Addr base, uint64_t i) { return base + 8 * i; }
inline sim::Addr line(sim::Addr base, uint64_t i) {
  return base + sim::kLineBytes * i;
}
}  // namespace detail

// KV/session store on the elide layer: the keyspace is sharded across
// elide::shared_mutex locks (reads elide the shared flavour, writes the
// exclusive one), each shard keeps a conservation word updated in the same
// critical section as the value, and every request additionally bumps a
// per-session counter in a raw transaction — so the cell exercises elided
// sections and plain atomic blocks side by side.
class KvService final : public Service {
 public:
  static constexpr uint64_t kShards = 64;
  static constexpr uint64_t kSessions = 1024;

  KvService(core::TxRuntime& rt, const TrafficConfig& cfg)
      : rt_(rt), cfg_(cfg), written_(cfg.threads, 0), handled_(cfg.threads, 0) {
    locks_.reserve(kShards);
    for (uint64_t s = 0; s < kShards; ++s) {
      locks_.push_back(std::make_unique<elide::shared_mutex>(
          rt, "kv.shard" + std::to_string(s)));
    }
  }

  void init(core::TxCtx& ctx) override {
    values_ = ctx.malloc(cfg_.keys * 8);
    // Shard accounting words on distinct lines: a shard's conservation
    // word must not false-conflict with its neighbours'.
    acct_ = ctx.malloc(kShards * sim::kLineBytes, sim::kLineBytes);
    sessions_ = ctx.malloc(kSessions * 8);
  }

  void handle(core::TxCtx& ctx, uint32_t worker, const Request& r) override {
    uint64_t shard = r.key % kShards;
    if (r.is_write) {
      locks_[shard]->critical_section(ctx, [&] {
        sim::Word v = ctx.load(detail::word(values_, r.key));
        ctx.store(detail::word(values_, r.key), v + r.amount);
        sim::Word a = ctx.load(detail::line(acct_, shard));
        ctx.store(detail::line(acct_, shard), a + r.amount);
        ctx.compute(40);
      });
      written_[worker] += r.amount;
    } else {
      locks_[shard]->critical_section_shared(ctx, [&] {
        (void)ctx.load(detail::word(values_, r.key));
        (void)ctx.load(detail::line(acct_, shard));
        ctx.compute(25);
      });
    }
    // Session bookkeeping in a raw atomic block (top-level by the elide
    // contract, so it runs after the critical section commits).
    sim::Addr sess = detail::word(sessions_, r.client % kSessions);
    ctx.transaction(
        [&] {
          sim::Word c = ctx.load(sess);
          ctx.store(sess, c + 1);
        },
        /*site=*/1);
    ++handled_[worker];
  }

  void verify(core::TxCtx& ctx) override {
    uint64_t acct_sum = 0, sess_sum = 0, written = 0, handled = 0;
    for (uint64_t s = 0; s < kShards; ++s) {
      acct_sum += ctx.load(detail::line(acct_, s));
    }
    for (uint64_t s = 0; s < kSessions; ++s) {
      sess_sum += ctx.load(detail::word(sessions_, s));
    }
    for (uint32_t w = 0; w < cfg_.threads; ++w) {
      written += written_[w];
      handled += handled_[w];
    }
    if (acct_sum != written) {
      fail("kv: shard accounting " + std::to_string(acct_sum) +
           " != written " + std::to_string(written));
    } else if (sess_sum != handled) {
      fail("kv: session ops " + std::to_string(sess_sum) + " != requests " +
           std::to_string(handled));
    }
  }

  elide::ElideStats elide_totals() const override {
    elide::ElideStats t;
    for (const auto& l : locks_) {
      const elide::ElideStats& s = l->stats();
      t.acquisitions += s.acquisitions;
      t.attempts += s.attempts;
      t.elided += s.elided;
      t.fallbacks += s.fallbacks;
      t.self_stops += s.self_stops;
    }
    return t;
  }

 private:
  core::TxRuntime& rt_;
  const TrafficConfig& cfg_;
  std::vector<std::unique_ptr<elide::shared_mutex>> locks_;
  sim::Addr values_ = 0, acct_ = 0, sessions_ = 0;
  std::vector<uint64_t> written_, handled_;  // per worker (exactly-once:
                                             // bumped after the section
                                             // commits, never inside it)
};

// Order book / ledger on raw transactions: keys map onto price levels;
// a write places `amount` at its level, a read matches (takes) up to
// `amount` from it. The ledger words (placed / matched, sharded by level
// group onto distinct lines) are updated in the same transaction as the
// level, so the conservation law  placed - matched == sum(levels)  breaks
// under any torn execution.
class OrderBookService final : public Service {
 public:
  static constexpr uint64_t kLevels = 256;
  static constexpr uint64_t kGroups = 16;

  OrderBookService(core::TxRuntime& rt, const TrafficConfig& cfg)
      : cfg_(cfg),
        placed_(cfg.threads, 0),
        matched_(cfg.threads, 0),
        partial_(cfg.threads, 0) {
    (void)rt;
  }

  void init(core::TxCtx& ctx) override {
    levels_ = ctx.malloc(kLevels * 8);
    placed_w_ = ctx.malloc(kGroups * sim::kLineBytes, sim::kLineBytes);
    matched_w_ = ctx.malloc(kGroups * sim::kLineBytes, sim::kLineBytes);
  }

  void handle(core::TxCtx& ctx, uint32_t worker, const Request& r) override {
    uint64_t lvl = r.key % kLevels;
    uint64_t grp = lvl % kGroups;
    sim::Word taken = 0;
    ctx.transaction([&] {
      taken = 0;  // reset: the body may re-run on abort
      sim::Word v = ctx.load(detail::word(levels_, lvl));
      if (r.is_write) {
        ctx.store(detail::word(levels_, lvl), v + r.amount);
        sim::Word p = ctx.load(detail::line(placed_w_, grp));
        ctx.store(detail::line(placed_w_, grp), p + r.amount);
      } else {
        taken = v < r.amount ? v : r.amount;
        ctx.store(detail::word(levels_, lvl), v - taken);
        sim::Word m = ctx.load(detail::line(matched_w_, grp));
        ctx.store(detail::line(matched_w_, grp), m + taken);
      }
      ctx.compute(30);
    });
    if (r.is_write) {
      placed_[worker] += r.amount;
    } else {
      matched_[worker] += taken;
      if (taken < r.amount) ++partial_[worker];
    }
  }

  void verify(core::TxCtx& ctx) override {
    uint64_t placed = 0, matched = 0, level_sum = 0;
    for (uint64_t g = 0; g < kGroups; ++g) {
      placed += ctx.load(detail::line(placed_w_, g));
      matched += ctx.load(detail::line(matched_w_, g));
    }
    for (uint64_t l = 0; l < kLevels; ++l) {
      level_sum += ctx.load(detail::word(levels_, l));
    }
    uint64_t placed_host = 0, matched_host = 0;
    for (uint32_t w = 0; w < cfg_.threads; ++w) {
      placed_host += placed_[w];
      matched_host += matched_[w];
    }
    if (placed - matched != level_sum) {
      fail("orderbook: placed - matched = " + std::to_string(placed - matched) +
           " != level sum " + std::to_string(level_sum));
    } else if (placed != placed_host || matched != matched_host) {
      fail("orderbook: ledger (" + std::to_string(placed) + ", " +
           std::to_string(matched) + ") != host tallies (" +
           std::to_string(placed_host) + ", " + std::to_string(matched_host) +
           ")");
    }
  }

  uint64_t misses() const override {
    uint64_t m = 0;
    for (uint64_t p : partial_) m += p;
    return m;
  }

 private:
  const TrafficConfig& cfg_;
  sim::Addr levels_ = 0, placed_w_ = 0, matched_w_ = 0;
  std::vector<uint64_t> placed_, matched_, partial_;
};

// Inventory reservation on raw transactions: a read reserves a two-item
// basket (one unit each, all-or-nothing — the conditional cross-key
// transaction), a write restocks one item. Conservation law:
//   initial + restocked - reserved == sum(stock).
class InventoryService final : public Service {
 public:
  static constexpr uint64_t kItems = 4096;
  static constexpr uint64_t kGroups = 16;
  // Small enough that the flash crowd visibly drains hot items (rejected
  // reservations land in the miss column); restocks refill over time.
  static constexpr uint64_t kInitialStock = 16;

  InventoryService(core::TxRuntime& rt, const TrafficConfig& cfg)
      : cfg_(cfg),
        restocked_(cfg.threads, 0),
        reserved_(cfg.threads, 0),
        rejected_(cfg.threads, 0) {
    (void)rt;
  }

  void init(core::TxCtx& ctx) override {
    stock_ = ctx.malloc(kItems * 8);
    restocked_w_ = ctx.malloc(kGroups * sim::kLineBytes, sim::kLineBytes);
    reserved_w_ = ctx.malloc(kGroups * sim::kLineBytes, sim::kLineBytes);
    // Seeding the shelves is setup, outside the measured region.
    for (uint64_t i = 0; i < kItems; ++i) {
      ctx.store(detail::word(stock_, i), kInitialStock);
    }
  }

  void handle(core::TxCtx& ctx, uint32_t worker, const Request& r) override {
    uint64_t a = r.key % kItems;
    if (r.is_write) {
      uint64_t grp = a % kGroups;
      ctx.transaction([&] {
        sim::Word s = ctx.load(detail::word(stock_, a));
        ctx.store(detail::word(stock_, a), s + r.amount);
        sim::Word t = ctx.load(detail::line(restocked_w_, grp));
        ctx.store(detail::line(restocked_w_, grp), t + r.amount);
        ctx.compute(30);
      });
      restocked_[worker] += r.amount;
      return;
    }
    uint64_t b = r.key2 % kItems;
    if (b == a) b = (a + 1) % kItems;
    uint64_t grp = a % kGroups;
    bool got = false;
    ctx.transaction([&] {
      got = false;  // reset: the body may re-run on abort
      sim::Word sa = ctx.load(detail::word(stock_, a));
      sim::Word sb = ctx.load(detail::word(stock_, b));
      if (sa >= 1 && sb >= 1) {
        ctx.store(detail::word(stock_, a), sa - 1);
        ctx.store(detail::word(stock_, b), sb - 1);
        sim::Word t = ctx.load(detail::line(reserved_w_, grp));
        ctx.store(detail::line(reserved_w_, grp), t + 2);
        got = true;
      }
      ctx.compute(30);
    });
    if (got) {
      reserved_[worker] += 2;
    } else {
      ++rejected_[worker];
    }
  }

  void verify(core::TxCtx& ctx) override {
    uint64_t restocked = 0, reserved = 0, stock_sum = 0;
    for (uint64_t g = 0; g < kGroups; ++g) {
      restocked += ctx.load(detail::line(restocked_w_, g));
      reserved += ctx.load(detail::line(reserved_w_, g));
    }
    for (uint64_t i = 0; i < kItems; ++i) {
      stock_sum += ctx.load(detail::word(stock_, i));
    }
    uint64_t restocked_host = 0, reserved_host = 0;
    for (uint32_t w = 0; w < cfg_.threads; ++w) {
      restocked_host += restocked_[w];
      reserved_host += reserved_[w];
    }
    uint64_t expect = kItems * kInitialStock + restocked - reserved;
    if (stock_sum != expect) {
      fail("inventory: stock sum " + std::to_string(stock_sum) + " != " +
           std::to_string(expect));
    } else if (restocked != restocked_host || reserved != reserved_host) {
      fail("inventory: ledger (" + std::to_string(restocked) + ", " +
           std::to_string(reserved) + ") != host tallies (" +
           std::to_string(restocked_host) + ", " +
           std::to_string(reserved_host) + ")");
    }
  }

  uint64_t misses() const override {
    uint64_t m = 0;
    for (uint64_t r : rejected_) m += r;
    return m;
  }

 private:
  const TrafficConfig& cfg_;
  sim::Addr stock_ = 0, restocked_w_ = 0, reserved_w_ = 0;
  std::vector<uint64_t> restocked_, reserved_, rejected_;
};

inline std::unique_ptr<Service> make_service(ServiceKind kind,
                                             core::TxRuntime& rt,
                                             const TrafficConfig& cfg) {
  switch (kind) {
    case ServiceKind::kKv: return std::make_unique<KvService>(rt, cfg);
    case ServiceKind::kOrderBook:
      return std::make_unique<OrderBookService>(rt, cfg);
    case ServiceKind::kInventory:
      return std::make_unique<InventoryService>(rt, cfg);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Cell execution

// One (backend, rep) cell's measurements. Histograms merge exactly across
// reps, so rep aggregation never loses tail resolution.
struct CellResult {
  uint64_t offered = 0;    // requests scheduled
  uint64_t completed = 0;  // requests completed (== offered when ok)
  sim::Cycles offered_span = 0;  // last scheduled arrival across workers
  sim::Cycles wall = 0;          // measured-region wall cycles
  obs::Log2Histogram lat_all;
  std::vector<obs::Log2Histogram> lat_phase;
  std::vector<uint64_t> completed_phase;
  uint64_t attempts = 0;  // speculative/STM attempts
  uint64_t aborts = 0;
  uint64_t fallbacks = 0;  // RTM serial-fallback sections
  uint64_t elide_attempts = 0, elide_elided = 0, elide_fallbacks = 0;
  uint64_t misses = 0;
  bool overloaded = false;
  bool ok = true;
  std::string error;
};

// A worker counts as overloaded once it falls behind its schedule by this
// many mean interarrival gaps — the open-loop queue is growing faster than
// the service drains it.
inline constexpr uint64_t kOverloadLagGaps = 64;

// Phase-detection probe for a single cell run: forces the metrics hub on
// (no registry label needed) and reports the *scripted* phase-transition
// cycles — the absolute simulated time the first request of each later
// phase was due, i.e. the ground truth the online detector is judged
// against — alongside the hub's finalized window/phase series.
struct PhaseProbe {
  sim::Cycles window_cycles = 10000;        // hub window for this run
  std::vector<sim::Cycles> boundaries;      // one per phase transition
  std::optional<obs::MetricsData> metrics;  // hub output for the run
};

inline core::RunConfig server_run_cfg(core::Backend b,
                                      const TrafficConfig& traffic,
                                      uint64_t seed) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = traffic.threads;
  cfg.machine.seed = seed;
  cfg.seed = seed;
  apply_settings(cfg);  // --malloc-policy
  return cfg;
}

// Runs one cell: build the runtime, precompute every worker's schedule,
// drive the service, and verify its conservation law. Self-contained (owns
// its TxRuntime), so the sweep harness can shard cells across host threads.
inline CellResult run_server_rep(ServiceKind kind, core::Backend backend,
                                 const TrafficConfig& traffic, uint64_t seed,
                                 const std::string& obs_label = "",
                                 bool verify_history = false,
                                 PhaseProbe* probe = nullptr) {
  core::RunConfig cfg = server_run_cfg(backend, traffic, seed);
  apply_settings(cfg, obs_label);
  if (probe) {
    cfg.obs.enabled = true;
    cfg.obs.metrics.window_cycles = probe->window_cycles;
  }
  core::TxRuntime rt(cfg);
  HistoryVerifier hv(rt, verify_history);
  std::unique_ptr<Service> svc = make_service(kind, rt, traffic);

  const uint32_t nw = traffic.threads;
  const size_t nphases = traffic.phases.size();
  std::vector<std::vector<Request>> sched(nw);
  CellResult res;
  res.lat_phase.resize(nphases);
  res.completed_phase.assign(nphases, 0);
  for (uint32_t w = 0; w < nw; ++w) {
    sched[w] = make_schedule(traffic, w);
    res.offered += sched[w].size();
    if (!sched[w].empty() && sched[w].back().arrival > res.offered_span) {
      res.offered_span = sched[w].back().arrival;
    }
  }

  struct WorkerStats {
    std::vector<obs::Log2Histogram> lat;
    std::vector<uint64_t> completed;
    bool overloaded = false;
  };
  std::vector<WorkerStats> ws(nw);
  for (auto& s : ws) {
    s.lat.resize(nphases);
    s.completed.assign(nphases, 0);
  }
  std::vector<sim::Cycles> wstart(nw, 0);  // measured-region start per worker
  const sim::Cycles overload_lag = traffic.mean_interarrival * kOverloadLagGaps;

  rt.run([&](core::TxCtx& ctx) {
    uint32_t w = ctx.id();
    if (w == 0) svc->init(ctx);
    ctx.barrier();
    if (w == 0) ctx.runtime().mark_measurement_start();
    ctx.barrier();
    sim::Cycles start = ctx.now();
    wstart[w] = start;
    WorkerStats& st = ws[w];
    for (const Request& r : sched[w]) {
      sim::Cycles due = start + r.arrival;
      sim::Cycles now = ctx.now();
      if (now < due) {
        ctx.compute(due - now);  // open loop: idle until the arrival
      } else if (now - due > overload_lag) {
        st.overloaded = true;
      }
      svc->handle(ctx, w, r);
      st.lat[r.phase].record(ctx.now() - due);
      ++st.completed[r.phase];
    }
    ctx.barrier();
    if (w == 0) svc->verify(ctx);
  });
  hv.check(obs_label.empty() ? service_name(kind) : obs_label);

  // Merge per-worker tallies in worker order (deterministic).
  for (uint32_t w = 0; w < nw; ++w) {
    for (size_t p = 0; p < nphases; ++p) {
      res.lat_phase[p].merge(ws[w].lat[p]);
      res.completed_phase[p] += ws[w].completed[p];
      res.completed += ws[w].completed[p];
    }
    res.overloaded = res.overloaded || ws[w].overloaded;
  }
  for (size_t p = 0; p < nphases; ++p) res.lat_all.merge(res.lat_phase[p]);

  core::RunReport rep = rt.report();
  res.wall = rep.wall_cycles;
  res.attempts = rep.rtm.attempts + rep.stm.starts;
  res.aborts = rep.rtm.aborts() + rep.stm.aborts();
  res.fallbacks = rep.rtm.fallbacks;
  elide::ElideStats es = svc->elide_totals();
  res.elide_attempts = es.attempts;
  res.elide_elided = es.elided;
  res.elide_fallbacks = es.fallbacks;
  res.misses = svc->misses();
  res.ok = svc->ok();
  res.error = svc->error();
  if (probe) {
    // Scripted ground truth: the absolute cycle the first request of each
    // later phase was due (earliest across workers; worker starts are
    // barrier-aligned to within a few cycles).
    for (size_t p = 1; p < nphases; ++p) {
      sim::Cycles b = 0;
      bool found = false;
      for (uint32_t w = 0; w < nw; ++w) {
        for (const Request& r : sched[w]) {
          if (r.phase != p) continue;
          sim::Cycles cand = wstart[w] + r.arrival;
          if (!found || cand < b) b = cand;
          found = true;
          break;
        }
      }
      if (found) probe->boundaries.push_back(b);
    }
    probe->metrics = rt.metrics_data();
  }
  return res;
}

// ---------------------------------------------------------------------------
// Sweep + scoreboard

// The paper-relevant backend set for the server scoreboards.
inline std::vector<core::Backend> server_backends() {
  return {core::Backend::kRtm, core::Backend::kTinyStm, core::Backend::kHybrid,
          core::Backend::kLock};
}

// One backend's row of the scoreboard, merged over reps.
struct BackendScore {
  core::Backend backend = core::Backend::kRtm;
  CellResult sum;  // counts summed, histograms merged, flags OR-ed
};

inline void merge_cell(CellResult& into, const CellResult& c) {
  into.offered += c.offered;
  into.completed += c.completed;
  into.offered_span += c.offered_span;
  into.wall += c.wall;
  into.lat_all.merge(c.lat_all);
  if (into.lat_phase.empty()) {
    into.lat_phase.resize(c.lat_phase.size());
    into.completed_phase.assign(c.completed_phase.size(), 0);
  }
  for (size_t p = 0; p < c.lat_phase.size(); ++p) {
    into.lat_phase[p].merge(c.lat_phase[p]);
    into.completed_phase[p] += c.completed_phase[p];
  }
  into.attempts += c.attempts;
  into.aborts += c.aborts;
  into.fallbacks += c.fallbacks;
  into.elide_attempts += c.elide_attempts;
  into.elide_elided += c.elide_elided;
  into.elide_fallbacks += c.elide_fallbacks;
  into.misses += c.misses;
  into.overloaded = into.overloaded || c.overloaded;
  if (!c.ok && into.ok) {
    into.ok = false;
    into.error = c.error;
  }
}

inline void digest_traffic(harness::Digest& d, const TrafficConfig& t) {
  d.add(t.keys);
  d.add(t.clients);
  d.add(t.zipf_theta);
  d.add(t.mean_interarrival);
  d.add(t.threads);
  d.add(t.seed);
  for (const Phase& p : t.phases) {
    d.add(static_cast<uint64_t>(p.kind));
    d.add(p.requests);
    d.add(p.hot_share);
    d.add(p.hot_keys);
    d.add(p.write_ratio);
    d.add(p.arrival_scale);
  }
}

// Runs backends x reps cells through the parallel sweep harness and folds
// them into one BackendScore per backend, in (backend, rep) index order —
// byte-identical output for any --jobs value.
inline std::vector<BackendScore> run_server_sweep(
    const std::string& bench_id, ServiceKind kind, const TrafficConfig& traffic,
    const std::vector<core::Backend>& backends, const BenchArgs& args) {
  const size_t reps = static_cast<size_t>(args.reps);
  harness::Digest dig;
  digest_traffic(dig, traffic);

  std::vector<Cell<CellResult>> cells;
  for (size_t i = 0; i < backends.size() * reps; ++i) {
    const core::Backend b = backends[i / reps];
    const uint64_t seed = traffic.seed + i % reps;
    cells.push_back({bench_id + ":" + core::backend_name(b) + ":rep" +
                         std::to_string(i % reps),
                     seed, [&, b, seed](const std::string& label) {
                       return run_server_rep(kind, b, traffic, seed, label,
                                             args.verify);
                     }});
  }
  std::vector<CellResult> results = run_cells(args, bench_id, dig, cells);

  std::vector<BackendScore> out(backends.size());
  bool overloaded = false;
  for (size_t b = 0; b < backends.size(); ++b) {
    out[b].backend = backends[b];
    for (size_t rep = 0; rep < reps; ++rep) {
      merge_cell(out[b].sum, results[b * reps + rep]);
    }
    overloaded = overloaded || out[b].sum.overloaded;
  }
  if (overloaded) {
    util::warn_once(
        "server:" + bench_id + ":overload",
        bench_id + ": offered load exceeded sustained throughput on at least "
                   "one backend; tail latencies include open-loop queueing");
  }
  return out;
}

// Requests per simulated megacycle.
inline double per_mcycle(uint64_t n, sim::Cycles cycles) {
  return cycles ? 1e6 * static_cast<double>(n) / static_cast<double>(cycles)
                : 0.0;
}

// The headline scoreboard: offered vs sustained throughput, corrected
// latency percentiles, abort/fallback/elision attribution, service misses.
inline util::Table scoreboard_table(const std::vector<BackendScore>& scores) {
  util::Table t({"Backend", "offered/Mcyc", "sustained/Mcyc", "p50", "p95",
                 "p99", "abort-rate", "fallbacks", "elided%", "misses"});
  for (const BackendScore& s : scores) {
    const CellResult& c = s.sum;
    double abort_rate =
        c.attempts ? static_cast<double>(c.aborts) /
                         static_cast<double>(c.attempts)
                   : 0.0;
    std::string elided =
        c.elide_attempts
            ? util::Table::fmt(100.0 * static_cast<double>(c.elide_elided) /
                                   static_cast<double>(c.elide_attempts),
                               1)
            : "-";
    t.add_row({core::backend_name(s.backend),
               util::Table::fmt(per_mcycle(c.offered, c.offered_span), 1),
               util::Table::fmt(per_mcycle(c.completed, c.wall), 1),
               util::Table::fmt_int(static_cast<int64_t>(c.lat_all.percentile(50))),
               util::Table::fmt_int(static_cast<int64_t>(c.lat_all.percentile(95))),
               util::Table::fmt_int(static_cast<int64_t>(c.lat_all.percentile(99))),
               util::Table::fmt(abort_rate, 3),
               util::Table::fmt_int(static_cast<int64_t>(c.fallbacks)), elided,
               util::Table::fmt_int(static_cast<int64_t>(c.misses))});
  }
  return t;
}

// Per-phase breakdown: how each backend rides the flash crowd and the write
// burst (latency in simulated cycles, from the corrected percentiles).
inline util::Table phase_table(const TrafficConfig& traffic,
                               const std::vector<BackendScore>& scores) {
  util::Table t({"Backend", "phase", "requests", "p50", "p95", "p99"});
  for (const BackendScore& s : scores) {
    const CellResult& c = s.sum;
    for (size_t p = 0; p < c.lat_phase.size(); ++p) {
      const obs::Log2Histogram& h = c.lat_phase[p];
      t.add_row({core::backend_name(s.backend),
                 phase_name(traffic.phases[p].kind),
                 util::Table::fmt_int(static_cast<int64_t>(c.completed_phase[p])),
                 util::Table::fmt_int(static_cast<int64_t>(h.percentile(50))),
                 util::Table::fmt_int(static_cast<int64_t>(h.percentile(95))),
                 util::Table::fmt_int(static_cast<int64_t>(h.percentile(99)))});
    }
  }
  return t;
}

// Renders both tables to a string — what the drivers print and what the
// jobs-determinism test compares between --jobs settings.
inline std::string scoreboard_text(const TrafficConfig& traffic,
                                   const std::vector<BackendScore>& scores) {
  std::ostringstream os;
  scoreboard_table(scores).print(os);
  os << "\n";
  phase_table(traffic, scores).print(os);
  return os.str();
}

// Shared main body for the three server drivers: sweep, print, and exit
// non-zero if any cell's conservation law failed (measurements from a
// non-atomic run would be meaningless).
inline int run_server_bench(const std::string& bench_id, ServiceKind kind,
                            TrafficConfig traffic, const BenchArgs& args) {
  std::vector<BackendScore> scores =
      run_server_sweep(bench_id, kind, traffic, server_backends(), args);
  util::Table t = scoreboard_table(scores);
  emit(t, args);
  util::Table pt = phase_table(traffic, scores);
  emit(pt, args);
  for (const BackendScore& s : scores) {
    if (!s.sum.ok) {
      std::cerr << bench_id << ": invariant FAILED under "
                << core::backend_name(s.backend) << ": " << s.sum.error
                << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace tsx::bench::server
