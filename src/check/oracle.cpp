#include "check/oracle.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "check/checker.h"
#include "check/history.h"
#include "core/runtime.h"
#include "elide/elide.h"
#include "harness/runner.h"
#include "sim/rng.h"
#include "stamp/lib/hashtable.h"
#include "stamp/lib/queue.h"
#include "stamp/lib/rbtree.h"

namespace tsx::check {

namespace {

using core::Backend;
using core::RunConfig;
using core::TxCtx;
using core::TxRuntime;

RunConfig make_run_config(Backend backend, const OracleConfig& cfg) {
  RunConfig rc;
  rc.backend = backend;
  rc.threads = cfg.threads;
  rc.seed = cfg.seed;
  rc.machine.seed = cfg.machine_seed;
  rc.machine.sched_jitter_window = cfg.jitter_window;
  rc.machine.sched_quantum_ops = cfg.quantum_ops;
  rc.machine.tsx_ignore_read_set_conflicts = cfg.break_read_set_conflicts;
  return rc;
}

// Runs `worker` with optional history recording; on completion fills
// r.error from the checker if the history is not serializable. Returns the
// runtime for host-side final-state inspection.
struct RunOutcome {
  std::unique_ptr<TxRuntime> rt;
  bool history_ok = true;
  std::string history_error;
};

RunOutcome run_with_check(Backend backend, const OracleConfig& cfg,
                          const std::function<void(TxRuntime&)>& setup,
                          const std::function<void(TxCtx&)>& worker) {
  RunOutcome out;
  out.rt = std::make_unique<TxRuntime>(make_run_config(backend, cfg));
  setup(*out.rt);
  std::unique_ptr<Recorder> rec;
  if (cfg.check_history) rec = std::make_unique<Recorder>(*out.rt);
  out.rt->run(worker);
  if (rec) {
    CheckResult cr = check_history(rec->history(), *out.rt);
    out.history_ok = cr.ok;
    out.history_error = cr.error;
  }
  return out;
}

void fill_history_failure(WorkloadResult& r, const RunOutcome& out) {
  if (!out.history_ok) {
    r.ok = false;
    r.error = "history not serializable: " + out.history_error;
  }
}

// ---- eigen-inc: eigenbench-style shared-array increment kernel ----------
//
// Each transaction increments kTxWords distinct words of a kArrayWords-word
// shared array. The address schedule is precomputed per (thread,
// iteration), so the committed effect is schedule-independent and the final
// array equals the increment counts — checkable without any reference run.

constexpr uint32_t kArrayWords = 16;  // small: high conflict probability
constexpr uint32_t kTxWords = 4;

WorkloadResult workload_eigen_inc(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  std::vector<std::vector<uint32_t>> sched(cfg.threads);
  std::vector<uint64_t> expected(kArrayWords, 0);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + t);
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      // kTxWords distinct indices per transaction.
      uint32_t picked[kTxWords];
      for (uint32_t k = 0; k < kTxWords; ++k) {
        uint32_t idx;
        bool dup;
        do {
          idx = static_cast<uint32_t>(rng.below(kArrayWords));
          dup = false;
          for (uint32_t p = 0; p < k; ++p) dup |= (picked[p] == idx);
        } while (dup);
        picked[k] = idx;
        sched[t].push_back(idx);
        ++expected[idx];
      }
    }
  }

  sim::Addr arr = 0;
  auto setup = [&](TxRuntime& rt) {
    arr = rt.heap().host_alloc(kArrayWords * sim::kWordBytes, sim::kLineBytes);
    for (uint32_t i = 0; i < kArrayWords; ++i) {
      rt.machine().poke(arr + i * sim::kWordBytes, 0);
    }
  };
  auto worker = [&](TxCtx& ctx) {
    const std::vector<uint32_t>& s = sched[ctx.id()];
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      ctx.transaction([&] {
        for (uint32_t k = 0; k < kTxWords; ++k) {
          sim::Addr a = arr + s[j * kTxWords + k] * sim::kWordBytes;
          ctx.store(a, ctx.load(a) + 1);
        }
      });
    }
  };

  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  harness::Digest digest;
  for (uint32_t i = 0; i < kArrayWords; ++i) {
    sim::Word v = out.rt->machine().peek(arr + i * sim::kWordBytes);
    digest.add(v);
    if (r.ok && v != expected[i]) {
      std::ostringstream os;
      os << "lost update: word " << i << " = " << v << ", expected "
         << expected[i] << " increments";
      r.ok = false;
      r.error = os.str();
    }
  }
  r.digest = digest.value();
  if (r.ok) fill_history_failure(r, out);
  return r;
}

// ---- container workloads ------------------------------------------------
//
// Per-thread disjoint key partitions (key % threads == thread) make the
// final map independent of interleaving: each thread's operations commute
// with every other thread's, so the result must equal a sequential replay
// into a std:: container — under *any* correct backend.

enum MapOp : uint32_t { kInsert = 0, kRemove = 1, kUpdate = 2 };

struct MapStep {
  MapOp op;
  sim::Word key;
  sim::Word value;
};

constexpr uint32_t kSlotsPerThread = 12;

std::vector<std::vector<MapStep>> map_schedule(const OracleConfig& cfg) {
  std::vector<std::vector<MapStep>> sched(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    sim::Rng rng(cfg.seed * 0x2545f4914f6cdd1dull + 7 * t + 1);
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      MapStep s;
      s.op = static_cast<MapOp>(rng.below(3));
      s.key = 1 + t + cfg.threads * rng.below(kSlotsPerThread);
      s.value = 1 + rng.below(1u << 20);
      sched[t].push_back(s);
    }
  }
  return sched;
}

std::map<sim::Word, sim::Word> map_reference(
    const std::vector<std::vector<MapStep>>& sched) {
  std::map<sim::Word, sim::Word> ref;
  for (const auto& steps : sched) {
    for (const MapStep& s : steps) {
      switch (s.op) {
        case kInsert: ref.emplace(s.key, s.value); break;
        case kRemove: ref.erase(s.key); break;
        case kUpdate:
          if (auto it = ref.find(s.key); it != ref.end()) it->second = s.value;
          break;
      }
    }
  }
  return ref;
}

WorkloadResult finish_map_workload(
    WorkloadResult r, const RunOutcome& out,
    const std::vector<std::pair<sim::Word, sim::Word>>& items,
    const std::map<sim::Word, sim::Word>& ref) {
  // Digest sorted contents: chain/traversal order is schedule-dependent
  // (hash chains grow in insertion order), the key/value set is not.
  std::vector<std::pair<sim::Word, sim::Word>> got = items;
  std::sort(got.begin(), got.end());
  harness::Digest digest;
  for (const auto& [k, v] : got) {
    digest.add(k);
    digest.add(v);
  }
  r.digest = digest.value();
  if (r.ok) {
    std::vector<std::pair<sim::Word, sim::Word>> want(ref.begin(), ref.end());
    if (got != want) {
      std::ostringstream os;
      os << "final contents diverge from sequential std:: reference ("
         << got.size() << " items vs " << want.size() << ")";
      r.ok = false;
      r.error = os.str();
    }
  }
  if (r.ok) fill_history_failure(r, out);
  return r;
}

WorkloadResult workload_rbtree(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  auto sched = map_schedule(cfg);
  std::unique_ptr<stamp::RbTree> tree;
  auto setup = [&](TxRuntime& rt) {
    tree = std::make_unique<stamp::RbTree>(stamp::RbTree::create_host(rt));
  };
  auto worker = [&](TxCtx& ctx) {
    for (const MapStep& s : sched[ctx.id()]) {
      ctx.transaction([&] {
        switch (s.op) {
          case kInsert: tree->insert(ctx, s.key, s.value); break;
          case kRemove: tree->remove(ctx, s.key); break;
          case kUpdate: tree->update(ctx, s.key, s.value); break;
        }
      });
    }
  };
  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  std::string why;
  if (!tree->host_validate(*out.rt, &why)) {
    r.ok = false;
    r.error = "red-black invariant broken: " + why;
  }
  return finish_map_workload(std::move(r), out, tree->host_items(*out.rt),
                             map_reference(sched));
}

WorkloadResult workload_hashtable(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  auto sched = map_schedule(cfg);
  std::unique_ptr<stamp::HashTable> table;
  auto setup = [&](TxRuntime& rt) {
    table = std::make_unique<stamp::HashTable>(
        stamp::HashTable::create_host(rt, /*buckets=*/16));
  };
  auto worker = [&](TxCtx& ctx) {
    for (const MapStep& s : sched[ctx.id()]) {
      ctx.transaction([&] {
        switch (s.op) {
          case kInsert: table->insert(ctx, s.key, s.value); break;
          case kRemove: table->remove(ctx, s.key); break;
          case kUpdate: {
            sim::Word v;
            if (table->find(ctx, s.key, &v)) {
              table->remove(ctx, s.key);
              table->insert(ctx, s.key, s.value);
            }
            break;
          }
        }
      });
    }
  };
  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  return finish_map_workload(std::move(r), out, table->host_items(*out.rt),
                             map_reference(sched));
}

// ---- queue: push/pop conservation ---------------------------------------
//
// Whether a given pop finds the queue empty depends on the interleaving, so
// the final contents are NOT digest-comparable. Instead the oracle checks
// conservation: count and value-sum of (prefill + successful pushes -
// successful pops) must equal the surviving ring contents.

WorkloadResult workload_queue(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  r.comparable = false;

  struct QStep {
    bool push;
    sim::Word value;
  };
  std::vector<std::vector<QStep>> sched(cfg.threads);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    sim::Rng rng(cfg.seed * 0xd1342543de82ef95ull + 13 * t + 5);
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      bool push = rng.below(100) < 55;
      sim::Word tag = (static_cast<sim::Word>(t + 1) << 32) | j;
      sched[t].push_back({push, tag});
    }
  }

  constexpr uint32_t kPrefill = 8;
  std::unique_ptr<stamp::Queue> q;
  uint64_t initial_count = 0, initial_sum = 0;
  auto setup = [&](TxRuntime& rt) {
    q = std::make_unique<stamp::Queue>(
        stamp::Queue::create(rt, cfg.threads * cfg.loops + kPrefill + 4));
    for (uint32_t i = 0; i < kPrefill; ++i) {
      sim::Word v = (1ull << 48) | i;
      q->host_push(rt, v);
      ++initial_count;
      initial_sum += v;
    }
  };

  std::vector<uint64_t> pushes(cfg.threads, 0), pops(cfg.threads, 0);
  std::vector<uint64_t> push_sum(cfg.threads, 0), pop_sum(cfg.threads, 0);
  auto worker = [&](TxCtx& ctx) {
    uint32_t t = ctx.id();
    for (const QStep& s : sched[t]) {
      // Results are latched inside the body but consumed only after the
      // transaction returns: the last (committed) attempt wins, so aborted
      // attempts cannot corrupt the host-side tallies.
      bool did = false;
      sim::Word popped = 0;
      if (s.push) {
        ctx.transaction([&] { did = q->push(ctx, s.value); });
        if (did) {
          ++pushes[t];
          push_sum[t] += s.value;
        }
      } else {
        ctx.transaction([&] { did = q->pop(ctx, &popped); });
        if (did) {
          ++pops[t];
          pop_sum[t] += popped;
        }
      }
    }
  };

  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  uint64_t pushed = initial_count, popped = 0, sum_in = initial_sum,
           sum_out = 0;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    pushed += pushes[t];
    popped += pops[t];
    sum_in += push_sum[t];
    sum_out += pop_sum[t];
  }

  // Survey the surviving ring contents host-side.
  auto& m = out.rt->machine();
  sim::Addr base = q->base();
  sim::Word pop_i = m.peek(base), push_i = m.peek(base + 8);
  sim::Word ring = m.peek(base + 16);
  sim::Addr elems = m.peek(base + 24);
  uint64_t remaining = (push_i + ring - pop_i) % ring;
  uint64_t remaining_sum = 0;
  for (uint64_t k = 0; k < remaining; ++k) {
    remaining_sum += m.peek(elems + ((pop_i + k) % ring) * sim::kWordBytes);
  }

  if (pushed - popped != remaining) {
    std::ostringstream os;
    os << "element count not conserved: " << pushed << " in, " << popped
       << " out, but " << remaining << " remain";
    r.ok = false;
    r.error = os.str();
  } else if (sum_in - sum_out != remaining_sum) {
    std::ostringstream os;
    os << "element values not conserved: sum in " << sum_in << ", out "
       << sum_out << ", remaining " << remaining_sum;
    r.ok = false;
    r.error = os.str();
  }
  if (r.ok) fill_history_failure(r, out);
  return r;
}

// ---- elide-mutex: increment kernel under an elide::mutex ----------------
//
// The eigen-inc kernel with every access running under one elide::mutex:
// most sections go through critical_section (speculation + fallback), and
// every fourth through locked_section, whose deliberately widened
// load-compute-store bodies give unsubscribed speculation (the
// break_elision canary) a window to commit inside a real holder's section
// and lose its increments. Expected counts and digest are exactly
// eigen-inc's.

WorkloadResult workload_elide_mutex(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  std::vector<std::vector<uint32_t>> sched(cfg.threads);
  std::vector<uint64_t> expected(kArrayWords, 0);
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    sim::Rng rng(cfg.seed * 0xbf58476d1ce4e5b9ull + 3 * t + 2);
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      for (uint32_t k = 0; k < kTxWords; ++k) {
        uint32_t idx = static_cast<uint32_t>(rng.below(kArrayWords));
        sched[t].push_back(idx);
        ++expected[idx];
      }
    }
  }

  sim::Addr arr = 0;
  std::unique_ptr<elide::mutex> mu;
  auto setup = [&](TxRuntime& rt) {
    arr = rt.heap().host_alloc(kArrayWords * sim::kWordBytes, sim::kLineBytes);
    for (uint32_t i = 0; i < kArrayWords; ++i) {
      rt.machine().poke(arr + i * sim::kWordBytes, 0);
    }
    elide::ElideConfig ec;
    ec.subscribe = !cfg.break_elision;
    mu = std::make_unique<elide::mutex>(rt, "oracle-mutex", ec);
  };
  auto worker = [&](TxCtx& ctx) {
    const std::vector<uint32_t>& s = sched[ctx.id()];
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      auto body = [&] {
        for (uint32_t k = 0; k < kTxWords; ++k) {
          sim::Addr a = arr + s[j * kTxWords + k] * sim::kWordBytes;
          sim::Word v = ctx.load(a);
          if (j % 4 == 3) ctx.compute(60);  // widen the holder's window
          ctx.store(a, v + 1);
        }
      };
      if (j % 4 == 3) {
        mu->locked_section(ctx, body);
      } else {
        mu->critical_section(ctx, body);
      }
    }
  };

  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  harness::Digest digest;
  for (uint32_t i = 0; i < kArrayWords; ++i) {
    sim::Word v = out.rt->machine().peek(arr + i * sim::kWordBytes);
    digest.add(v);
    if (r.ok && v != expected[i]) {
      std::ostringstream os;
      os << "lost update under elided lock: word " << i << " = " << v
         << ", expected " << expected[i] << " increments";
      r.ok = false;
      r.error = os.str();
    }
  }
  r.digest = digest.value();
  if (r.ok) fill_history_failure(r, out);
  return r;
}

// ---- elide-shared: invariant x == y under an elide::shared_mutex --------
//
// Writers keep two words in lockstep through exclusive sections; readers
// snapshot both through shared sections and must never observe x != y. The
// final state is write-count-determined, hence digest-comparable.

WorkloadResult workload_elide_shared(Backend backend, const OracleConfig& cfg) {
  WorkloadResult r;
  std::vector<std::vector<bool>> writes(cfg.threads);
  uint64_t total_writes = 0;
  for (uint32_t t = 0; t < cfg.threads; ++t) {
    sim::Rng rng(cfg.seed * 0x94d049bb133111ebull + 11 * t + 3);
    for (uint32_t j = 0; j < cfg.loops; ++j) {
      bool w = rng.below(100) < 40;
      writes[t].push_back(w);
      if (w) ++total_writes;
    }
  }

  sim::Addr xw = 0, yw = 0;
  std::unique_ptr<elide::shared_mutex> mu;
  auto setup = [&](TxRuntime& rt) {
    // Separate lines so reader and writer sections conflict only through
    // the lock protocol, not false sharing.
    xw = rt.heap().host_alloc(sim::kLineBytes, sim::kLineBytes);
    yw = rt.heap().host_alloc(sim::kLineBytes, sim::kLineBytes);
    rt.machine().poke(xw, 0);
    rt.machine().poke(yw, 0);
    elide::ElideConfig ec;
    ec.subscribe = !cfg.break_elision;
    mu = std::make_unique<elide::shared_mutex>(rt, "oracle-rw", ec);
  };

  bool torn = false;
  sim::Word torn_x = 0, torn_y = 0;
  auto worker = [&](TxCtx& ctx) {
    for (bool w : writes[ctx.id()]) {
      if (w) {
        mu->critical_section(ctx, [&] {
          sim::Word x = ctx.load(xw);
          ctx.store(xw, x + 1);
          ctx.compute(30);
          ctx.store(yw, ctx.load(yw) + 1);
        });
      } else {
        // Latched inside, consumed after: the committed attempt wins.
        sim::Word vx = 0, vy = 0;
        mu->critical_section_shared(ctx, [&] {
          vx = ctx.load(xw);
          vy = ctx.load(yw);
        });
        if (vx != vy && !torn) {
          torn = true;
          torn_x = vx;
          torn_y = vy;
        }
      }
    }
  };

  RunOutcome out = run_with_check(backend, cfg, setup, worker);
  sim::Word fx = out.rt->machine().peek(xw);
  sim::Word fy = out.rt->machine().peek(yw);
  harness::Digest digest;
  digest.add(fx);
  digest.add(fy);
  r.digest = digest.value();
  if (torn) {
    std::ostringstream os;
    os << "reader observed torn invariant: x = " << torn_x << ", y = "
       << torn_y;
    r.ok = false;
    r.error = os.str();
  } else if (fx != total_writes || fy != total_writes) {
    std::ostringstream os;
    os << "lost writer update: x = " << fx << ", y = " << fy << ", expected "
       << total_writes;
    r.ok = false;
    r.error = os.str();
  }
  if (r.ok) fill_history_failure(r, out);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "eigen-inc", "rbtree", "hashtable", "queue", "elide-mutex",
      "elide-shared"};
  return names;
}

const std::vector<core::Backend>& default_backends() {
  static const std::vector<core::Backend> backends = {
      Backend::kRtm, Backend::kHle, Backend::kTinyStm, Backend::kLock,
      Backend::kCas, Backend::kHybrid};
  return backends;
}

WorkloadResult run_workload(const std::string& name, core::Backend backend,
                            const OracleConfig& cfg) {
  if (name == "eigen-inc") return workload_eigen_inc(backend, cfg);
  if (name == "rbtree") return workload_rbtree(backend, cfg);
  if (name == "hashtable") return workload_hashtable(backend, cfg);
  if (name == "queue") return workload_queue(backend, cfg);
  if (name == "elide-mutex") return workload_elide_mutex(backend, cfg);
  if (name == "elide-shared") return workload_elide_shared(backend, cfg);
  WorkloadResult r;
  r.ok = false;
  r.error = "unknown workload '" + name + "'";
  return r;
}

OracleResult run_oracle(const std::vector<std::string>& workloads,
                        const std::vector<core::Backend>& backends,
                        const OracleConfig& cfg) {
  OracleResult res;
  for (const std::string& w : workloads) {
    bool have_ref = false;
    uint64_t ref_digest = 0;
    std::string ref_backend;
    for (core::Backend b : backends) {
      WorkloadResult wr = run_workload(w, b, cfg);
      if (!wr.ok) {
        res.ok = false;
        res.workload = w;
        res.backend = core::backend_name(b);
        res.error = wr.error;
        return res;
      }
      if (!wr.comparable) continue;
      if (!have_ref) {
        have_ref = true;
        ref_digest = wr.digest;
        ref_backend = core::backend_name(b);
      } else if (wr.digest != ref_digest) {
        res.ok = false;
        res.workload = w;
        res.backend = core::backend_name(b);
        res.digest_mismatch = true;
        res.error = "final-state digest diverges from " + ref_backend;
        return res;
      }
    }
  }
  return res;
}

}  // namespace tsx::check
