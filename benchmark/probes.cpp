#include "probes.h"

#include <algorithm>
#include <functional>

#include "core/runtime.h"
#include "elide/elide.h"
#include "htm/rtm.h"
#include "mem/sim_heap.h"
#include "sim/fiber.h"
#include "spans.h"

namespace tsxbench {

namespace core = tsx::core;
namespace sim = tsx::sim;

namespace {

constexpr int kRepeats = 5;

sim::MachineConfig quiet() {
  sim::MachineConfig cfg;
  cfg.interrupts_enabled = false;
  return cfg;
}

// Each probe builds its fixture, then times only the loop; returns host
// nanoseconds per operation.
double l1_load() {
  constexpr int kOps = 1 << 18;
  sim::Machine mm(quiet(), 1);
  mm.prefault(0x1000, 4096);
  mm.set_thread(0, [&mm] {
    for (int i = 0; i < kOps; ++i) mm.load(0x1000);
  });
  double t0 = now_s();
  mm.run();
  return (now_s() - t0) * 1e9 / kOps;
}

double fiber_switch() {
  constexpr int kOps = 1 << 16;
  sim::Fiber* self = nullptr;
  bool stop = false;
  sim::Fiber f(64 * 1024, [&] {
    while (!stop) self->yield();
  });
  self = &f;
  double t0 = now_s();
  for (int i = 0; i < kOps; ++i) f.resume();
  double ns = (now_s() - t0) * 1e9 / kOps;
  stop = true;
  f.resume();
  return ns;
}

double rtm_attempt() {
  constexpr int kOps = 1 << 14;
  sim::Machine mm(quiet(), 1);
  mm.prefault(0x1000, 4096);
  mm.set_thread(0, [&mm] {
    for (int i = 0; i < kOps; ++i) {
      tsx::htm::attempt(mm, [&mm] { mm.store(0x1000, 1); });
    }
  });
  double t0 = now_s();
  mm.run();
  return (now_s() - t0) * 1e9 / kOps;
}

// One runtime on `backend`, `kOps` transactions of `body`; ns per
// transaction.
double runtime_tx(core::Backend backend,
                  const std::function<void(core::TxCtx&, sim::Addr, int)>& body) {
  constexpr int kOps = 1 << 12;
  core::RunConfig cfg;
  cfg.backend = backend;
  cfg.threads = 1;
  cfg.machine.interrupts_enabled = false;
  cfg.stm.lock_table_entries = 1u << 14;
  core::TxRuntime rt(cfg);
  sim::Addr a = rt.heap().host_alloc(4096, 64);
  double t0 = now_s();
  rt.run([&](core::TxCtx& ctx) {
    for (int i = 0; i < kOps; ++i) body(ctx, a, i);
  });
  return (now_s() - t0) * 1e9 / kOps;
}

double stm_read_tx() {
  return runtime_tx(core::Backend::kTinyStm,
                    [](core::TxCtx& ctx, sim::Addr a, int i) {
                      ctx.transaction([&] {
                        for (int w = 0; w < 16; ++w) ctx.load(a + w * 8);
                        ctx.store(a, static_cast<sim::Word>(i));
                      });
                    });
}

double stm_write_tx() {
  return runtime_tx(core::Backend::kTinyStm,
                    [](core::TxCtx& ctx, sim::Addr a, int i) {
                      ctx.transaction([&] {
                        for (int w = 0; w < 16; ++w) {
                          ctx.store(a + w * 8, static_cast<sim::Word>(i + w));
                        }
                      });
                    });
}

double heap_alloc_free() {
  constexpr int kOps = 1 << 14;
  sim::Machine mm(quiet(), 1);
  tsx::mem::SimHeap heap(mm);
  mm.set_thread(0, [&mm, &heap] {
    for (int i = 0; i < kOps; ++i) heap.free(heap.alloc(64));
  });
  double t0 = now_s();
  mm.run();
  return (now_s() - t0) * 1e9 / kOps;
}

double elide_fast_path() {
  constexpr int kOps = 1 << 12;
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 1;
  cfg.machine.interrupts_enabled = false;
  core::TxRuntime rt(cfg);
  sim::Addr a = rt.heap().host_alloc(4096, 64);
  tsx::elide::mutex mu(rt);
  double t0 = now_s();
  rt.run([&](core::TxCtx& ctx) {
    for (int i = 0; i < kOps; ++i) {
      mu.critical_section(ctx, [&] { ctx.store(a, static_cast<sim::Word>(i)); });
    }
  });
  return (now_s() - t0) * 1e9 / kOps;
}

}  // namespace

std::vector<ProbeResult> run_probes() {
  const std::pair<const char*, double (*)()> probes[] = {
      {"sim.l1_load_ns", l1_load},         {"sim.fiber_switch_ns", fiber_switch},
      {"htm.attempt_ns", rtm_attempt},     {"stm.read_tx_ns", stm_read_tx},
      {"stm.write_tx_ns", stm_write_tx},   {"mem.alloc_free_ns", heap_alloc_free},
      {"elide.fast_path_ns", elide_fast_path}};
  std::vector<ProbeResult> out;
  for (const auto& [metric, fn] : probes) {
    ProbeResult r;
    r.metric = metric;
    r.start_s = now_s();
    std::vector<double> ns;
    for (int i = 0; i < kRepeats; ++i) ns.push_back(fn());
    std::sort(ns.begin(), ns.end());
    r.ns_per_op = ns[ns.size() / 2];
    r.end_s = now_s();
    out.push_back(r);
  }
  return out;
}

}  // namespace tsxbench
