#pragma once
// RTM programming interface on top of the simulated TSX machine.
//
// Two levels:
//   * attempt(): one hardware transaction attempt around a body — the moral
//     equivalent of _xbegin()/_xend() with the body in between. Returns the
//     commit/abort outcome instead of longjmp-style control flow.
//   * RtmExecutor: the paper's Algorithm 1 — retry with a serial
//     reader/writer-lock fallback, subscribing to the lock inside the
//     transaction so fallback acquisitions abort all running transactions
//     ("lock aborts").
//
// Abort classification matches the paper's Fig. 12 buckets (Table III):
// data-conflict/read-capacity (merged, as on real hardware), write-capacity,
// lock, misc3 (explicit/page-fault/unsupported-insn), misc5 (interrupts &c).

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/retry_policy.h"
#include "core/scope_hooks.h"
#include "sim/machine.h"
#include "sim/types.h"
#include "sync/spinlock.h"
#include "util/fn_ref.h"

namespace tsx::obs {
class TraceSink;
}

namespace tsx::htm {

using sim::AbortReason;
using sim::Addr;
using sim::Cycles;
using sim::Machine;

// The explicit abort code Algorithm 1 uses when it finds the serial lock
// held after starting a transaction.
inline constexpr uint8_t kAbortCodeLockBusy = 0xff;

struct AttemptResult {
  bool committed = false;
  uint32_t status = sim::xstatus::kStarted;
  AbortReason reason = AbortReason::kNone;
  uint64_t conflict_line = ~0ull;
  // Context whose access caused the abort (self for self-inflicted ones).
  sim::CtxId attacker = sim::kNoCtx;
  Cycles cycles = 0;  // duration of this attempt (begin..commit/abort)
};

// Runs `body` inside one hardware transaction attempt. The body performs its
// work through Machine ops; any abort (self- or remotely-initiated) unwinds
// the body via sim::TxAborted, which attempt() absorbs into the result.
// The body must keep host-side state transactional-safe: only locals, with
// all shared data in simulated memory (rolled back by the hardware model).
AttemptResult attempt(Machine& m, util::FnRef<void()> body);

// Reporting buckets used by the paper.
enum class AbortClass : uint8_t {
  kConflictOrReadCap = 0,  // hardware cannot tell these apart
  kWriteCapacity,
  kLock,   // aborts caused by a fallback lock acquisition
  kMisc3,  // explicit (non-lock), page fault, unsupported instruction
  kMisc5,  // interrupts / uncategorized
  kCount,
};
const char* abort_class_name(AbortClass c);

struct RtmStats {
  uint64_t transactions = 0;  // execute() calls
  uint64_t attempts = 0;
  uint64_t commits = 0;
  uint64_t fallbacks = 0;  // executions that took the fallback lock
  std::array<uint64_t, static_cast<size_t>(AbortClass::kCount)> aborts_by_class{};
  std::array<uint64_t, static_cast<size_t>(AbortReason::kCount)> aborts_by_reason{};
  Cycles cycles_committed = 0;  // in committing attempts
  Cycles cycles_aborted = 0;    // wasted in aborting attempts
  Cycles cycles_fallback = 0;   // in fallback sections (incl. lock wait)

  uint64_t aborts() const {
    uint64_t s = 0;
    for (uint64_t a : aborts_by_class) s += a;
    return s;
  }
  // Aborts per attempt, the paper's "abort rate".
  double abort_rate() const {
    return attempts ? static_cast<double>(aborts()) / static_cast<double>(attempts)
                    : 0.0;
  }
  double fallback_rate() const {
    return transactions
               ? static_cast<double>(fallbacks) / static_cast<double>(transactions)
               : 0.0;
  }

  void merge(const RtmStats& o);
};

// The hardware-attempt ledger of one executor: total and per-site RtmStats.
// RtmExecutor and the HLE and Hybrid TM executors all account through it.
class AttemptLedger {
 public:
  // Counts one execute() call at `site` and returns the site's index. Hold
  // the index, not a pointer: the body may yield to a fiber whose execute()
  // appends a new site and reallocates the table.
  size_t open(uint32_t site);
  // Counts one attempt; `cls` is the caller's bucket for an abort.
  void record(size_t idx, const AttemptResult& r, AbortClass cls);
  // Counts one fallback execution that took `cycles`.
  void fallback(size_t idx, Cycles cycles);

  const RtmStats& total() const { return total_; }
  // Per-site view (sites not seen return zeroed stats).
  RtmStats site(uint32_t site) const;
  const std::vector<std::pair<uint32_t, RtmStats>>& sites() const {
    return sites_;
  }

 private:
  RtmStats total_;
  std::vector<std::pair<uint32_t, RtmStats>> sites_;
};

// Algorithm 1: transactional execution with serial-lock fallback. One
// executor per Machine; all threads share it. A failed attempt is retried
// immediately; the attempt budget and lock-subscription mode come from the
// core::RetryPolicy.
class RtmExecutor {
 public:
  // `lock_base` must point at SerialRwLock::kFootprintBytes of simulated
  // memory, line-aligned so the subscription line is exclusive to the lock.
  RtmExecutor(Machine& m, Addr lock_base, core::RetryPolicy policy = {});

  // Host-side initialization of the lock words.
  void init();

  void set_scope_hooks(core::ScopeHooks hooks) { hooks_ = std::move(hooks); }

  // Optional observability sink (src/obs): execute() declares the call site
  // to it and reports every retry-policy decision (retry or fallback).
  // Begin/commit/abort events flow via the machine's ObsHooks.
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }

  // Executes `body` atomically: hardware transaction with retry, then
  // serial fallback. `site` identifies the static transaction site for
  // per-site statistics (Table IV's TID1-style breakdowns); pass 0 if
  // unneeded.
  void execute(util::FnRef<void()> body, uint32_t site = 0);

  // True while the calling context holds the serial lock (body code can
  // check this to know it runs non-speculatively).
  bool in_fallback() const;

  sync::SerialRwLock& lock() { return lock_; }
  const core::RetryPolicy& policy() const { return policy_; }

  // Aggregate statistics across all contexts / sites.
  RtmStats stats() const { return ledger_.total(); }
  // Per-site view (sites not seen return zeroed stats).
  RtmStats site_stats(uint32_t site) const { return ledger_.site(site); }
  const std::vector<std::pair<uint32_t, RtmStats>>& all_site_stats() const {
    return ledger_.sites();
  }

  static AbortClass classify(const AttemptResult& r, uint64_t lock_line);

 private:
  struct PerCtx {
    bool in_fallback = false;
  };

  Machine& m_;
  sync::SerialRwLock lock_;
  core::RetryPolicy policy_;
  core::ScopeHooks hooks_;
  obs::TraceSink* sink_ = nullptr;
  uint64_t lock_line_;
  std::array<PerCtx, sim::kMaxCtxs> per_ctx_{};
  AttemptLedger ledger_;
};

}  // namespace tsx::htm
