#pragma once
// Drop-in transactional lock elision (ROADMAP item 1): a std::-shaped
// synchronization family whose lock paths speculate through the runtime's
// configured TxExecutor backend instead of acquiring the lock, in the style
// of MariaDB's transactional_lock_guard and the txlock library.
//
//   elide::mutex               — exclusive lock, TAS word layout
//   elide::shared_mutex        — reader/writer lock, SerialRwLock protocol
//   elide::sux_lock            — shared / update / exclusive (InnoDB-style)
//   elide::condition_variable  — Mesa-semantics cv over elide::mutex
//
// The elision protocol (DESIGN.md §9):
//   * critical_section(body) first attempts the body speculatively with the
//     lock word subscribed: the executor reads the word inside the
//     transaction and bails kLockBusy when it is held, so a real lock
//     holder excludes all elided sections, and the word joins the read set
//     so a later acquisition aborts in-flight elided sections.
//   * Attempts are metered by the lock's own core::RetryPolicy budget and
//     retried without backoff. On exhaustion the section falls back to the
//     real lock — acquired with the sync::spinlock protocols through
//     executor lock-word RMWs — and runs via TxCtx::elide_fallback so heap
//     scoping and the check recorder see the same unit shape as an elided
//     section.
//   * Per-lock statistics (attempts, elided commits, fallbacks, wasted
//     cycles) feed the PMU through the runtime's TraceSink, and a txlock
//     style self-stop permanently disables elision on locks whose wasted
//     cycle share stays above a threshold for consecutive windows.
//   * Condition-variable wait is a non-elidable slow path by design: wait
//     must publish its waiter registration and block, which cannot commit
//     inside a speculative section. wait() therefore requires the mutex to
//     be *really* held (elided callers throw), like glibc's elision rules.
//
// All lock words live in the dedicated elide region (mem/layout.h), one or
// more full cache lines per lock, so the check recorder filters their
// transient spin values exactly like the backends' runtime locks.

#include <cstdint>
#include <functional>
#include <string>

#include "core/runtime.h"
#include "sim/types.h"
#include "util/fn_ref.h"

namespace tsx::elide {

using sim::Addr;
using sim::Cycles;
using sim::Word;

// Per-lock elision knobs. The retry policy defaults mirror the paper's
// Algorithm 1 (8 attempts, immediate retry); `subscribe = false` exists only
// for the broken-elision canary the oracle must catch.
struct ElideConfig {
  core::RetryPolicy retry{};
  bool elision_enabled = true;  // false: every section takes the real lock
  bool subscribe = true;        // false: canary — do not subscribe the word
  // Self-stop heuristic (txlock "stops"): every `selfstop_window` completed
  // acquisitions, if wasted / (elided + wasted) speculative cycles exceeded
  // 3/4 for `selfstop_strikes` consecutive windows, elision is disabled
  // permanently for this lock.
  uint32_t selfstop_window = 64;
  uint32_t selfstop_strikes = 2;
};

// Host-side per-lock statistics (exact; mirrored to the PMU when tracing).
struct ElideStats {
  uint64_t acquisitions = 0;  // completed critical/locked sections
  uint64_t attempts = 0;      // speculative attempts, incl. busy bails
  uint64_t elided = 0;        // sections committed speculatively
  uint64_t busy_waits = 0;    // attempts that bailed on a held lock word
  uint64_t aborts = 0;        // attempts aborted for data/capacity/interrupt
  uint64_t fallbacks = 0;     // sections that exhausted the attempt budget
  uint64_t lock_acquires = 0; // explicit lock() / locked_section holds
  uint64_t self_stops = 0;    // 0 or 1: the self-stop trip
  Cycles cycles_elided = 0;   // inside committed speculative attempts
  Cycles cycles_wasted = 0;   // inside attempts that did not commit
  bool stopped = false;       // elision disabled by the self-stop heuristic
};

namespace detail {

// State and policy shared by every elidable lock: identity (id, name, sink
// registration), statistics, the self-stop window accounting, and the one
// elided-section path. Subclasses provide the word layout and the real
// lock/unlock protocol.
class LockBase {
 public:
  const ElideStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }
  // True while elision is configured on and not self-stopped.
  bool elision_active() const {
    return cfg_.elision_enabled && !stats_.stopped;
  }
  // Test hook: clears a self-stop so elision resumes.
  void reset_elision() {
    stats_.stopped = false;
    window_acqs_ = window_elided_ = window_wasted_ = strikes_ = 0;
  }

 protected:
  LockBase(core::TxRuntime& rt, std::string name, const ElideConfig& cfg,
           uint32_t nlines);

  // One elided section. Attempts `body` speculatively under the retry
  // budget with `subscribed_word` watched (0 = unsubscribed canary mode).
  // `more_free`, when set, is evaluated *inside* the speculation (through
  // transactional loads) and bails the attempt as busy when false — used by
  // composite locks to also require e.g. readers == 0. On exhaustion it
  // takes the real lock with `acquire`, runs the body through
  // TxCtx::elide_fallback (calling `release` if it throws), calls `release`
  // and accounts the fallback acquisition.
  void section(core::TxCtx& ctx, util::FnRef<void()> body,
               Addr subscribed_word, const std::function<bool()>& more_free,
               util::FnRef<void()> acquire, util::FnRef<void()> release);

  // Reports a non-speculative acquisition (lock()/locked_section) so
  // acquisition counts stay comparable across modes.
  void note_locked_acquire(core::TxCtx& ctx);

  Addr subscribed(Addr word) const { return cfg_.subscribe ? word : 0; }
  uint32_t site() const { return site_; }

  core::TxRuntime& rt_;
  ElideConfig cfg_;
  ElideStats stats_;

 private:
  // Completes per-acquisition accounting: stats, PMU mirroring, and the
  // self-stop window.
  void account(core::TxCtx& ctx, obs::ElideAcqKind kind, uint64_t attempts,
               Cycles elided_c, Cycles wasted_c);

  uint32_t id_;
  uint32_t site_;  // trace-site label for elided attempts
  std::string name_;
  Addr base_;
  // Self-stop window accumulators.
  uint64_t window_acqs_ = 0;
  Cycles window_elided_ = 0;
  Cycles window_wasted_ = 0;
  uint32_t strikes_ = 0;

 protected:
  Addr base() const { return base_; }
};

}  // namespace detail

// Exclusive elidable mutex. Word layout: one word (0 = free, owner-id+1 =
// held), sync::TasSpinLock-compatible.
class mutex : public detail::LockBase {
 public:
  explicit mutex(core::TxRuntime& rt, std::string name = {},
                 const ElideConfig& cfg = {});

  // Non-speculative acquire/release (the "real lock" path). All transitions
  // go through executor lock-word RMWs so STM backends version-bump the
  // word's stripe (see TxExecutor::lock_cas).
  void lock(core::TxCtx& ctx);
  bool try_lock(core::TxCtx& ctx);
  void unlock(core::TxCtx& ctx);
  bool is_locked();                     // raw simulated read
  bool held_by(core::TxCtx& ctx);      // raw simulated read

  // Guard-shaped elided critical section: speculate, then fall back to
  // lock()+body+unlock() on budget exhaustion. Must be called outside any
  // atomic section (throws std::logic_error otherwise).
  void critical_section(core::TxCtx& ctx, util::FnRef<void()> body);

  // Forced non-speculative section: real acquisition around the body, with
  // the same heap/recorder bracketing as a fallback. Workloads use this to
  // guarantee genuine lock-holder windows.
  void locked_section(core::TxCtx& ctx, util::FnRef<void()> body);

  Addr word() const { return base(); }

 private:
  friend class condition_variable;
};

// Reader/writer elidable lock, sync::SerialRwLock protocol with the writer
// word and reader count on separate lines (raw reader traffic must not
// false-conflict with the subscribed writer word).
class shared_mutex : public detail::LockBase {
 public:
  explicit shared_mutex(core::TxRuntime& rt, std::string name = {},
                        const ElideConfig& cfg = {});

  void lock(core::TxCtx& ctx);          // exclusive
  bool try_lock(core::TxCtx& ctx);
  void unlock(core::TxCtx& ctx);
  void lock_shared(core::TxCtx& ctx);
  bool try_lock_shared(core::TxCtx& ctx);
  void unlock_shared(core::TxCtx& ctx);

  // Elided sections. The shared flavour subscribes only the writer word
  // (concurrent readers must not doom it); the exclusive flavour checks
  // writer == 0 && readers == 0 inside the speculation.
  void critical_section(core::TxCtx& ctx, util::FnRef<void()> body);
  void critical_section_shared(core::TxCtx& ctx,
                               util::FnRef<void()> body);

  Addr writer_word() const { return base(); }
  Addr reader_word() const { return base() + sim::kLineBytes; }
};

// Shared / update / exclusive lock in the InnoDB sux_lock shape: update
// coexists with shared but excludes update/exclusive; exclusive excludes
// everything and is reached by upgrading an update hold.
// Words (one line each): update owner, writer flag, reader count.
class sux_lock : public detail::LockBase {
 public:
  explicit sux_lock(core::TxRuntime& rt, std::string name = {},
                    const ElideConfig& cfg = {});

  void s_lock(core::TxCtx& ctx);
  bool try_s_lock(core::TxCtx& ctx);
  void s_unlock(core::TxCtx& ctx);

  void u_lock(core::TxCtx& ctx);
  bool try_u_lock(core::TxCtx& ctx);
  void u_unlock(core::TxCtx& ctx);

  void x_lock(core::TxCtx& ctx);    // u_lock + upgrade
  void x_unlock(core::TxCtx& ctx);
  void u_x_upgrade(core::TxCtx& ctx);
  void x_u_downgrade(core::TxCtx& ctx);

  // Elided sections: shared subscribes the writer flag; exclusive checks
  // update, writer and readers all free inside the speculation.
  void critical_section_shared(core::TxCtx& ctx,
                               util::FnRef<void()> body);
  void critical_section_x(core::TxCtx& ctx, util::FnRef<void()> body);

  Addr update_word() const { return base(); }
  Addr writer_word() const { return base() + sim::kLineBytes; }
  Addr reader_word() const { return base() + 2 * sim::kLineBytes; }
};

// Mesa-semantics condition variable over elide::mutex. wait() is the
// documented non-elidable slow path: it requires the mutex to be really
// held by the caller (elided sections cannot block) and publishes waiter
// registration with raw RMWs. Wakeups may be spurious; callers loop on
// their predicate as with std::condition_variable.
class condition_variable {
 public:
  explicit condition_variable(core::TxRuntime& rt, std::string name = {});

  // Atomically releases `m` and blocks until a notify arrives (Mesa:
  // possibly spuriously); reacquires `m` before returning. Throws
  // std::logic_error when called inside an atomic section or without
  // holding `m`.
  void wait(core::TxCtx& ctx, mutex& m);

  template <class Pred>
  void wait(core::TxCtx& ctx, mutex& m, Pred&& pred) {
    while (!pred()) wait(ctx, m);
  }

  // Callable with or without the mutex held, and from inside elided or
  // transactional sections (the sequence bump is then transactional).
  void notify_one(core::TxCtx& ctx);
  void notify_all(core::TxCtx& ctx);

  Addr seq_word() const { return base_; }
  Addr waiters_word() const { return base_ + sim::kWordBytes; }

 private:
  void bump(core::TxCtx& ctx);

  core::TxRuntime& rt_;
  std::string name_;
  Addr base_;
};

}  // namespace tsx::elide
