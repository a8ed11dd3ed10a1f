#include "stm/common.h"

#include "obs/trace_sink.h"

namespace tsx::stm {

const char* stm_abort_cause_name(StmAbortCause c) {
  switch (c) {
    case StmAbortCause::kReadLocked: return "read-locked";
    case StmAbortCause::kReadVersion: return "read-version";
    case StmAbortCause::kWriteLocked: return "write-locked";
    case StmAbortCause::kValidation: return "validation";
    case StmAbortCause::kCount: break;
  }
  return "?";
}

void LockTable::init() {
  // The lock table is allocated and touched at library startup, before any
  // measured region, so its pages are simply made present.
  m_.prefault(base_, bytes());
  for (uint64_t i = 0; i < entries_; ++i) {
    m_.poke(base_ + i * sim::kWordBytes, 0);
  }
}

void StmExecutor::execute(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  uint32_t attempt_no = 0;
  CtxId ctx = m_.current_ctx();
  for (;;) {
    ++attempt_no;
    ++stm_.stats().starts;
    // Attempt window opens before tx_start: clock-read/snapshot work done
    // there is discarded on abort, so it belongs to the attempt.
    Cycles t0 = m_.now();
    stm_.tx_start(ctx);
    if (sink_) sink_->stm_begin(ctx, m_.now(), site);
    hooks_.on_begin();
    try {
      body();
      stm_.tx_commit(ctx);
      stm_.stats().cycles_committed += m_.now() - t0;
      if (sink_) sink_->stm_commit(ctx, m_.now());
      hooks_.on_commit();
      return;
    } catch (const StmAborted& a) {
      uint64_t line = a.addr == ~sim::Addr{0} ? ~0ull : sim::line_of(a.addr);
      CtxId attacker = a.owner == sim::kNoCtx ? ctx : a.owner;
      stm_.tx_abort_cleanup(ctx);
      stm_.stats().cycles_aborted += m_.now() - t0;
      if (sink_) sink_->stm_abort(ctx, m_.now(), line, attacker);
      hooks_.on_abort();
      // Suicide + policy-shaped backoff (randomized exponential by default;
      // same rng-draw sequence as the historical inline formula).
      Cycles wait = policy_.backoff_cycles(attempt_no, m_.setup_rng());
      if (sink_) sink_->retry_decision(ctx, m_.now(), false, wait);
      if (wait) m_.compute(wait);
    }
  }
}

bool StmExecutor::execute_once(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  ++stm_.stats().starts;
  CtxId ctx = m_.current_ctx();
  Cycles t0 = m_.now();
  stm_.tx_start(ctx);
  if (sink_) sink_->stm_begin(ctx, m_.now(), site);
  hooks_.on_begin();
  try {
    body();
    stm_.tx_commit(ctx);
    stm_.stats().cycles_committed += m_.now() - t0;
    if (sink_) sink_->stm_commit(ctx, m_.now());
    hooks_.on_commit();
    return true;
  } catch (const StmAborted& a) {
    uint64_t line = a.addr == ~sim::Addr{0} ? ~0ull : sim::line_of(a.addr);
    CtxId attacker = a.owner == sim::kNoCtx ? ctx : a.owner;
    stm_.tx_abort_cleanup(ctx);
    stm_.stats().cycles_aborted += m_.now() - t0;
    if (sink_) sink_->stm_abort(ctx, m_.now(), line, attacker);
    hooks_.on_abort();
    return false;
  }
}

}  // namespace tsx::stm
