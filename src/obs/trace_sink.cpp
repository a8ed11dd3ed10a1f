#include "obs/trace_sink.h"

#include <stdexcept>

namespace tsx::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kTxCommit: return "tx_commit";
    case EventKind::kTxAbort: return "tx_abort";
    case EventKind::kEvict: return "evict";
    case EventKind::kRetry: return "retry";
  }
  return "?";
}

TraceSink::TraceSink(size_t capacity, sim::Cycles window_cycles)
    : cap_(capacity),
      arena_(capacity * sizeof(Event)),
      window_cycles_(window_cycles) {
  if (capacity == 0) throw std::invalid_argument("TraceSink capacity == 0");
  ring_ = arena_.alloc_array<Event>(capacity);
}

void TraceSink::push(const Event& e) {
  if (size_ < cap_) {
    ring_[size_++] = e;
    return;
  }
  ring_[head_] = e;  // overwrite the oldest
  if (++head_ == cap_) head_ = 0;
  ++dropped_;
}

MetricsWindow& TraceSink::window(sim::Cycles t) {
  size_t idx = window_cycles_ ? static_cast<size_t>(t / window_cycles_) : 0;
  if (idx >= windows_.size()) {
    size_t old = windows_.size();
    windows_.resize(idx + 1);
    for (size_t i = old; i <= idx; ++i) {
      windows_[i].start = static_cast<sim::Cycles>(i) * window_cycles_;
    }
  }
  return windows_[idx];
}

void TraceSink::set_site(sim::CtxId ctx, uint32_t site) {
  CtxRecord& c = ctx_[ctx];
  if (c.site == site) return;
  c.site = site;
  c.agg = nullptr;  // resolved at the first event, so idle sites get no row
}

void TraceSink::set_site_name(uint32_t site, std::string name) {
  site_names_[site] = std::move(name);
}

void TraceSink::begin(sim::CtxId ctx, sim::Cycles t, uint8_t flags) {
  CtxRecord& c = ctx_[ctx];
  Event e;
  e.kind = EventKind::kTxBegin;
  e.flags = flags;
  e.ctx = ctx;
  e.t = t;
  e.site = c.site;
  push(e);
  ++site_agg(c).attempts;
  MetricsWindow& w = window(t);
  ++(flags & kFlagStm ? w.stm_starts : w.hw_starts);
  if (c.open) ++mismatched_;  // begin with an attempt still open
  c.open = true;
  c.begin_t = t;
}

void TraceSink::commit(sim::CtxId ctx, sim::Cycles t, uint8_t flags) {
  CtxRecord& c = ctx_[ctx];
  Event e;
  e.kind = EventKind::kTxCommit;
  e.flags = flags;
  e.ctx = ctx;
  e.t = t;
  e.site = c.site;
  push(e);
  ++site_agg(c).commits;
  MetricsWindow& w = window(t);
  ++(flags & kFlagStm ? w.stm_commits : w.hw_commits);
  if (!c.open) {
    ++mismatched_;
    return;
  }
  c.open = false;
  sim::Cycles dur = t >= c.begin_t ? t - c.begin_t : 0;
  c.committed += dur;
  w.committed_cycles += dur;
  tx_duration_.record(dur);
  retries_.record(c.abort_streak);
  c.abort_streak = 0;
}

void TraceSink::abort(sim::CtxId ctx, sim::Cycles t, sim::AbortReason reason,
                      uint64_t line, sim::CtxId attacker, uint8_t flags) {
  CtxRecord& c = ctx_[ctx];
  Event e;
  e.kind = EventKind::kTxAbort;
  e.flags = flags;
  e.ctx = ctx;
  e.t = t;
  e.site = c.site;
  e.reason = reason;
  e.line = line;
  e.attacker = attacker;
  e.attacker_site = attacker < ctx_.size() ? ctx_[attacker].site : kNoSite;
  push(e);

  SiteAgg& agg = site_agg(c);
  ++agg.aborts_by_reason[static_cast<size_t>(reason)];
  if (line != ~0ull) ++agg.conflict_lines[line];
  // Self-inflicted aborts are not blamed on an attacker site.
  bool attributed = e.attacker_site != kNoSite && attacker != ctx;
  if (attributed) ++agg.attacker_sites[e.attacker_site];

  MetricsWindow& w = window(t);
  if (flags & kFlagStm) {
    ++w.stm_aborts;
  } else {
    ++w.hw_aborts;
    ++w.aborts_by_misc[static_cast<size_t>(sim::misc_bucket_for(reason))];
    ++w.aborts_by_reason[static_cast<size_t>(reason)];
  }
  sim::Cycles wasted = 0;
  if (c.open) {
    c.open = false;
    wasted = t >= c.begin_t ? t - c.begin_t : 0;
    c.wasted += wasted;
    w.wasted_cycles += wasted;
    abort_latency_.record(wasted);
    ++c.abort_streak;
  } else {
    ++mismatched_;
  }
  agg.flame[attributed ? flame_attacker_key(e.attacker_site)
                       : flame_reason_key(reason)] += wasted;
}

void TraceSink::tx_begin(sim::CtxId ctx, sim::Cycles t) { begin(ctx, t, 0); }

void TraceSink::tx_commit(sim::CtxId ctx, sim::Cycles t) { commit(ctx, t, 0); }

void TraceSink::tx_abort(sim::CtxId victim, sim::Cycles t,
                         sim::AbortReason reason, uint64_t line,
                         sim::CtxId attacker) {
  abort(victim, t, reason, line, attacker, 0);
}

void TraceSink::stm_begin(sim::CtxId ctx, sim::Cycles t, uint32_t site) {
  set_site(ctx, site);
  begin(ctx, t, kFlagStm);
}

void TraceSink::stm_commit(sim::CtxId ctx, sim::Cycles t) {
  commit(ctx, t, kFlagStm);
}

void TraceSink::stm_abort(sim::CtxId ctx, sim::Cycles t, uint64_t line,
                          sim::CtxId attacker) {
  // STM aborts are data conflicts by construction (lock-word or validation
  // failures); the precise software cause is reported by StmStats.
  abort(ctx, t, sim::AbortReason::kConflict, line, attacker, kFlagStm);
}

void TraceSink::retry_decision(sim::CtxId ctx, sim::Cycles t, bool fallback,
                               sim::Cycles backoff) {
  CtxRecord& c = ctx_[ctx];
  Event e;
  e.kind = EventKind::kRetry;
  e.ctx = ctx;
  e.t = t;
  e.site = c.site;
  e.decision = fallback ? 1 : 0;
  e.backoff = backoff;
  push(e);
  if (!fallback) return;
  ++site_agg(c).fallbacks;
  ++window(t).fallbacks;
  ++fallbacks_;
  // The fallback execution commits the transaction outside any attempt
  // window; close this transaction's retry count here.
  retries_.record(c.abort_streak);
  c.abort_streak = 0;
}

void TraceSink::lock_section(sim::CtxId ctx, sim::Cycles t0, sim::Cycles t1) {
  (void)ctx;
  MetricsWindow& w = window(t1);
  ++w.lock_sections;
  w.lock_section_cycles += t1 >= t0 ? t1 - t0 : 0;
}

void TraceSink::evict(sim::CtxId by, sim::Cycles t, int level, uint64_t line) {
  Event e;
  e.kind = EventKind::kEvict;
  e.ctx = by;
  e.t = t;
  e.level = static_cast<uint8_t>(level);
  e.line = line;
  push(e);
}

void TraceSink::window_boundary(sim::Cycles t, const sim::MachineStats& stats) {
  WindowEnd& end = window(t - 1).end.emplace();
  end.machine = stats;
  end.fallbacks = fallbacks_;
  for (const CtxRecord& c : ctx_) {
    end.committed_cycles += c.committed;
    end.wasted_cycles += c.wasted;
  }
}

void TraceSink::elide_lock_name(uint32_t lock, const std::string& name) {
  lock_names_[lock] = name;
}

void TraceSink::elide_acquire(uint32_t lock, sim::Cycles t, ElideAcqKind kind,
                              uint64_t attempts, sim::Cycles cycles_elided,
                              sim::Cycles cycles_wasted, bool self_stopped) {
  ElideCounters& e = window(t).elide[lock];
  ++e.acquisitions;
  e.attempts += attempts;
  switch (kind) {
    case ElideAcqKind::kElided: ++e.elided; break;
    case ElideAcqKind::kFallback: ++e.fallbacks; break;
    case ElideAcqKind::kLocked: ++e.lock_acquires; break;
  }
  if (self_stopped) ++e.self_stops;
  e.cycles_elided += cycles_elided;
  e.cycles_wasted += cycles_wasted;
}

std::vector<Event> TraceSink::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  if (size_ < cap_) {
    out.assign(ring_, ring_ + size_);
    return out;
  }
  for (size_t i = 0; i < cap_; ++i) {
    out.push_back(ring_[(head_ + i) % cap_]);
  }
  return out;
}

}  // namespace tsx::obs
