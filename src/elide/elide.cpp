#include "elide/elide.h"

#include <stdexcept>

#include "obs/trace_sink.h"

namespace tsx::elide {

namespace {

// Trace-site namespace for elided sections, far above bench site ids; the
// sink maps it to "elide:<name>" for abort attribution.
constexpr uint32_t kElideSiteBase = 0xe11d0000u;

// Self-stop threshold: the wasted share of a window's speculative cycles.
constexpr double kSelfStopWastedShare = 0.75;

Word owner_token(core::TxCtx& ctx) { return static_cast<Word>(ctx.id()) + 1; }

// Spins until the CAS of `word` from free (0) to `me` succeeds.
void spin_acquire(core::TxCtx& ctx, Addr word, Word me) {
  while (!ctx.lock_cas(word, 0, me)) ctx.pause();
}

// The reader half of the SerialRwLock protocol, shared by shared_mutex and
// sux_lock: count in, then back out if a writer is present.
bool try_enter_shared(core::TxCtx& ctx, Addr readers, Addr writer) {
  ctx.lock_fetch_add(readers, 1);
  if (ctx.load(writer) == 0) return true;
  ctx.lock_fetch_add(readers, static_cast<Word>(-1));
  return false;
}

// Retries try_enter_shared, waiting out each writer in between.
void enter_shared(core::TxCtx& ctx, Addr readers, Addr writer) {
  while (!try_enter_shared(ctx, readers, writer)) {
    while (ctx.load(writer) != 0) ctx.pause();
  }
}

void leave_shared(core::TxCtx& ctx, Addr readers) {
  ctx.lock_fetch_add(readers, static_cast<Word>(-1));
}

}  // namespace

namespace detail {

LockBase::LockBase(core::TxRuntime& rt, std::string name,
                   const ElideConfig& cfg, uint32_t nlines)
    : rt_(rt),
      cfg_(cfg),
      id_(rt.alloc_elide_lock_id()),
      site_(kElideSiteBase + id_),
      name_(name.empty() ? "lock#" + std::to_string(id_) : std::move(name)),
      base_(rt.alloc_elide_lines(nlines)) {
  // SeqExecutor provides no mutual exclusion for concurrent bodies, so
  // elision there would be unsound; the real-lock protocol still works.
  if (rt.config().backend == core::Backend::kSeq) cfg_.elision_enabled = false;
  for (uint32_t i = 0; i < nlines; ++i) {
    rt.machine().poke(base_ + i * sim::kLineBytes, 0);
  }
  if (obs::TraceSink* s = rt.trace_sink()) {
    s->elide_lock_name(id_, name_);
    s->set_site_name(site_, "elide:" + name_);
  }
}

void LockBase::account(core::TxCtx& ctx, obs::ElideAcqKind kind,
                       uint64_t attempts, Cycles elided_c, Cycles wasted_c) {
  ++stats_.acquisitions;
  bool tripped = false;
  if (elision_active() && cfg_.selfstop_window) {
    ++window_acqs_;
    window_elided_ += elided_c;
    window_wasted_ += wasted_c;
    if (window_acqs_ >= cfg_.selfstop_window) {
      Cycles spec = window_elided_ + window_wasted_;
      double share = spec ? static_cast<double>(window_wasted_) /
                                static_cast<double>(spec)
                          : 0.0;
      if (share > kSelfStopWastedShare) {
        if (++strikes_ >= cfg_.selfstop_strikes) {
          stats_.stopped = true;
          ++stats_.self_stops;
          tripped = true;
        }
      } else {
        strikes_ = 0;
      }
      window_acqs_ = 0;
      window_elided_ = 0;
      window_wasted_ = 0;
    }
  }
  if (obs::TraceSink* s = rt_.trace_sink()) {
    s->elide_acquire(id_, ctx.now(), kind, attempts, elided_c, wasted_c,
                     tripped);
  }
}

void LockBase::note_locked_acquire(core::TxCtx& ctx) {
  ++stats_.lock_acquires;
  account(ctx, obs::ElideAcqKind::kLocked, 0, 0, 0);
}

void LockBase::section(core::TxCtx& ctx, util::FnRef<void()> body,
                       Addr subscribed_word,
                       const std::function<bool()>& more_free,
                       util::FnRef<void()> acquire,
                       util::FnRef<void()> release) {
  uint32_t attempts = 0;
  Cycles wasted = 0;  // cycles burned in non-committing attempts
  if (elision_active()) {
    bool extra_busy = false;
    // Host-side wrapper only; the more_free branch costs nothing simulated.
    auto wrapped = [&extra_busy, &more_free, body] {
      if (more_free && !more_free()) {
        extra_busy = true;
        return;
      }
      body();
    };
    while (!cfg_.retry.exhausted(attempts)) {
      ++attempts;
      ++stats_.attempts;
      extra_busy = false;
      Cycles t0 = ctx.now();
      core::ElideOutcome out = ctx.elide(wrapped, subscribed_word, site_);
      Cycles dt = ctx.now() - t0;
      if (out == core::ElideOutcome::kCommitted && !extra_busy) {
        ++stats_.elided;
        stats_.cycles_elided += dt;
        stats_.cycles_wasted += wasted;
        account(ctx, obs::ElideAcqKind::kElided, attempts, dt, wasted);
        return;
      }
      wasted += dt;
      if (out == core::ElideOutcome::kAborted) {
        ++stats_.aborts;  // retried immediately
        continue;
      }
      // A real holder (or, on composite locks, a reader) excludes us; yield
      // a beat before retrying rather than hammering the held word.
      ++stats_.busy_waits;
      ctx.pause();
    }
    stats_.cycles_wasted += wasted;
  }
  // Budget exhausted (or elision off): take the real lock.
  ++stats_.fallbacks;
  acquire();
  try {
    ctx.elide_fallback(body, site_);
  } catch (...) {
    release();
    throw;
  }
  release();
  account(ctx, obs::ElideAcqKind::kFallback, attempts, 0, wasted);
}

}  // namespace detail

// ---- mutex ----

mutex::mutex(core::TxRuntime& rt, std::string name, const ElideConfig& cfg)
    : LockBase(rt, std::move(name), cfg, 1) {}

void mutex::lock(core::TxCtx& ctx) {
  spin_acquire(ctx, word(), owner_token(ctx));
  note_locked_acquire(ctx);
}

bool mutex::try_lock(core::TxCtx& ctx) {
  if (!ctx.lock_cas(word(), 0, owner_token(ctx))) return false;
  note_locked_acquire(ctx);
  return true;
}

void mutex::unlock(core::TxCtx& ctx) {
  if (!ctx.lock_cas(word(), owner_token(ctx), 0)) {
    throw std::logic_error("elide::mutex::unlock: not held by this context");
  }
}

// Host-side probes (peek, not load): usable both inside a fiber and after
// rt.run() returns; they deliberately stay out of any speculative read set.
bool mutex::is_locked() { return rt_.machine().peek(word()) != 0; }

bool mutex::held_by(core::TxCtx& ctx) {
  return rt_.machine().peek(word()) == owner_token(ctx);
}

void mutex::critical_section(core::TxCtx& ctx, util::FnRef<void()> body) {
  Word me = owner_token(ctx);
  section(
      ctx, body, subscribed(word()), {},
      [&] { spin_acquire(ctx, word(), me); },
      [&] { ctx.lock_cas(word(), me, 0); });
}

void mutex::locked_section(core::TxCtx& ctx, util::FnRef<void()> body) {
  lock(ctx);
  try {
    ctx.elide_fallback(body, site());
  } catch (...) {
    unlock(ctx);
    throw;
  }
  unlock(ctx);
}

// ---- shared_mutex ----

shared_mutex::shared_mutex(core::TxRuntime& rt, std::string name,
                           const ElideConfig& cfg)
    : LockBase(rt, std::move(name), cfg, 2) {}

void shared_mutex::lock(core::TxCtx& ctx) {
  spin_acquire(ctx, writer_word(), owner_token(ctx));
  while (ctx.load(reader_word()) != 0) ctx.pause();
  note_locked_acquire(ctx);
}

bool shared_mutex::try_lock(core::TxCtx& ctx) {
  Word me = owner_token(ctx);
  if (!ctx.lock_cas(writer_word(), 0, me)) return false;
  if (ctx.load(reader_word()) != 0) {
    // Readers in flight: back out instead of waiting them down.
    ctx.lock_cas(writer_word(), me, 0);
    return false;
  }
  note_locked_acquire(ctx);
  return true;
}

void shared_mutex::unlock(core::TxCtx& ctx) {
  if (!ctx.lock_cas(writer_word(), owner_token(ctx), 0)) {
    throw std::logic_error(
        "elide::shared_mutex::unlock: not held by this context");
  }
}

void shared_mutex::lock_shared(core::TxCtx& ctx) {
  enter_shared(ctx, reader_word(), writer_word());
  note_locked_acquire(ctx);
}

bool shared_mutex::try_lock_shared(core::TxCtx& ctx) {
  if (!try_enter_shared(ctx, reader_word(), writer_word())) return false;
  note_locked_acquire(ctx);
  return true;
}

void shared_mutex::unlock_shared(core::TxCtx& ctx) {
  leave_shared(ctx, reader_word());
}

void shared_mutex::critical_section(core::TxCtx& ctx,
                                    util::FnRef<void()> body) {
  // Exclusive speculation: the writer word is subscribed by the executor;
  // the reader count joins the read set through the in-transaction load, so
  // a raw reader's arrival dooms (or busies) the attempt.
  std::function<bool()> readers_free;
  if (cfg_.subscribe) {
    readers_free = [this, &ctx] { return ctx.load(reader_word()) == 0; };
  }
  Word me = owner_token(ctx);
  section(
      ctx, body, subscribed(writer_word()), readers_free,
      [&] {
        spin_acquire(ctx, writer_word(), me);
        while (ctx.load(reader_word()) != 0) ctx.pause();
      },
      [&] { ctx.lock_cas(writer_word(), me, 0); });
}

void shared_mutex::critical_section_shared(core::TxCtx& ctx,
                                           util::FnRef<void()> body) {
  // Shared speculation subscribes only the writer word: concurrent readers
  // (elided or real) must not exclude each other.
  section(
      ctx, body, subscribed(writer_word()), {},
      [&] { enter_shared(ctx, reader_word(), writer_word()); },
      [&] { leave_shared(ctx, reader_word()); });
}

// ---- sux_lock ----

sux_lock::sux_lock(core::TxRuntime& rt, std::string name,
                   const ElideConfig& cfg)
    : LockBase(rt, std::move(name), cfg, 3) {}

void sux_lock::s_lock(core::TxCtx& ctx) {
  enter_shared(ctx, reader_word(), writer_word());
  note_locked_acquire(ctx);
}

bool sux_lock::try_s_lock(core::TxCtx& ctx) {
  if (!try_enter_shared(ctx, reader_word(), writer_word())) return false;
  note_locked_acquire(ctx);
  return true;
}

void sux_lock::s_unlock(core::TxCtx& ctx) { leave_shared(ctx, reader_word()); }

void sux_lock::u_lock(core::TxCtx& ctx) {
  spin_acquire(ctx, update_word(), owner_token(ctx));
  note_locked_acquire(ctx);
}

bool sux_lock::try_u_lock(core::TxCtx& ctx) {
  if (!ctx.lock_cas(update_word(), 0, owner_token(ctx))) return false;
  note_locked_acquire(ctx);
  return true;
}

void sux_lock::u_unlock(core::TxCtx& ctx) {
  if (!ctx.lock_cas(update_word(), owner_token(ctx), 0)) {
    throw std::logic_error("elide::sux_lock::u_unlock: not the update holder");
  }
}

void sux_lock::u_x_upgrade(core::TxCtx& ctx) {
  Word me = owner_token(ctx);
  if (rt_.machine().load(update_word()) != me) {
    throw std::logic_error(
        "elide::sux_lock::u_x_upgrade: not the update holder");
  }
  // Only the (unique) update holder ever sets the writer flag, so this CAS
  // cannot race another writer; it *can* race elided sections, which have
  // the flag's line subscribed and abort on the write.
  ctx.lock_cas(writer_word(), 0, me);
  while (ctx.load(reader_word()) != 0) ctx.pause();
}

void sux_lock::x_u_downgrade(core::TxCtx& ctx) {
  if (!ctx.lock_cas(writer_word(), owner_token(ctx), 0)) {
    throw std::logic_error(
        "elide::sux_lock::x_u_downgrade: not the exclusive holder");
  }
}

void sux_lock::x_lock(core::TxCtx& ctx) {
  u_lock(ctx);
  u_x_upgrade(ctx);
}

void sux_lock::x_unlock(core::TxCtx& ctx) {
  x_u_downgrade(ctx);
  u_unlock(ctx);
}

void sux_lock::critical_section_shared(core::TxCtx& ctx,
                                       util::FnRef<void()> body) {
  // Shared coexists with an update holder, so only the writer flag is
  // subscribed: an elided reader runs happily beside u_lock owners and is
  // excluded (busied/doomed) exactly when an upgrade begins.
  section(
      ctx, body, subscribed(writer_word()), {},
      [&] { enter_shared(ctx, reader_word(), writer_word()); },
      [&] { leave_shared(ctx, reader_word()); });
}

void sux_lock::critical_section_x(core::TxCtx& ctx,
                                  util::FnRef<void()> body) {
  // Exclusive speculation subscribes the update word (any u/x holder
  // excludes us; writer != 0 implies update != 0 by protocol) and loads the
  // reader count in-transaction so reader arrivals doom the attempt.
  std::function<bool()> readers_free;
  if (cfg_.subscribe) {
    readers_free = [this, &ctx] { return ctx.load(reader_word()) == 0; };
  }
  Word me = owner_token(ctx);
  section(
      ctx, body, subscribed(update_word()), readers_free,
      [&] {
        spin_acquire(ctx, update_word(), me);
        ctx.lock_cas(writer_word(), 0, me);
        while (ctx.load(reader_word()) != 0) ctx.pause();
      },
      [&] {
        ctx.lock_cas(writer_word(), me, 0);
        ctx.lock_cas(update_word(), me, 0);
      });
}

// ---- condition_variable ----

condition_variable::condition_variable(core::TxRuntime& rt, std::string name)
    : rt_(rt), name_(std::move(name)), base_(rt.alloc_elide_lines(1)) {
  rt.machine().poke(seq_word(), 0);
  rt.machine().poke(waiters_word(), 0);
}

void condition_variable::wait(core::TxCtx& ctx, mutex& m) {
  if (ctx.in_atomic()) {
    throw std::logic_error(
        "elide::condition_variable::wait inside an atomic section (cv wait "
        "is a non-elidable slow path; hold the mutex for real)");
  }
  if (!m.held_by(ctx)) {
    throw std::logic_error(
        "elide::condition_variable::wait without holding the mutex");
  }
  // Register, snapshot the sequence, then release the mutex: a notify that
  // lands between the snapshot and the release bumps the sequence, so the
  // spin below exits immediately — no lost wakeup.
  ctx.fetch_add(waiters_word(), 1);
  Word s0 = ctx.load(seq_word());
  m.unlock(ctx);
  while (ctx.load(seq_word()) == s0) ctx.pause();
  ctx.fetch_add(waiters_word(), static_cast<Word>(-1));
  m.lock(ctx);
}

void condition_variable::bump(core::TxCtx& ctx) {
  if (ctx.in_atomic()) {
    // Inside an elided or transactional section: a raw RMW is illegal under
    // STM, so bump through the transactional data path.
    ctx.store(seq_word(), ctx.load(seq_word()) + 1);
  } else {
    ctx.fetch_add(seq_word(), 1);
  }
}

void condition_variable::notify_one(core::TxCtx& ctx) {
  // One sequence bump wakes every current spinner (Mesa semantics: they
  // re-check their predicates and at most one usually proceeds).
  if (ctx.load(waiters_word()) != 0) bump(ctx);
}

void condition_variable::notify_all(core::TxCtx& ctx) {
  if (ctx.load(waiters_word()) != 0) bump(ctx);
}

}  // namespace tsx::elide
