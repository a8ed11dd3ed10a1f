#pragma once
// Typed trace events for the observability subsystem (src/obs).
//
// Events are flat PODs so the ring buffer in TraceSink is a plain vector
// with no per-event allocation. Which fields are meaningful depends on
// `kind`; unused fields keep their zero/sentinel defaults. All timestamps
// are simulated cycles of the acting context, so event streams are a pure
// function of the run configuration and seed — byte-identical across
// harness `--jobs` values.

#include <cstdint>

#include "sim/types.h"

namespace tsx::obs {

enum class EventKind : uint8_t {
  kTxBegin = 0,  // transaction attempt started (hardware xbegin or STM)
  kTxCommit,     // attempt committed
  kTxAbort,      // attempt aborted (reason/line/attacker valid)
  kEvict,        // a capacity-tracked line left its tracking structure
  kRetry,        // retry-policy decision after a failed attempt
};

const char* event_kind_name(EventKind k);

// Site id meaning "no call site registered".
inline constexpr uint32_t kNoSite = ~0u;

// Event::flags bit: the attempt ran under an STM algorithm (software
// transaction; no hardware xbegin was involved).
inline constexpr uint8_t kFlagStm = 1u << 0;

struct Event {
  EventKind kind = EventKind::kTxBegin;
  uint8_t flags = 0;
  sim::CtxId ctx = 0;   // acting context (the victim for kTxAbort)
  sim::Cycles t = 0;    // simulated cycles

  // kTxBegin / kTxCommit / kTxAbort / kRetry
  uint32_t site = kNoSite;  // static xbegin call-site label

  // The one-byte fields sit together so the event packs into 48 bytes.
  sim::AbortReason reason = sim::AbortReason::kNone;  // kTxAbort
  // kEvict: 1 = L1 write-set eviction, 3 = L3 read-set eviction
  uint8_t level = 0;
  // kRetry: 0 = speculative retry (after `backoff` cycles), 1 = serial
  // fallback taken
  uint8_t decision = 0;

  // kTxAbort
  uint64_t line = ~0ull;               // conflicting line; kEvict: evicted line
  sim::CtxId attacker = ~sim::CtxId{0};
  uint32_t attacker_site = kNoSite;    // attacker's site at abort time

  sim::Cycles backoff = 0;  // kRetry
};

}  // namespace tsx::obs
