#pragma once
// core::RetryPolicy: the retry/fallback decision, hoisted out of the
// individual executors so every HTM-first path (RTM serial-fallback, Hybrid
// TM, lock elision) answers the same two questions the same way:
//   * how many speculative attempts before the fallback path? (budget)
//   * how does the fast path watch the fallback lock? (subscription)
// A failed attempt is retried immediately, as in the paper's Algorithm 1.
//
// Leaf header: depends only on the standard library, so htm/ and stm/ can
// accept a policy without linking against tsx_core.

#include <cstdint>

namespace tsx::core {

// How an HTM fast path watches its fallback lock (the ablation's knob).
// Both modes read the lock inside the transaction, which is what makes a
// fallback acquisition abort the speculative sections.
enum class LockSubscription : uint8_t {
  kSubscribeInTx = 0,  // Algorithm 1: read the lock inside the transaction
  kWaitThenSubscribe,  // spin for lock-free before xbegin, then subscribe
};

struct RetryPolicy {
  // Speculative attempts before the executor takes its fallback path;
  // <= 0 means unbounded (no fallback — retry until commit).
  int max_attempts = 8;  // the paper's MAX_RETRIES
  LockSubscription subscription = LockSubscription::kSubscribeInTx;

  bool unbounded() const { return max_attempts <= 0; }

  // True once `attempts` tries have been burned and the fallback is due.
  bool exhausted(uint32_t attempts) const {
    return !unbounded() && attempts >= static_cast<uint32_t>(max_attempts);
  }
};

}  // namespace tsx::core
