#pragma once
// core::ScopeHooks: callbacks bracketing every speculative attempt and every
// fallback execution, used by the simulated heap to undo allocations of
// aborted attempts and by the check recorder to bracket its units.
//
// Leaf header: htm/ and stm/ take hooks without linking against tsx_core.

#include <functional>

namespace tsx::core {

struct ScopeHooks {
  std::function<void()> begin;
  std::function<void()> commit;
  std::function<void()> abort;

  void on_begin() const { if (begin) begin(); }
  void on_commit() const { if (commit) commit(); }
  void on_abort() const { if (abort) abort(); }
};

}  // namespace tsx::core
