#pragma once
// Cooperative fibers. Each simulated hardware thread runs its workload on a
// fiber; the Machine scheduler runs the fiber whose local clock is globally
// minimal, so memory events are totally ordered and the whole simulation is
// deterministic and single-OS-threaded (no data races by construction; cf.
// Core Guidelines CP.2).
//
// Control flow: resume() enters a fiber from the scheduler (the code that
// called resume()). The running fiber either yield()s back to that
// scheduler or yield_to()s another fiber directly (a handoff), which then
// returns to the same scheduler when it yields or finishes. resume()
// therefore returns when *some* fiber of the handoff chain yields or
// finishes; the caller tracks which one.
//
// A switch saves only what the x86-64 SysV ABI makes callee-saved (rbx,
// rbp, r12-r15, the stack pointer, MXCSR and the x87 control word): no
// signal mask and no system call. Other architectures fall back to POSIX
// ucontext. Every switch also swaps the C++ runtime's per-thread exception
// state (the caught-exception stack and the uncaught count), so a catch
// block that yields and then `throw;`s rethrows its own exception. ASan and
// TSan builds announce every switch to the sanitizer.
//
// Stacks are mmap'ed with a PROT_NONE guard page below them: pages are
// committed on first touch, and an overflow faults instead of corrupting
// the heap.
//
// Exceptions may be thrown and caught *within* a fiber; they must never
// propagate out of the fiber entry function (the entry traps them) and
// unwinding never crosses a context switch.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace tsx::sim {

class Fiber {
 public:
  // `fn` runs on the fiber's own stack of at least `stack_bytes` (rounded
  // up to whole pages) when the fiber is first entered.
  Fiber(size_t stack_bytes, std::function<void()> fn);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switches from the scheduler into the fiber. Returns when this fiber, or
  // a fiber it handed off to, yields or finishes. Must not be called on a
  // finished fiber.
  void resume();

  // Switches from inside this (running) fiber back to its scheduler.
  void yield();

  // Hands off from inside this (running) fiber straight to `next`, a fresh
  // or suspended fiber other than this one; `next` inherits this fiber's
  // scheduler. Returns when some fiber switches back to this one.
  void yield_to(Fiber& next);

  bool finished() const;

  // Set if fn terminated with an exception (a bug in workload code); the
  // scheduler rethrows it on the main context so tests see the failure.
  std::exception_ptr error() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tsx::sim
