#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "sim/fiber.h"

namespace {

using tsx::sim::Fiber;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f(64 * 1024, [&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldAndResumeInterleave) {
  std::vector<int> order;
  Fiber* self = nullptr;
  Fiber f(64 * 1024, [&] {
    order.push_back(1);
    self->yield();
    order.push_back(3);
    self->yield();
    order.push_back(5);
  });
  self = &f;
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, TwoFibersPingPong) {
  std::vector<int> order;
  Fiber* fa = nullptr;
  Fiber* fb = nullptr;
  Fiber a(64 * 1024, [&] {
    order.push_back(10);
    fa->yield();
    order.push_back(12);
  });
  Fiber b(64 * 1024, [&] {
    order.push_back(11);
    fb->yield();
    order.push_back(13);
  });
  fa = &a;
  fb = &b;
  a.resume();
  b.resume();
  a.resume();
  b.resume();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 13}));
}

TEST(Fiber, ExceptionInsideFiberIsCapturedNotPropagated) {
  Fiber f(64 * 1024, [] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(f.resume());
  EXPECT_TRUE(f.finished());
  ASSERT_TRUE(f.error() != nullptr);
  EXPECT_THROW(std::rethrow_exception(f.error()), std::runtime_error);
}

TEST(Fiber, ExceptionCaughtWithinFiberIsFine) {
  bool caught = false;
  Fiber f(64 * 1024, [&] {
    try {
      throw std::runtime_error("inner");
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  f.resume();
  EXPECT_TRUE(caught);
  EXPECT_EQ(f.error(), nullptr);
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f(64 * 1024, [] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, DestroySuspendedFiberIsSafe) {
  Fiber* self = nullptr;
  auto f = std::make_unique<Fiber>(64 * 1024, [&] {
    self->yield();  // never resumed again
  });
  self = f.get();
  f->resume();
  EXPECT_FALSE(f->finished());
  f.reset();  // must not crash
}

// The Itanium C++ ABI keeps the stack of exceptions being handled per host
// thread; each fiber must see its own, or `throw;` after a yield rethrows a
// sibling's exception.
TEST(Fiber, CatchBlocksThatYieldRethrowTheirOwnException) {
  Fiber* fibers[2] = {};
  std::string rethrown[2];
  auto body = [&](int i) {
    return [&, i] {
      try {
        try {
          throw std::runtime_error(i == 0 ? "first" : "second");
        } catch (...) {
          fibers[i]->yield();  // cleanup that reaches a scheduling point
          throw;
        }
      } catch (const std::runtime_error& e) {
        rethrown[i] = e.what();
      }
    };
  };
  Fiber a(64 * 1024, body(0));
  Fiber b(64 * 1024, body(1));
  fibers[0] = &a;
  fibers[1] = &b;
  a.resume();  // both fibers suspend inside their catch blocks
  b.resume();
  a.resume();
  b.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(rethrown[0], "first");
  EXPECT_EQ(rethrown[1], "second");
}

// The uncaught-exception count is per host thread too: a destructor that
// yields during unwinding must not make other fibers (or the scheduler)
// believe an exception is in flight.
TEST(Fiber, UncaughtExceptionCountStaysOnItsFiber) {
  struct YieldsInDtor {
    Fiber** self;
    int* during_unwind;
    ~YieldsInDtor() {
      (*self)->yield();
      *during_unwind = std::uncaught_exceptions();
    }
  };
  Fiber* self = nullptr;
  int during_unwind = -1;
  int in_sibling = -1;
  Fiber a(64 * 1024, [&] {
    try {
      YieldsInDtor guard{&self, &during_unwind};
      throw std::runtime_error("unwinding");
    } catch (const std::runtime_error&) {
    }
  });
  Fiber b(64 * 1024, [&] { in_sibling = std::uncaught_exceptions(); });
  self = &a;
  a.resume();  // a suspends in the destructor, mid-unwind
  EXPECT_EQ(std::uncaught_exceptions(), 0);
  b.resume();
  EXPECT_EQ(in_sibling, 0);
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(during_unwind, 1);
}

TEST(Fiber, HandoffChainReturnsToScheduler) {
  std::string order;
  Fiber* pa = nullptr;
  Fiber* pb = nullptr;
  Fiber* pc = nullptr;
  Fiber a(64 * 1024, [&] {
    order += 'a';
    pa->yield_to(*pb);
    order += 'A';
  });
  Fiber b(64 * 1024, [&] {
    order += 'b';
    pb->yield_to(*pc);
    order += 'B';
  });
  Fiber c(64 * 1024, [&] {
    order += 'c';
    pc->yield();  // back to the scheduler that resumed a
    order += 'C';
  });
  pa = &a;
  pb = &b;
  pc = &c;
  a.resume();
  order += '.';
  EXPECT_FALSE(a.finished());
  EXPECT_FALSE(b.finished());
  EXPECT_FALSE(c.finished());
  c.resume();
  b.resume();
  a.resume();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_TRUE(c.finished());
  EXPECT_EQ(order, "abc.CBA");
}

TEST(Fiber, FiberReachedByHandoffFinishesIntoScheduler) {
  bool ran = false;
  Fiber* pa = nullptr;
  Fiber b(64 * 1024, [&] { ran = true; });
  Fiber a(64 * 1024, [&] { pa->yield_to(b); });
  pa = &a;
  a.resume();  // a hands off to b; b's exit returns here
  EXPECT_TRUE(ran);
  EXPECT_TRUE(b.finished());
  EXPECT_FALSE(a.finished());
  a.resume();
  EXPECT_TRUE(a.finished());
}

// The rounding mode as SSE arithmetic sees it (MXCSR on x86-64).
int sse_rounding() {
#if defined(__x86_64__)
  return static_cast<int>(_MM_GET_ROUNDING_MODE());
#else
  return std::fegetround();
#endif
}

TEST(Fiber, RoundingModeStaysOnItsFiber) {
  const int x87 = std::fegetround();
  const int sse = sse_rounding();
  ASSERT_EQ(x87, FE_TONEAREST);
  Fiber* self = nullptr;
  int sibling_x87 = -1, sibling_sse = -1, back_x87 = -1, back_sse = -1;
  Fiber a(64 * 1024, [&] {
    std::fesetround(FE_UPWARD);
    self->yield();
    back_x87 = std::fegetround();
    back_sse = sse_rounding();
  });
  Fiber b(64 * 1024, [&] {
    sibling_x87 = std::fegetround();
    sibling_sse = sse_rounding();
  });
  self = &a;
  a.resume();
  EXPECT_EQ(std::fegetround(), x87);
  EXPECT_EQ(sse_rounding(), sse);
  b.resume();
  EXPECT_EQ(sibling_x87, x87);
  EXPECT_EQ(sibling_sse, sse);
  a.resume();
  EXPECT_EQ(back_x87, FE_UPWARD);
  EXPECT_NE(back_sse, sse);
  EXPECT_EQ(std::fegetround(), x87);
  EXPECT_EQ(sse_rounding(), sse);
}

TEST(Fiber, FreshFiberStackIsSixteenByteAligned) {
  uintptr_t addr = 1;
  Fiber f(64 * 1024, [&] {
    alignas(16) volatile char buf[16] = {};
    addr = reinterpret_cast<uintptr_t>(&buf[0]);
  });
  f.resume();
  EXPECT_EQ(addr % 16, 0u);
}

volatile int never = -1;

// Every frame touches its own buffer, so the first frame past the end of the
// stack lands on the guard page rather than skipping over it.
int recurse(int depth) {
  volatile char buf[256];
  buf[0] = static_cast<char>(depth);
  buf[255] = static_cast<char>(depth);
  if (depth == never) return 0;
  return recurse(depth + 1) + buf[0] + buf[255];
}

TEST(Fiber, StackOverflowFaultsOnGuardPage) {
  EXPECT_DEATH(
      {
        Fiber f(16 * 1024, [] { recurse(0); });
        f.resume();
      },
      "");
}

}  // namespace
