#include "sim/fiber.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// Under ASan and TSan every stack switch must be announced, or the runtime
// misjudges stack bounds (e.g. during exception unwinds on a fiber stack)
// and reports false positives. See sanitizer/common_interface_defs.h and
// sanitizer/tsan_interface.h.
#if defined(__SANITIZE_ADDRESS__)
#define TSX_ASAN_FIBERS 1
#elif defined(__SANITIZE_THREAD__)
#define TSX_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TSX_ASAN_FIBERS 1
#elif __has_feature(thread_sanitizer)
#define TSX_TSAN_FIBERS 1
#endif
#endif

#if defined(TSX_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(TSX_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// tsx_sim_fiber_switch(save_sp, load_sp, arg) pushes the callee-saved
// registers, MXCSR and the x87 control word, stores the stack pointer to
// *save_sp, loads load_sp, pops the same frame from there and returns `arg`
// on the new stack. tsx_sim_fiber_start is where a fresh fiber's initial
// frame (built in the Fiber constructor) returns to: it calls r13(r12, rax),
// i.e. Impl::entry(impl, switched-from context), which never returns, and
// marks the outermost frame for unwinders. The switch does not move a CET
// shadow stack, so it requires user shadow stacks to be off (the default).
asm(R"(
    .pushsection .text
    .p2align 4
    .globl tsx_sim_fiber_switch
    .hidden tsx_sim_fiber_switch
    .type tsx_sim_fiber_switch, @function
tsx_sim_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    movq %rdx, %rax
    ret
    .size tsx_sim_fiber_switch, .-tsx_sim_fiber_switch

    .p2align 4
    .globl tsx_sim_fiber_start
    .hidden tsx_sim_fiber_start
    .type tsx_sim_fiber_start, @function
tsx_sim_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    movq %rax, %rsi
    callq *%r13
    ud2
    .cfi_endproc
    .size tsx_sim_fiber_start, .-tsx_sim_fiber_start
    .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void* tsx_sim_fiber_switch(
    void** save_sp, void* load_sp, void* arg);
__attribute__((visibility("hidden"))) void tsx_sim_fiber_start();
}
#endif

namespace tsx::sim {

namespace {

// The C++ runtime's per-thread exception state: the leading fields of the
// Itanium ABI's __cxa_eh_globals, laid out alike by libstdc++ and
// libc++abi. They hold the stack of exceptions being handled, which a bare
// `throw;` rethrows, and the count std::uncaught_exceptions() reports. Each
// execution keeps its own copy of these bytes.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};
constexpr size_t kEhStateBytes =
    offsetof(EhGlobals, uncaught_exceptions) + sizeof(unsigned int);

// A suspended execution: a fiber, or a scheduler that resumed one.
struct Context {
#if defined(__x86_64__)
  void* sp = nullptr;
#else
  ucontext_t uc{};
#endif
  unsigned char eh[kEhStateBytes] = {};  // nothing caught or in flight
#if defined(TSX_ASAN_FIBERS)
  void* fake_stack = nullptr;
  // A scheduler's bounds are learned when it first switches to a fiber.
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
#if defined(TSX_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
#endif
};

#if !defined(__x86_64__)
thread_local Context* t_switched_from = nullptr;
#endif

// Suspends `from` (the running execution) and runs `to`. Returns when some
// execution switches back to `from`; `from_exits` says none ever will.
void jump(Context& from, Context& to, bool from_exits) {
  void* eh = abi::__cxa_get_globals();
  std::memcpy(from.eh, eh, kEhStateBytes);
  std::memcpy(eh, to.eh, kEhStateBytes);
#if defined(TSX_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from_exits;
#endif
#if defined(TSX_TSAN_FIBERS)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if defined(__x86_64__)
  auto* prev =
      static_cast<Context*>(tsx_sim_fiber_switch(&from.sp, to.sp, &from));
#else
  t_switched_from = &from;
  swapcontext(&from.uc, &to.uc);
  Context* prev = t_switched_from;
#endif
#if defined(TSX_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(from.fake_stack, &prev->stack_bottom,
                                  &prev->stack_size);
#else
  (void)prev;
#endif
}

}  // namespace

struct Fiber::Impl {
  Context self;
  // Where yield() and the fiber's exit go: the scheduler that resumed this
  // fiber, or the one the fiber that handed off to it would return to.
  Context* scheduler = nullptr;
  void* map = nullptr;  // guard page + stack
  size_t map_bytes = 0;
  std::function<void()> fn;
  bool finished = false;
  std::exception_ptr error;

  ~Impl() {
#if defined(TSX_TSAN_FIBERS)
    if (self.tsan_fiber) __tsan_destroy_fiber(self.tsan_fiber);
#endif
    if (map) {
#if defined(TSX_ASAN_FIBERS)
      // Frames left on a suspended stack keep their poisoning; clear it so
      // a later mapping at this address starts clean.
      __asan_unpoison_memory_region(map, map_bytes);
#endif
      munmap(map, map_bytes);
    }
  }

  [[noreturn]] static void entry(Impl* impl, Context* prev) {
#if defined(TSX_ASAN_FIBERS)
    // First time on this stack: no fake stack of our own yet.
    __sanitizer_finish_switch_fiber(nullptr, &prev->stack_bottom,
                                    &prev->stack_size);
#else
    (void)prev;
#endif
    try {
      impl->fn();
    } catch (...) {
      impl->error = std::current_exception();
    }
    impl->finished = true;
    jump(impl->self, *impl->scheduler, /*from_exits=*/true);
    __builtin_unreachable();
  }

#if !defined(__x86_64__)
  static void start(unsigned hi, unsigned lo) {
    entry(reinterpret_cast<Impl*>((static_cast<uintptr_t>(hi) << 32) |
                                  static_cast<uintptr_t>(lo)),
          t_switched_from);
  }
#endif
};

Fiber::Fiber(size_t stack_bytes, std::function<void()> fn)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.fn = std::move(fn);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t stack = (stack_bytes + page - 1) / page * page;
  void* map = mmap(nullptr, page + stack, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  im.map = map;
  im.map_bytes = page + stack;
  if (mprotect(map, page, PROT_NONE) != 0) {
    throw std::runtime_error("fiber guard page: mprotect failed");
  }
  char* bottom = static_cast<char*>(map) + page;
#if defined(TSX_ASAN_FIBERS)
  im.self.stack_bottom = bottom;
  im.self.stack_size = stack;
#endif
#if defined(TSX_TSAN_FIBERS)
  im.self.tsan_fiber = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
  // The frame tsx_sim_fiber_switch pops, ending at the stack top, so that
  // tsx_sim_fiber_start runs with a 16-byte-aligned stack pointer. The
  // fiber starts with the creating thread's floating-point control state,
  // and rbp = 0 ends frame-pointer walks.
  struct InitialFrame {
    uint32_t mxcsr;
    uint16_t fpucw;
    uint16_t pad;
    uint64_t r15, r14, r13, r12, rbx, rbp, ret;
  };
  static_assert(sizeof(InitialFrame) == 64);
  auto* f = reinterpret_cast<InitialFrame*>(bottom + stack) - 1;
  *f = InitialFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(f->mxcsr), "=m"(f->fpucw));
  f->r13 = reinterpret_cast<uintptr_t>(&Impl::entry);
  f->r12 = reinterpret_cast<uintptr_t>(&im);
  f->ret = reinterpret_cast<uintptr_t>(&tsx_sim_fiber_start);
  im.self.sp = f;
#else
  if (getcontext(&im.self.uc) != 0) {
    throw std::runtime_error("getcontext failed");
  }
  im.self.uc.uc_stack.ss_sp = bottom;
  im.self.uc.uc_stack.ss_size = stack;
  im.self.uc.uc_link = nullptr;
  auto ptr = reinterpret_cast<uintptr_t>(&im);
  makecontext(&im.self.uc, reinterpret_cast<void (*)()>(&Impl::start), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
#endif
}

Fiber::~Fiber() = default;

void Fiber::resume() {
  if (impl_->finished) throw std::logic_error("resume of finished fiber");
  Context scheduler;
#if defined(TSX_TSAN_FIBERS)
  scheduler.tsan_fiber = __tsan_get_current_fiber();
#endif
  impl_->scheduler = &scheduler;
  jump(scheduler, impl_->self, /*from_exits=*/false);
}

void Fiber::yield() {
  jump(impl_->self, *impl_->scheduler, /*from_exits=*/false);
}

void Fiber::yield_to(Fiber& next) {
  if (&next == this || next.impl_->finished) {
    throw std::logic_error("handoff to a finished or running fiber");
  }
  next.impl_->scheduler = impl_->scheduler;
  jump(impl_->self, next.impl_->self, /*from_exits=*/false);
}

bool Fiber::finished() const { return impl_->finished; }

std::exception_ptr Fiber::error() const { return impl_->error; }

}  // namespace tsx::sim
