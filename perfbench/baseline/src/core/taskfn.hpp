// TaskFn — the coroutine type behind COOL "parallel functions".
//
// A COOL parallel function executes asynchronously when invoked; our library
// embedding expresses one as a C++20 coroutine returning TaskFn. Invoking the
// function creates a suspended coroutine (arguments are copied into the
// frame), which is handed to Runtime/Ctx spawn together with an Affinity — the
// library analogue of COOL's `parallel void f(...) [affinity hints]`.
//
// Inside the body, the running task obtains its execution context with
//   auto& c = co_await cool::self();
// and may then issue simulated memory references, spawn children, lock
// monitors, or wait on groups/conditions.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace cool {

class Ctx;
class Engine;
struct TaskRecord;

class TaskFn {
 public:
  struct promise_type {
    /// Execution context, bound by the engine before every resume.
    Ctx* ctx = nullptr;
    std::exception_ptr exn;

    TaskFn get_return_object() {
      return TaskFn(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// On completion the coroutine notifies the engine from inside the final
    /// awaiter (while this thread still exclusively owns the frame), then
    /// stays suspended so the engine can destroy it safely.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exn = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  TaskFn() = default;
  explicit TaskFn(Handle h) : h_(h) {}
  TaskFn(TaskFn&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  TaskFn& operator=(TaskFn&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;
  ~TaskFn() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }

  /// Transfer the frame to the runtime (called by spawn).
  Handle release() noexcept { return std::exchange(h_, {}); }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

/// Awaitable returning the running task's execution context.
/// Usage: `auto& c = co_await cool::self();`
struct SelfAwaiter {
  Ctx* ctx = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(TaskFn::Handle h) noexcept {
    ctx = h.promise().ctx;
    return false;  // Never actually suspends.
  }
  Ctx& await_resume() const noexcept { return *ctx; }
};

inline SelfAwaiter self() noexcept { return {}; }

}  // namespace cool
