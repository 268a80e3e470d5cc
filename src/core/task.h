#ifndef SETREC_CORE_TASK_H_
#define SETREC_CORE_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>
#include <vector>

namespace setrec {

/// Freelist allocator for coroutine frames. Protocol coroutines are created
/// and destroyed once per session (plus one per CachedAliceSend builder and
/// per split-party half), and their frames were the service's main remaining
/// per-session heap traffic. Frames recycle through per-thread size-class
/// freelists: a warm service steps sessions without touching the global
/// allocator for frames at all (asserted with the operator-new counter in
/// tests/coro_pool_test.cc).
///
/// Thread model: freelists are thread_local, so concurrent session threads
/// (benches, the future multi-core scheduler) each recycle their own frames
/// with no synchronization. A frame allocated on one thread must be freed on
/// the same thread — true today because protocol coroutines never migrate
/// (planner workers only run batched cell updates, never coroutines).
class CoroFramePool {
 public:
  /// Size classes are 64-byte steps up to 16 KiB; larger frames fall through
  /// to the global allocator (none of the protocol coroutines get close).
  static constexpr size_t kAlign = 64;
  static constexpr size_t kMaxPooledBytes = 16u << 10;
  /// Frames kept per size class; beyond this, frees go to the allocator.
  static constexpr size_t kMaxPerClass = 128;

  static void* Allocate(size_t n) {
    if (n == 0) n = 1;
    if (n > kMaxPooledBytes) {
      ++tls().oversize;
      return ::operator new(n);
    }
    Tls& t = tls();
    std::vector<void*>& bucket = t.classes[ClassOf(n)];
    if (!bucket.empty()) {
      void* p = bucket.back();
      bucket.pop_back();
      ++t.reuses;
      return p;
    }
    ++t.fresh;
    return ::operator new(ClassBytes(n));
  }

  static void Deallocate(void* p, size_t n) noexcept {
    if (p == nullptr) return;
    if (n == 0) n = 1;
    if (n > kMaxPooledBytes) {
      ::operator delete(p);
      return;
    }
    std::vector<void*>& bucket = tls().classes[ClassOf(n)];
    if (bucket.size() < kMaxPerClass) {
      // push_back may itself allocate bucket capacity; that is one-time
      // warmup cost, not per-frame traffic.
      bucket.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  struct Stats {
    /// Frames served from the freelist / from the allocator / too large.
    size_t reuses = 0;
    size_t fresh = 0;
    size_t oversize = 0;
  };
  static Stats ThreadStats() {
    const Tls& t = tls();
    return Stats{t.reuses, t.fresh, t.oversize};
  }

 private:
  static constexpr size_t kClasses = kMaxPooledBytes / kAlign;
  static size_t ClassOf(size_t n) { return (n - 1) / kAlign; }
  static size_t ClassBytes(size_t n) { return (ClassOf(n) + 1) * kAlign; }

  struct Tls {
    std::vector<void*> classes[kClasses];
    size_t reuses = 0;
    size_t fresh = 0;
    size_t oversize = 0;
    ~Tls() {
      for (std::vector<void*>& bucket : classes) {
        for (void* p : bucket) ::operator delete(p);
      }
    }
  };
  static Tls& tls() {
    thread_local Tls t;
    return t;
  }
};

/// A minimal lazy coroutine task, the resumable form of the protocol entry
/// points (SetsOfSetsProtocol::ReconcileAsync and its internal steps).
///
/// Semantics:
///  * Lazy: the coroutine body does not run until the task is awaited (or
///    Start()ed by a root driver such as RunSync or the SyncService).
///  * `co_await task` starts the child and transfers control to it
///    symmetrically; when the child finishes, its final suspend transfers
///    straight back to the awaiting parent (no scheduler in between).
///  * Ownership: the Task owns the coroutine frame and destroys it on
///    destruction. A task must not be awaited twice.
///
/// Protocol coroutines only ever suspend inside ProtocolContext awaitables
/// (round yields and build barriers). Under the InlineContext those
/// awaitables are always ready, so a Start() runs the whole pipeline to
/// completion synchronously — that is how the blocking Reconcile wrappers
/// drive the exact same code path the SyncService steps incrementally.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::optional<T> value;
    std::coroutine_handle<> continuation;

    /// Coroutine frames recycle through the per-thread freelist; a warm
    /// session creates and destroys its coroutines allocation-free.
    static void* operator new(size_t n) { return CoroFramePool::Allocate(n); }
    static void operator delete(void* p, size_t n) noexcept {
      CoroFramePool::Deallocate(p, n);
    }

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        std::coroutine_handle<> cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { value.emplace(std::move(v)); }
    /// The library is exception-free (Status/Result everywhere); an escape
    /// here is a bug, and unwinding a half-run protocol would corrupt the
    /// session, so fail fast.
    void unhandled_exception() noexcept { std::terminate(); }
  };

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  /// Awaiting a task starts it; the awaiter is resumed when it completes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  T await_resume() { return std::move(*handle_.promise().value); }

  /// Root-driver interface (RunSync, SyncService): kick the coroutine off.
  /// It runs until its first genuine suspension (a parked awaitable) or to
  /// completion. Parked coroutines are resumed via the handle the awaitable
  /// captured, not through the Task.
  void Start() {
    assert(handle_ && !handle_.done());
    handle_.resume();
  }
  bool Done() const { return !handle_ || handle_.done(); }
  bool Valid() const { return static_cast<bool>(handle_); }
  /// The result; only valid once Done().
  T TakeResult() {
    assert(Done() && handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

  /// Subscribes `parent` to be resumed (symmetric transfer from this task's
  /// final suspend) when the task completes, WITHOUT resuming the task now.
  /// Pairs with Start(): a root driver starts the task, external events
  /// resume it through parked awaitable handles, and the subscriber wakes at
  /// the end. Used by TaskJoin; at most one subscriber.
  void SetContinuation(std::coroutine_handle<> parent) {
    assert(handle_ && !handle_.promise().continuation);
    handle_.promise().continuation = parent;
  }

 private:
  Handle handle_;
};

/// Awaitable that completes when an already-started task finishes, leaving
/// the task's result in place (read it with TakeResult afterwards). Unlike
/// `co_await task`, joining never resumes the joined task — it only
/// subscribes — so it is safe on a task parked inside awaitables owned by
/// someone else. This is how a split-party composition waits for both of
/// its independently-driven halves.
template <typename T>
struct TaskJoin {
  Task<T>* task;

  bool await_ready() const noexcept { return task->Done(); }
  void await_suspend(std::coroutine_handle<> parent) const {
    task->SetContinuation(parent);
  }
  void await_resume() const noexcept {}
};

/// Runs a task that never genuinely suspends (all its awaitables are ready,
/// the InlineContext case) to completion and returns its result.
template <typename T>
T RunSync(Task<T> task) {
  task.Start();
  assert(task.Done() &&
         "RunSync task suspended; it was built against a deferring context");
  return task.TakeResult();
}

}  // namespace setrec

#endif  // SETREC_CORE_TASK_H_
