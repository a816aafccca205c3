#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>

namespace sea {

namespace {

using Body = std::function<void(std::size_t, std::size_t)>;

thread_local bool t_in_parallel_region = false;

/// Marks the current thread as running region bodies; restores the
/// previous flag, so a throwing body leaves the caller's flag intact.
class RegionScope {
 public:
  RegionScope() noexcept : prev_(t_in_parallel_region) {
    t_in_parallel_region = true;
  }
  ~RegionScope() { t_in_parallel_region = prev_; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool prev_;
};

/// Chunk `c` of the deterministic contiguous split of [0, n) into `parts`
/// chunks (the first n % parts of them one longer).
std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                 std::size_t parts,
                                                 std::size_t c) {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// How long an idle thread polls before it sleeps: long enough to catch
/// the next region of a burst (one per exact execution, ~1 µs to start),
/// short enough that idle workers do not hold cores between requests.
constexpr auto kSpin = std::chrono::microseconds(50);

/// Polls `ready` for up to kSpin; true as soon as it holds.
template <typename Ready>
bool spin_until(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

/// The CPUs of the calling thread's affinity mask, ascending, with the
/// CPU it runs on moved last; empty when the mask holds one CPU.
std::vector<int> worker_cpu_order() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  const int self = sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask) && c != self) cpus.push_back(c);
  if (self >= 0 && CPU_ISSET(self, &mask)) cpus.push_back(self);
  if (cpus.size() < 2) cpus.clear();
  return cpus;
}

/// Fork-join region runtime: `threads - 1` persistent workers plus the
/// calling thread claim the chunks of one region at a time from a single
/// atomic word. Idle workers spin for kSpin, then sleep until the next
/// region is published.
///
/// Worker i is pinned to the i-th CPU of worker_cpu_order(), round-robin
/// when there are more workers than CPUs: a host that does not balance
/// threads across CPUs would otherwise leave every new worker on its
/// creator's CPU, and the region would run no faster than serially.
class Runtime {
 public:
  explicit Runtime(std::size_t threads) {
    workers_.reserve(threads - 1);
    const std::vector<int> cpus = worker_cpu_order();
    try {
      for (std::size_t i = 1; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
        const int cpu = cpus.empty() ? -1 : cpus[(i - 1) % cpus.size()];
        worker_cpus_.push_back(pin(workers_.back(), cpu) ? cpu : -1);
      }
    } catch (...) {
      stop_and_join();  // the workers already started
      throw;
    }
  }

  ~Runtime() { stop_and_join(); }

  /// The CPU each worker is pinned to, -1 where it is not.
  const std::vector<int>& worker_cpus() const noexcept { return worker_cpus_; }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs body over `parts` chunks of [0, n) unless another thread's region
  /// is active (then returns false and the caller runs inline). Every chunk
  /// runs even when some throw; the lowest throwing chunk's exception is
  /// rethrown afterwards, so the error is the same at any thread count.
  bool run(std::size_t n, std::size_t parts, const Body& body) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};
    body_ = &body;
    n_ = n;
    error_chunk_ = parts;
    error_ = nullptr;
    done_.store(0);
    claim_.store(pack(parts, 0));  // publishes the region
    if (sleepers_.load() > 0) {
      { std::lock_guard<std::mutex> lock(mutex_); }
      work_cv_.notify_all();
    }
    {
      RegionScope scope;
      while (claim_and_run()) {
      }
    }
    const auto all_done = [&] { return done_.load() == parts; };
    if (!spin_until(all_done)) {
      std::unique_lock<std::mutex> lock(mutex_);
      caller_waiting_.store(true);
      done_cv_.wait(lock, all_done);
      caller_waiting_.store(false);
    }
    body_ = nullptr;
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    return true;
  }

 private:
  /// Pins `t` to `cpu` (none when negative); true when it is pinned.
  static bool pin(std::thread& t, int cpu) {
    if (cpu < 0) return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
  }

  void stop_and_join() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_.store(true);
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  static std::uint64_t pack(std::uint64_t parts, std::uint64_t next) {
    return parts << 32 | next;
  }
  static bool claimable(std::uint64_t word) {
    return (word & 0xffffffffu) < (word >> 32);
  }

  /// Claims and runs one chunk of the current region; false when none is
  /// left. The claim word holds (chunk count, next chunk), so a successful
  /// claim both names the chunk and proves the region it belongs to is
  /// still open: its caller waits for that chunk before it rewrites the
  /// region's fields.
  bool claim_and_run() {
    std::uint64_t word = claim_.load(std::memory_order_acquire);
    do {
      if (!claimable(word)) return false;
    } while (!claim_.compare_exchange_weak(word, word + 1,
                                           std::memory_order_acquire));
    const std::size_t parts = static_cast<std::size_t>(word >> 32);
    const std::size_t c = static_cast<std::size_t>(word & 0xffffffffu);
    const auto [begin, end] = chunk_bounds(n_, parts, c);
    try {
      (*body_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (c < error_chunk_) {
        error_chunk_ = c;
        error_ = std::current_exception();
      }
    }
    if (done_.fetch_add(1) + 1 == parts && caller_waiting_.load()) {
      { std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_one();
    }
    return true;
  }

  void worker_loop() {
    t_in_parallel_region = true;  // workers only ever run region bodies
    const auto has_work = [&] {
      return stop_.load() || claimable(claim_.load());
    };
    for (;;) {
      if (claim_and_run()) continue;
      if (!spin_until(has_work)) {
        std::unique_lock<std::mutex> lock(mutex_);
        sleepers_.fetch_add(1);
        work_cv_.wait(lock, has_work);
        sleepers_.fetch_sub(1);
      }
      if (stop_.load()) return;
    }
  }

  /// (chunk count << 32 | next unclaimed chunk) of the current region.
  std::atomic<std::uint64_t> claim_{0};
  /// Chunks of the current region that have finished running.
  std::atomic<std::size_t> done_{0};
  /// Set while a region is active; a second caller runs inline.
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  /// The current region, written by its caller before claim_ publishes it.
  const Body* body_ = nullptr;
  std::size_t n_ = 0;
  /// Lowest throwing chunk of the current region and its exception:
  /// written under error_mutex_ while the region runs, by its caller
  /// alone before it is published and after its last chunk is done.
  std::mutex error_mutex_;
  std::size_t error_chunk_ = 0;
  std::exception_ptr error_;
  /// Sleep/wake handshake: a waiter registers (sleepers_ / caller_waiting_)
  /// under mutex_ before its predicate check; a waker that sees it
  /// registered passes through mutex_ before notifying.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_waiting_{false};
  std::vector<int> worker_cpus_;
  std::vector<std::thread> workers_;  // last: joined before the rest dies
};

std::mutex g_mutex;  // guards g_threads, g_resolved and g_runtime
std::size_t g_threads = 0;
bool g_resolved = false;
std::unique_ptr<Runtime> g_runtime;  // destroyed (workers joined) at exit

std::size_t resolve_threads_locked() {
  if (!g_resolved) {
    const char* env = std::getenv("SEA_THREADS");
    if (env && *env) {
      g_threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
      if (g_threads == 0) g_threads = 1;  // SEA_THREADS=0 => serial
    } else {
      g_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    g_resolved = true;
  }
  return g_threads;
}

}  // namespace

std::size_t configured_threads() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return resolve_threads_locked();
}

void set_configured_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_runtime.reset();  // joins the workers; rebuilt lazily at the new size
  g_threads = threads == 0 ? 1 : threads;
  g_resolved = true;
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

std::vector<int> worker_cpus() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_runtime ? g_runtime->worker_cpus() : std::vector<int>{};
}

void ParallelChunks(std::size_t n, const Body& body) {
  if (n == 0) return;
  Runtime* runtime = nullptr;
  std::size_t threads = 1;
  if (!t_in_parallel_region && n > 1) {
    std::lock_guard<std::mutex> lock(g_mutex);
    threads = resolve_threads_locked();
    if (threads > 1 && !g_runtime)
      g_runtime = std::make_unique<Runtime>(threads);
    runtime = g_runtime.get();
  }
  // A few chunks per thread smooth out imbalance (e.g. k-d subtrees of
  // different depths) while keeping boundaries a pure function of n and
  // the thread count.
  if (runtime != nullptr &&
      runtime->run(n, std::min(n, threads * 4), body))
    return;
  // Serial: one thread, one index, a nested region, or another thread's
  // region is active.
  body(0, n);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ParallelChunks(n, [&fn](std::size_t begin, std::size_t end) {
    // Every index runs; the lowest throwing index's exception wins.
    std::exception_ptr error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  });
}

}  // namespace sea
