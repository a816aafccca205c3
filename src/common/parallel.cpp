#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace sea {

namespace {

std::mutex g_mutex;
std::size_t g_threads = 0;  // 0 = not yet resolved
bool g_resolved = false;
std::unique_ptr<ThreadPool> g_pool;

thread_local bool t_in_parallel_region = false;

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

ThreadPool* pool_locked() {
  const std::size_t threads = resolve_threads_locked();
  if (threads <= 1) return nullptr;
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(threads);
  return g_pool.get();
}

/// Deterministic contiguous split of [0, n) into at most `parts` chunks.
std::vector<std::pair<std::size_t, std::size_t>> chunks_of(std::size_t n,
                                                           std::size_t parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  parts = std::max<std::size_t>(1, std::min(parts, n));
  out.reserve(parts);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < parts; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

}  // namespace

std::size_t configured_threads() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return resolve_threads_locked();
}

void set_configured_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_pool.reset();  // joins workers; rebuilt lazily at the new size
  g_threads = threads == 0 ? 1 : threads;
  g_resolved = true;
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

void ParallelChunks(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  ThreadPool* pool = nullptr;
  std::size_t threads = 1;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    threads = resolve_threads_locked();
    // Nested regions run serially: a worker blocking on sub-tasks that
    // only the same (occupied) workers could run would deadlock the pool.
    pool = t_in_parallel_region ? nullptr : pool_locked();
  }
  if (!pool || threads <= 1 || n == 1) {
    body(0, n);
    return;
  }
  // A few chunks per worker smooth out imbalance (e.g. k-d subtrees of
  // different depths) while keeping boundaries a pure function of n and
  // the worker count.
  const auto ranges = chunks_of(n, threads * 4);
  struct RegionGuard {
    RegionGuard() noexcept { t_in_parallel_region = true; }
    ~RegionGuard() { t_in_parallel_region = false; }
  };
  pool->parallel_for(ranges.size(), [&](std::size_t c) {
    RegionGuard guard;
    body(ranges[c].first, ranges[c].second);
  });
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ParallelChunks(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace sea
