// Shared deterministic parallel-execution helpers.
//
// All hot-path concurrency in the library (MapReduce map/reduce compute,
// index construction, agent batch refits, batched serving) goes through
// ParallelFor/ParallelChunks so one global knob — SEA_THREADS — controls
// the worker count everywhere, and so the determinism contract (DESIGN.md
// "Concurrency model") is enforced in a single place:
//
//  * Work is split into chunks that are a pure function of (n, worker
//    count); scheduling order never affects which thread computes what.
//  * Bodies may only write state owned by their own index/chunk; anything
//    shared (accounting, RNG draws, fault-injector ticks) stays on the
//    caller's thread, outside the parallel region.
//  * With SEA_THREADS=0 (or 1) every helper degrades to a plain serial
//    loop on the calling thread — the reference behavior parallel runs
//    must reproduce bit-for-bit.
#pragma once

#include <cstddef>
#include <functional>

namespace sea {

class ThreadPool;

/// Worker count in effect: SEA_THREADS env var on first use (0 or 1 =>
/// serial), otherwise std::thread::hardware_concurrency().
std::size_t configured_threads();

/// Overrides the worker count at runtime (tests, benchmark sweeps). The
/// shared pool is torn down and lazily rebuilt at the new size. Not safe
/// to call concurrently with in-flight ParallelFor calls.
void set_configured_threads(std::size_t threads);

/// True while the calling thread is inside a ParallelFor/ParallelChunks
/// body; nested parallel calls run serially to avoid pool deadlock.
bool in_parallel_region() noexcept;

/// Runs fn(i) for every i in [0, n). Indices are processed in contiguous
/// chunks; chunk boundaries depend only on n and the configured worker
/// count. fn must only touch state owned by index i (or chunk-local
/// state); exceptions are rethrown on the caller (first one wins).
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Chunk-granular variant: body(begin, end) is invoked once per contiguous
/// chunk, letting the body keep chunk-local scratch state. Chunking is the
/// same deterministic split ParallelFor uses.
void ParallelChunks(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace sea
