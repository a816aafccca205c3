// Shared deterministic parallel-execution helpers.
//
// All hot-path concurrency in the library (MapReduce map/reduce compute,
// index construction, agent batch refits, batched serving) goes through
// ParallelFor/ParallelChunks so one global knob — SEA_THREADS — controls
// the thread count everywhere, and so the determinism contract (DESIGN.md
// "Concurrency model") is enforced in a single place:
//
//  * Work is split into chunks that are a pure function of (n, thread
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
#include <vector>

namespace sea {

/// Threads doing the work of a region, the caller included: SEA_THREADS
/// env var on first use (0 or 1 => serial), otherwise
/// std::thread::hardware_concurrency(). A region runs on the calling
/// thread plus configured_threads() - 1 persistent workers.
std::size_t configured_threads();

/// Overrides the thread count at runtime (tests, benchmark sweeps). The
/// workers are joined and lazily restarted at the new count. Not safe to
/// call concurrently with in-flight ParallelFor calls.
void set_configured_threads(std::size_t threads);

/// True while the calling thread runs a ParallelFor/ParallelChunks body on
/// the worker runtime; nested parallel calls run inline.
bool in_parallel_region() noexcept;

/// The CPU each worker of the running runtime is pinned to (-1 where it
/// is not); empty before the first parallel region at the current count.
std::vector<int> worker_cpus();

/// Runs fn(i) for every i in [0, n). Indices are processed in contiguous
/// chunks; chunk boundaries depend only on n and the configured thread
/// count. fn must only touch state owned by index i (or chunk-local
/// state). Every index runs even when some throw; the exception of the
/// lowest throwing index is then rethrown on the caller.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Chunk-granular variant: body(begin, end) is invoked once per contiguous
/// chunk, letting the body keep chunk-local scratch state. Chunking is the
/// same deterministic split ParallelFor uses. Every chunk runs even when
/// some throw; the lowest throwing chunk's exception is rethrown.
///
/// A region started inside another region's body, or while another
/// thread's region is active, runs inline on its caller as one chunk.
void ParallelChunks(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace sea
