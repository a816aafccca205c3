// Deterministic parallel primitives (pbbs-style), shared by every hot path.
//
// The library sits directly on ParallelFor/ParallelChunks and adds the
// missing piece for data-parallel kernels: *fixed* work decomposition.
// ParallelFor's chunk boundaries are a function of the worker count, which
// is fine for bodies that own disjoint output slots but would change
// floating-point combine trees when the thread count changes. Every
// primitive here therefore splits its input by a BlockPlan that depends
// only on the input size (and, for keyed primitives, the bucket count) —
// never on SEA_THREADS — so each result is a pure function of its input:
// bit-identical at SEA_THREADS 1 vs 8 (DESIGN.md "Columnar execution &
// parallel primitives").
//
// Contents (SNIPPETS.md snippet 3, PAM/pbbs time_operations.h, is the
// reference shape):
//  * blocked_reduce / reduce_add / minmax — per-block serial folds combined
//    by a pairwise tree in fixed block order.
//  * scan_exclusive — two-pass blocked prefix sum; exact for integers,
//    thread-count-invariant (not serial-fold-identical) for doubles.
//  * histogram / counting_sort — two-pass per-block counters; the sort is
//    stable (equal keys keep input order) and race-free: each block scatters
//    through its own pre-computed cursor row.
//  * collect_reduce — dense per-block accumulators keyed by small integers,
//    folded across blocks in block order.
//  * sample_sort — deterministic stride-sampled pivots (no RNG), stable
//    counting-sort bucket partition, per-bucket std::sort. With a strict
//    total order the output equals std::sort's; with ties it is still a
//    pure function of the input.
//  * gather — permutation copy with the snippet-3 __builtin_prefetch idiom.
//
// All primitives run serially (identical results) when invoked from inside
// a parallel region or with SEA_THREADS<=1, via ParallelFor's fallback.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel.h"

#if defined(__GNUC__) || defined(__clang__)
#define SEA_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define SEA_PREFETCH(addr) ((void)0)
#endif

namespace sea::par {

/// Elements per block: big enough to amortize dispatch, small enough that a
/// block's working set stays in L1/L2. Fixed — never derived from the
/// worker count (see file comment).
inline constexpr std::size_t kBlockSize = 2048;

/// Cap on per-block counter storage for keyed primitives: blocks * buckets
/// never exceeds this many cells (32 MiB of u32 counters at the cap).
inline constexpr std::size_t kMaxCounterCells = std::size_t{1} << 22;

/// Even split of [0, n) into `blocks` contiguous ranges; boundaries are a
/// pure function of (n, blocks).
struct BlockPlan {
  std::size_t n = 0;
  std::size_t blocks = 0;
  std::size_t begin(std::size_t b) const noexcept { return b * n / blocks; }
  std::size_t end(std::size_t b) const noexcept {
    return (b + 1) * n / blocks;
  }
};

inline BlockPlan plan(std::size_t n) noexcept {
  BlockPlan p;
  p.n = n;
  p.blocks = n == 0 ? 0 : (n + kBlockSize - 1) / kBlockSize;
  return p;
}

/// Plan for keyed primitives: blocks shrink (i.e. grow in size) as the
/// bucket count rises, keeping per-block counter memory bounded. Depends
/// only on (n, buckets).
inline BlockPlan plan_keyed(std::size_t n, std::size_t buckets) noexcept {
  BlockPlan p = plan(n);
  const std::size_t cap = std::max<std::size_t>(
      1, kMaxCounterCells / std::max<std::size_t>(1, buckets));
  p.blocks = std::min(p.blocks, std::max<std::size_t>(1, cap));
  if (n == 0) p.blocks = 0;
  return p;
}

/// Blocked reduction: fold(begin, end) -> T runs serially per block (in
/// parallel across blocks), then the block partials are combined by a
/// pairwise tree in fixed block order — the combine shape depends only on
/// the block count, so doubles reduce bit-identically at any SEA_THREADS.
template <typename T, typename Fold, typename Combine>
T blocked_reduce(std::size_t n, T identity, Fold&& fold, Combine&& comb) {
  const BlockPlan p = plan(n);
  if (p.blocks == 0) return identity;
  std::vector<T> parts(p.blocks);
  ParallelFor(p.blocks,
              [&](std::size_t b) { parts[b] = fold(p.begin(b), p.end(b)); });
  for (std::size_t stride = 1; stride < p.blocks; stride *= 2)
    for (std::size_t i = 0; i + stride < p.blocks; i += 2 * stride)
      parts[i] = comb(parts[i], parts[i + stride]);
  return parts[0];
}

/// Tree-combined sum of a double span.
inline double reduce_add(std::span<const double> v) {
  return blocked_reduce(
      v.size(), 0.0,
      [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += v[i];
        return s;
      },
      [](double a, double b) { return a + b; });
}

/// Parallel (min, max) of a span's non-NaN values; {+inf, -inf} when it
/// has none (empty included). Each block starts from ±inf, and
/// std::min(acc, v) keeps acc for a NaN v and for an equal v, so NaNs are
/// skipped wherever they sit and the first-seen ±0 wins. Min/max combine
/// is exact, so the result matches a serial NaN-skipping scan regardless
/// of tree shape.
inline std::pair<double, double> minmax(std::span<const double> v) {
  using MM = std::pair<double, double>;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return blocked_reduce(
      v.size(), MM{kInf, -kInf},
      [&](std::size_t begin, std::size_t end) {
        MM mm{kInf, -kInf};
        for (std::size_t i = begin; i < end; ++i) {
          mm.first = std::min(mm.first, v[i]);
          mm.second = std::max(mm.second, v[i]);
        }
        return mm;
      },
      [](const MM& a, const MM& b) {
        return MM{std::min(a.first, b.first), std::max(a.second, b.second)};
      });
}

/// Blocked exclusive prefix sum; returns the total. `out` may alias `in`.
/// The block decomposition depends only on n, so the result is a pure
/// function of the input (bit-identical at any SEA_THREADS). For integer
/// T it equals the naive serial left fold exactly; for doubles the block
/// bases are sums of per-block partials, whose rounding differs from the
/// continuous serial fold's in the low bits — same contract as
/// blocked_reduce, deterministic but not serial-fold-identical.
template <typename T>
T scan_exclusive(std::span<const T> in, std::span<T> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("scan_exclusive: size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return T{};
  const BlockPlan p = plan(n);
  std::vector<T> sums(p.blocks);
  ParallelFor(p.blocks, [&](std::size_t b) {
    T s{};
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) s = s + in[i];
    sums[b] = s;
  });
  T total{};
  for (std::size_t b = 0; b < p.blocks; ++b) {
    const T t = sums[b];
    sums[b] = total;
    total = total + t;
  }
  ParallelFor(p.blocks, [&](std::size_t b) {
    T acc = sums[b];
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) {
      const T v = in[i];  // read before write: in may alias out
      out[i] = acc;
      acc = acc + v;
    }
  });
  return total;
}

/// Two-pass parallel histogram of small-integer keys in [0, buckets).
/// Throws std::out_of_range on a key >= buckets.
inline std::vector<std::uint64_t> histogram(
    std::span<const std::uint32_t> keys, std::size_t buckets) {
  std::vector<std::uint64_t> out(buckets, 0);
  const std::size_t n = keys.size();
  if (n == 0) return out;
  if (buckets == 0) throw std::invalid_argument("histogram: zero buckets");
  const BlockPlan p = plan_keyed(n, buckets);
  std::vector<std::uint32_t> counts(p.blocks * buckets, 0);
  ParallelFor(p.blocks, [&](std::size_t b) {
    std::uint32_t* c = counts.data() + b * buckets;
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) {
      if (keys[i] >= buckets)
        throw std::out_of_range("histogram: key out of range");
      ++c[keys[i]];
    }
  });
  ParallelFor(buckets, [&](std::size_t k) {
    std::uint64_t s = 0;
    for (std::size_t b = 0; b < p.blocks; ++b) s += counts[b * buckets + k];
    out[k] = s;
  });
  return out;
}

/// Stable counting sort of small-integer keys: `order` is the permutation
/// (apply with gather()), `offsets` the bucket boundaries (buckets+1
/// entries). Stability: within a bucket, indices appear in input order —
/// per-block cursor rows are pre-offset by an exclusive scan over (key,
/// block), so the parallel scatter is race-free and order-preserving.
struct CountingSort {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> offsets;
};

inline CountingSort counting_sort(std::span<const std::uint32_t> keys,
                                  std::size_t buckets) {
  CountingSort out;
  const std::size_t n = keys.size();
  if (n > UINT32_MAX)
    throw std::invalid_argument("counting_sort: input too large for u32");
  out.offsets.assign(buckets + 1, 0);
  out.order.resize(n);
  if (n == 0) return out;
  if (buckets == 0) throw std::invalid_argument("counting_sort: zero buckets");
  const BlockPlan p = plan_keyed(n, buckets);
  std::vector<std::uint32_t> counts(p.blocks * buckets, 0);
  ParallelFor(p.blocks, [&](std::size_t b) {
    std::uint32_t* c = counts.data() + b * buckets;
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) {
      if (keys[i] >= buckets)
        throw std::out_of_range("counting_sort: key out of range");
      ++c[keys[i]];
    }
  });
  // Column-major exclusive scan: for key k, block b starts writing at
  // (global start of k) + (k-count of earlier blocks).
  std::uint32_t running = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    out.offsets[k] = running;
    for (std::size_t b = 0; b < p.blocks; ++b) {
      const std::uint32_t c = counts[b * buckets + k];
      counts[b * buckets + k] = running;
      running += c;
    }
  }
  out.offsets[buckets] = running;
  ParallelFor(p.blocks, [&](std::size_t b) {
    std::uint32_t* cur = counts.data() + b * buckets;
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i)
      out.order[cur[keys[i]]++] = static_cast<std::uint32_t>(i);
  });
  return out;
}

/// Dense collect_reduce: combines values sharing a key into out[key], via
/// per-block dense accumulators folded across blocks in block order. The
/// per-key combine order is (block, position) — a pure function of the
/// input — so doubles collect bit-identically at any SEA_THREADS.
template <typename V, typename Combine>
std::vector<V> collect_reduce(std::span<const std::uint32_t> keys,
                              std::span<const V> values, std::size_t buckets,
                              V identity, Combine&& comb) {
  if (keys.size() != values.size())
    throw std::invalid_argument("collect_reduce: size mismatch");
  std::vector<V> out(buckets, identity);
  const std::size_t n = keys.size();
  if (n == 0) return out;
  if (buckets == 0)
    throw std::invalid_argument("collect_reduce: zero buckets");
  const BlockPlan p = plan_keyed(n, buckets);
  std::vector<V> acc(p.blocks * buckets, identity);
  ParallelFor(p.blocks, [&](std::size_t b) {
    V* a = acc.data() + b * buckets;
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) {
      if (keys[i] >= buckets)
        throw std::out_of_range("collect_reduce: key out of range");
      a[keys[i]] = comb(a[keys[i]], values[i]);
    }
  });
  ParallelFor(buckets, [&](std::size_t k) {
    V r = identity;
    for (std::size_t b = 0; b < p.blocks; ++b)
      r = comb(r, acc[b * buckets + k]);
    out[k] = r;
  });
  return out;
}

/// Permutation copy out[i] = src[idx[i]], blocked + prefetched (snippet-3
/// idiom): the random-access read stream is the bottleneck, so each lane
/// prefetches a few indices ahead. Indices must be < src.size().
template <typename T>
void gather(std::span<const T> src, std::span<const std::uint32_t> idx,
            std::span<T> out) {
  if (idx.size() != out.size())
    throw std::invalid_argument("gather: size mismatch");
  constexpr std::size_t kAhead = 8;
  const BlockPlan p = plan(idx.size());
  if (p.blocks == 0) return;
  ParallelFor(p.blocks, [&](std::size_t b) {
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i) {
      if (i + kAhead < end) SEA_PREFETCH(&src[idx[i + kAhead]]);
      out[i] = src[idx[i]];
    }
  });
}

/// Deterministic parallel sample sort. Pivots come from a fixed-stride
/// oversample (no RNG), elements are classified into buckets, partitioned
/// stably by counting_sort, and each bucket is std::sort-ed — so the output
/// is a pure function of the input at any SEA_THREADS. With a strict total
/// order (e.g. ScoreIndex's rank order) the result is the unique sorted
/// sequence, identical to std::sort's.
template <typename T, typename Less>
void sample_sort(std::span<T> v, Less less) {
  const std::size_t n = v.size();
  constexpr std::size_t kSerialCutoff = 1 << 14;
  if (n < kSerialCutoff) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  const std::size_t buckets =
      std::clamp<std::size_t>(n / (2 * kBlockSize), 2, 256);
  constexpr std::size_t kOversample = 8;
  const std::size_t s = buckets * kOversample;
  std::vector<T> sample;
  sample.reserve(s);
  for (std::size_t i = 0; i < s; ++i)
    sample.push_back(v[i * (n - 1) / (s - 1)]);
  std::sort(sample.begin(), sample.end(), less);
  std::vector<T> pivots;
  pivots.reserve(buckets - 1);
  for (std::size_t i = 1; i < buckets; ++i)
    pivots.push_back(sample[i * kOversample]);

  std::vector<std::uint32_t> bucket_of(n);
  const BlockPlan p = plan(n);
  ParallelFor(p.blocks, [&](std::size_t b) {
    const std::size_t end = p.end(b);
    for (std::size_t i = p.begin(b); i < end; ++i)
      bucket_of[i] = static_cast<std::uint32_t>(
          std::upper_bound(pivots.begin(), pivots.end(), v[i], less) -
          pivots.begin());
  });
  const CountingSort cs = counting_sort(bucket_of, buckets);
  std::vector<T> scratch(n);
  gather(std::span<const T>(v.data(), n), cs.order,
         std::span<T>(scratch.data(), n));
  ParallelFor(buckets, [&](std::size_t bk) {
    std::sort(scratch.begin() + cs.offsets[bk],
              scratch.begin() + cs.offsets[bk + 1], less);
  });
  ParallelFor(p.blocks, [&](std::size_t b) {
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(p.begin(b)),
              scratch.begin() + static_cast<std::ptrdiff_t>(p.end(b)),
              v.begin() + static_cast<std::ptrdiff_t>(p.begin(b)));
  });
}

template <typename T>
void sample_sort(std::span<T> v) {
  sample_sort(v, std::less<T>());
}

}  // namespace sea::par
