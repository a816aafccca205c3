// Tests: deterministic parallel primitives (src/common/primitives.h), the
// columnar scan kernels built on them (src/data/columnar.h), and the exact
// selection the k-d builder runs (src/common/select.h).
//
// Three families of guarantees:
//  * correctness — every primitive matches a naive serial reference
//    (bitwise for stable sorts / integer folds, tight tolerance for
//    tree-combined double folds);
//  * determinism — results are bit-identical at SEA_THREADS 0 vs 8 (the
//    block decomposition depends only on the input, never the pool);
//  * edges — empty inputs, single elements, sizes straddling the block
//    size and the sample-sort serial cutoff, duplicate-heavy keys, and
//    every documented exception path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/primitives.h"
#include "common/rng.h"
#include "common/select.h"
#include "data/columnar.h"
#include "data/generator.h"
#include "data/table.h"
#include "index/histogram.h"
#include "test_util.h"

namespace sea {
namespace {

/// Runs `f` under a fixed worker count and restores serial mode after.
template <typename F>
auto with_threads(std::size_t threads, F&& f) {
  set_configured_threads(threads);
  auto result = f();
  set_configured_threads(0);
  return result;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<std::uint32_t> random_keys(std::size_t n, std::size_t buckets,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> k(n);
  for (auto& x : k)
    x = static_cast<std::uint32_t>(rng.uniform_index(buckets));
  return k;
}

/// Sizes that straddle every boundary the block plan cares about.
const std::size_t kAdversarialSizes[] = {
    0, 1, 2, 7, 8, par::kBlockSize - 1, par::kBlockSize,
    par::kBlockSize + 1, 3 * par::kBlockSize + 17, 50000};

// --- BlockPlan ---

TEST(BlockPlan, CoversRangeContiguously) {
  for (const std::size_t n : kAdversarialSizes) {
    const par::BlockPlan p = par::plan(n);
    if (n == 0) {
      EXPECT_EQ(p.blocks, 0u);
      continue;
    }
    EXPECT_EQ(p.begin(0), 0u);
    EXPECT_EQ(p.end(p.blocks - 1), n);
    for (std::size_t b = 0; b + 1 < p.blocks; ++b) {
      EXPECT_EQ(p.end(b), p.begin(b + 1));
      EXPECT_LT(p.begin(b), p.end(b));
    }
  }
}

TEST(BlockPlan, KeyedPlanCapsCounterCells) {
  const std::size_t n = 1 << 20;
  const std::size_t buckets = 1 << 16;
  const par::BlockPlan p = par::plan_keyed(n, buckets);
  EXPECT_LE(p.blocks * buckets, par::kMaxCounterCells);
  EXPECT_GE(p.blocks, 1u);
  EXPECT_EQ(p.end(p.blocks - 1), n);
  // Small bucket counts keep the unkeyed plan.
  EXPECT_EQ(par::plan_keyed(n, 4).blocks, par::plan(n).blocks);
  EXPECT_EQ(par::plan_keyed(0, 64).blocks, 0u);
}

// --- reduce / minmax ---

TEST(ReduceAdd, MatchesSerialSumWithinTolerance) {
  for (const std::size_t n : kAdversarialSizes) {
    const auto v = random_doubles(n, 11 + n);
    const double got = par::reduce_add(v);
    const double want = std::accumulate(v.begin(), v.end(), 0.0);
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << n;
  }
}

TEST(ReduceAdd, BitIdenticalAcrossThreadCounts) {
  const auto v = random_doubles(50000, 13);
  const double serial = with_threads(0, [&] { return par::reduce_add(v); });
  const double pooled = with_threads(8, [&] { return par::reduce_add(v); });
  EXPECT_EQ(serial, pooled);  // bitwise: same block combine tree
}

TEST(Minmax, MatchesStdMinmaxAndHandlesEmpty) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(par::minmax(std::span<const double>{}),
            (std::pair<double, double>{kInf, -kInf}));
  for (const std::size_t n : {std::size_t{1}, std::size_t{4097}}) {
    const auto v = random_doubles(n, 17 + n);
    const auto [lo, hi] = par::minmax(v);
    const auto [it_lo, it_hi] = std::minmax_element(v.begin(), v.end());
    EXPECT_EQ(lo, *it_lo);
    EXPECT_EQ(hi, *it_hi);
  }
}

// A NaN at every block start (the first element included) is skipped like
// any other NaN: par::minmax equals a serial NaN-skipping scan, and the
// first-seen zero's sign wins on both ends, at any thread count. An
// all-NaN span has no extremes: {+inf, -inf}.
TEST(Minmax, SkipsNaNAtBlockStartsAndKeepsFirstSeenZero) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto serial = [&](std::span<const double> v) {
    std::pair<double, double> mm{kInf, -kInf};
    for (const double x : v) {
      if (x < mm.first) mm.first = x;
      if (x > mm.second) mm.second = x;
    }
    return mm;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{50000}}) {
    for (const double sign : {1.0, -1.0}) {
      // Same-signed values, so the extreme at the zero end is a zero.
      auto v = random_doubles(n, 31 + n);
      for (auto& x : v) x = sign * std::abs(x);
      if (n > 2) {
        v[n / 3] = -0.0;
        v[2 * n / 3] = 0.0;
      }
      const par::BlockPlan p = par::plan(n);
      for (std::size_t b = 0; b < p.blocks; ++b) v[p.begin(b)] = kNaN;
      const auto want = serial(v);
      for (const std::size_t threads : {0, 8}) {
        const auto got = with_threads(threads, [&] { return par::minmax(v); });
        EXPECT_EQ(bits(got.first), bits(want.first)) << n << " " << threads;
        EXPECT_EQ(bits(got.second), bits(want.second)) << n << " " << threads;
      }
      if (n > 2) {
        EXPECT_EQ(sign > 0 ? bits(want.first) : bits(want.second),
                  bits(-0.0));
      }
    }
  }
  const std::vector<double> all_nan(5000, kNaN);
  EXPECT_EQ(par::minmax(all_nan), (std::pair<double, double>{kInf, -kInf}));
}

// --- scan_exclusive ---

TEST(ScanExclusive, ExactForIntegers) {
  for (const std::size_t n : kAdversarialSizes) {
    std::vector<std::uint64_t> in(n);
    Rng rng(23 + n);
    for (auto& x : in) x = rng.uniform_index(1000);
    std::vector<std::uint64_t> out(n);
    const std::uint64_t total = par::scan_exclusive(
        std::span<const std::uint64_t>(in), std::span<std::uint64_t>(out));
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], acc);
      acc += in[i];
    }
    EXPECT_EQ(total, acc);
  }
}

TEST(ScanExclusive, SupportsAliasedInputOutput) {
  std::vector<std::uint64_t> v(10000, 1);
  const std::uint64_t total = par::scan_exclusive(
      std::span<const std::uint64_t>(v), std::span<std::uint64_t>(v));
  EXPECT_EQ(total, 10000u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], i);
}

TEST(ScanExclusive, DoublesBitIdenticalAcrossThreadCounts) {
  const auto in = random_doubles(30000, 29);
  const auto run = [&] {
    std::vector<double> out(in.size());
    const double total = par::scan_exclusive(std::span<const double>(in),
                                             std::span<double>(out));
    out.push_back(total);
    return out;
  };
  EXPECT_EQ(with_threads(0, run), with_threads(8, run));
}

TEST(ScanExclusive, ThrowsOnSizeMismatch) {
  std::vector<double> in(4), out(3);
  EXPECT_THROW(par::scan_exclusive(std::span<const double>(in),
                                   std::span<double>(out)),
               std::invalid_argument);
}

// --- histogram ---

TEST(Histogram, MatchesNaiveCounts) {
  for (const std::size_t n : kAdversarialSizes) {
    const std::size_t buckets = 37;
    const auto keys = random_keys(n, buckets, 31 + n);
    const auto got = par::histogram(keys, buckets);
    std::vector<std::uint64_t> want(buckets, 0);
    for (const auto k : keys) ++want[k];
    EXPECT_EQ(got, want) << n;
  }
}

TEST(Histogram, ExceptionPaths) {
  std::vector<std::uint32_t> keys = {0, 1, 5};
  EXPECT_THROW(par::histogram(keys, 5), std::out_of_range);
  EXPECT_THROW(par::histogram(keys, 0), std::invalid_argument);
  // Empty input: any bucket count is fine, all-zero result.
  EXPECT_EQ(par::histogram(std::span<const std::uint32_t>{}, 3),
            (std::vector<std::uint64_t>{0, 0, 0}));
}

// --- counting_sort ---

void expect_counting_sort_matches_naive(std::span<const std::uint32_t> keys,
                                        std::size_t buckets) {
  const par::CountingSort got = par::counting_sort(keys, buckets);
  // Naive stable counting sort.
  std::vector<std::uint32_t> offsets(buckets + 1, 0);
  for (const auto k : keys) ++offsets[k + 1];
  for (std::size_t k = 0; k < buckets; ++k) offsets[k + 1] += offsets[k];
  std::vector<std::uint32_t> cur(offsets.begin(), offsets.end() - 1);
  std::vector<std::uint32_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    order[cur[keys[i]]++] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(got.order, order);
  EXPECT_EQ(got.offsets, offsets);
}

TEST(CountingSort, StableAndMatchesNaive) {
  for (const std::size_t n : kAdversarialSizes) {
    const std::size_t buckets = 19;
    const auto keys = random_keys(n, buckets, 41 + n);
    expect_counting_sort_matches_naive(keys, buckets);
  }
  // Duplicate-heavy: every key identical (stability = identity order).
  std::vector<std::uint32_t> same(10000, 3);
  const auto cs = par::counting_sort(same, 7);
  for (std::size_t i = 0; i < same.size(); ++i) EXPECT_EQ(cs.order[i], i);
  EXPECT_EQ(cs.offsets[3], 0u);
  EXPECT_EQ(cs.offsets[4], 10000u);
}

TEST(CountingSort, EmptyAndExceptionPaths) {
  const auto empty = par::counting_sort(std::span<const std::uint32_t>{}, 4);
  EXPECT_TRUE(empty.order.empty());
  EXPECT_EQ(empty.offsets, (std::vector<std::uint32_t>{0, 0, 0, 0, 0}));
  std::vector<std::uint32_t> keys = {2};
  EXPECT_THROW(par::counting_sort(keys, 2), std::out_of_range);
  EXPECT_THROW(par::counting_sort(keys, 0), std::invalid_argument);
}

TEST(CountingSort, BitIdenticalAcrossThreadCounts) {
  const auto keys = random_keys(60000, 256, 43);
  const auto run = [&] { return par::counting_sort(keys, 256).order; };
  EXPECT_EQ(with_threads(0, run), with_threads(8, run));
}

// --- collect_reduce ---

TEST(CollectReduce, ExactForIntegerValues) {
  for (const std::size_t n : kAdversarialSizes) {
    const std::size_t buckets = 13;
    const auto keys = random_keys(n, buckets, 47 + n);
    std::vector<std::uint64_t> vals(n);
    Rng rng(48 + n);
    for (auto& v : vals) v = rng.uniform_index(100);
    const auto got = par::collect_reduce(
        std::span<const std::uint32_t>(keys),
        std::span<const std::uint64_t>(vals), buckets, std::uint64_t{0},
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    std::vector<std::uint64_t> want(buckets, 0);
    for (std::size_t i = 0; i < n; ++i) want[keys[i]] += vals[i];
    EXPECT_EQ(got, want) << n;
  }
}

TEST(CollectReduce, DoublesNearNaiveAndThreadInvariant) {
  const std::size_t n = 40000, buckets = 64;
  const auto keys = random_keys(n, buckets, 53);
  const auto vals = random_doubles(n, 54);
  const auto run = [&] {
    return par::collect_reduce(std::span<const std::uint32_t>(keys),
                               std::span<const double>(vals), buckets, 0.0,
                               [](double a, double b) { return a + b; });
  };
  const auto serial = with_threads(0, run);
  const auto pooled = with_threads(8, run);
  EXPECT_EQ(serial, pooled);  // bitwise thread invariance
  std::vector<double> want(buckets, 0.0);
  for (std::size_t i = 0; i < n; ++i) want[keys[i]] += vals[i];
  for (std::size_t k = 0; k < buckets; ++k)
    EXPECT_NEAR(serial[k], want[k], 1e-9 * std::max(1.0, std::abs(want[k])));
}

TEST(CollectReduce, ExceptionPaths) {
  std::vector<std::uint32_t> keys = {0, 1};
  std::vector<double> vals = {1.0};
  const auto add = [](double a, double b) { return a + b; };
  EXPECT_THROW(par::collect_reduce(std::span<const std::uint32_t>(keys),
                                   std::span<const double>(vals), 2, 0.0,
                                   add),
               std::invalid_argument);
  vals.push_back(2.0);
  EXPECT_THROW(par::collect_reduce(std::span<const std::uint32_t>(keys),
                                   std::span<const double>(vals), 1, 0.0,
                                   add),
               std::out_of_range);
  EXPECT_THROW(par::collect_reduce(std::span<const std::uint32_t>(keys),
                                   std::span<const double>(vals), 0, 0.0,
                                   add),
               std::invalid_argument);
}

// --- gather ---

TEST(Gather, PermutesExactly) {
  for (const std::size_t n : kAdversarialSizes) {
    const auto src = random_doubles(n, 59 + n);
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
      idx[i] = static_cast<std::uint32_t>(i);
    Rng rng(60 + n);
    rng.shuffle(idx);
    std::vector<double> out(n);
    par::gather(std::span<const double>(src),
                std::span<const std::uint32_t>(idx), std::span<double>(out));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], src[idx[i]]);
  }
}

TEST(Gather, ThrowsOnSizeMismatch) {
  std::vector<double> src(4), out(3);
  std::vector<std::uint32_t> idx = {0, 1, 2, 3};
  EXPECT_THROW(par::gather(std::span<const double>(src),
                           std::span<const std::uint32_t>(idx),
                           std::span<double>(out)),
               std::invalid_argument);
}

// --- sample_sort ---

TEST(SampleSort, MatchesStdSortBelowAndAboveCutoff) {
  // 1<<14 is the serial cutoff; cover both regimes plus the boundary.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{100},
        std::size_t{(1 << 14) - 1}, std::size_t{1 << 14},
        std::size_t{(1 << 14) + 1}, std::size_t{100000}}) {
    auto v = random_doubles(n, 61 + n);
    auto want = v;
    par::sample_sort(std::span<double>(v));
    std::sort(want.begin(), want.end());
    EXPECT_EQ(v, want) << n;
  }
}

TEST(SampleSort, DuplicateHeavyAndPresortedInputs) {
  std::vector<double> dup(50000);
  for (std::size_t i = 0; i < dup.size(); ++i)
    dup[i] = static_cast<double>(i % 7);
  auto want = dup;
  par::sample_sort(std::span<double>(dup));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(dup, want);

  std::vector<double> sorted(40000);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    sorted[i] = static_cast<double>(i);
  auto asc = sorted;
  par::sample_sort(std::span<double>(asc));
  EXPECT_EQ(asc, sorted);
  std::vector<double> desc(sorted.rbegin(), sorted.rend());
  par::sample_sort(std::span<double>(desc));
  EXPECT_EQ(desc, sorted);
}

TEST(SampleSort, CustomComparatorAndThreadInvariance) {
  const auto base = random_doubles(70000, 67);
  const auto run = [&] {
    auto v = base;
    par::sample_sort(std::span<double>(v), std::greater<double>());
    return v;
  };
  const auto serial = with_threads(0, run);
  const auto pooled = with_threads(8, run);
  EXPECT_EQ(serial, pooled);
  auto want = base;
  std::sort(want.begin(), want.end(), std::greater<double>());
  EXPECT_EQ(serial, want);
}

// --- 100-seed property sweep ---

TEST(PrimitiveProperties, HundredSeedSweepAgainstNaiveReferences) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t n = rng.uniform_index(5000);
    const std::size_t buckets = 1 + rng.uniform_index(97);
    const auto keys = random_keys(n, buckets, seed * 3 + 1);
    const auto vals = random_doubles(n, seed * 3 + 2);

    expect_counting_sort_matches_naive(keys, buckets);

    std::vector<std::uint64_t> want_hist(buckets, 0);
    for (const auto k : keys) ++want_hist[k];
    EXPECT_EQ(par::histogram(keys, buckets), want_hist) << seed;

    const double want_sum = std::accumulate(vals.begin(), vals.end(), 0.0);
    EXPECT_NEAR(par::reduce_add(vals), want_sum,
                1e-9 * std::max(1.0, std::abs(want_sum)))
        << seed;

    auto sorted = vals;
    par::sample_sort(std::span<double>(sorted));
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end())) << seed;
    auto want_sorted = vals;
    std::sort(want_sorted.begin(), want_sorted.end());
    EXPECT_EQ(sorted, want_sorted) << seed;
  }
}

// --- columnar kernels ---

/// Naive branchy references for the fused scans: one gathered row at a
/// time, the row scan's own predicates, and kNN by a full sort.
struct NaiveScan {
  std::vector<std::uint32_t> range, ball;
  std::vector<NearRow> nearest;
};

/// (distance, row) order with NaN distances last.
bool naive_nearer(const NearRow& a, const NearRow& b) {
  if (testing::nan_last_less(a.d2, b.d2)) return true;
  if (testing::nan_last_less(b.d2, a.d2)) return false;
  return a.row < b.row;
}

NaiveScan naive_scan(const Table& table, std::span<const std::size_t> cols,
                     const testing::ScanGeometry& g) {
  NaiveScan out;
  Point p;
  const double r2 = g.ball.radius * g.ball.radius;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    table.gather(r, cols, p);
    const auto row = static_cast<std::uint32_t>(r);
    bool in = true;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (!(p[j] >= g.rect.lo[j] && p[j] <= g.rect.hi[j])) {
        in = false;
        break;
      }
    }
    if (in) out.range.push_back(row);
    if (squared_distance(p, g.ball.center) <= r2) out.ball.push_back(row);
    out.nearest.push_back({squared_distance(p, g.center), row});
  }
  std::sort(out.nearest.begin(), out.nearest.end(), naive_nearer);
  out.nearest.resize(std::min(g.k, out.nearest.size()));
  return out;
}

/// Concatenates a visitor's blocks, checking each is non-empty, ascending
/// and inside one kScanBlock-aligned window past the previous block's.
struct BlockCollector {
  std::vector<std::uint32_t> ids;
  bool ok = true;
  void operator()(std::span<const std::uint32_t> block) {
    const std::size_t window = block.empty() ? 0 : block[0] / kScanBlock;
    ok = ok && !block.empty() &&
         std::is_sorted(block.begin(), block.end()) &&
         block.back() / kScanBlock == window &&
         (ids.empty() || ids.back() / kScanBlock < window);
    ids.insert(ids.end(), block.begin(), block.end());
  }
};

TEST(ColumnarKernels, SelectionMatchesRowScanAndIsAscending) {
  const Table table = make_clustered_dataset(20000, 3, 3, 71);
  const std::vector<std::size_t> cols = {0, 1};
  Rect rect = table_bounds(table, cols);
  for (std::size_t i = 0; i < rect.lo.size(); ++i) {
    const double w = rect.hi[i] - rect.lo[i];
    rect.lo[i] += 0.3 * w;
    rect.hi[i] -= 0.3 * w;
  }
  const Ball ball{{rect.lo[0], rect.lo[1]}, 0.2};

  BlockCollector range, ball_ids;
  visit_range(table, cols, rect, range);
  visit_ball(table, cols, ball, ball_ids);
  EXPECT_TRUE(range.ok && ball_ids.ok);

  std::vector<std::uint32_t> want_range, want_ball;
  Point p;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    table.gather(r, cols, p);
    if (rect.contains(p)) want_range.push_back(static_cast<std::uint32_t>(r));
    if (ball.contains(p)) want_ball.push_back(static_cast<std::uint32_t>(r));
  }
  EXPECT_EQ(range.ids, want_range);
  EXPECT_EQ(ball_ids.ids, want_ball);
  EXPECT_FALSE(range.ids.empty());  // the shrunken box still selects rows
  EXPECT_THROW(visit_range(table, std::vector<std::size_t>{0}, rect, range),
               std::invalid_argument);
  EXPECT_THROW(visit_ball(table, std::vector<std::size_t>{0}, ball, ball_ids),
               std::invalid_argument);
}

/// The same rows with bit-equal squared distances. With `any_nan`, two NaN
/// distances match whatever their bits: on kSpecials data a distance can
/// add a NaN from inf - inf (sign set on x86) to a NaN coordinate's, and
/// the sum's sign depends on the add's operand order as compiled, which
/// differs between builds (RelWithDebInfo vs the sanitizer presets). Every
/// NaN distance has the same distance_rank, so no answer reads those bits.
bool same_nearest(const std::vector<NearRow>& a,
                  const std::vector<NearRow>& b, bool any_nan = false) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [any_nan](const NearRow& x, const NearRow& y) {
                      return x.row == y.row &&
                             (std::bit_cast<std::uint64_t>(x.d2) ==
                                  std::bit_cast<std::uint64_t>(y.d2) ||
                              (any_nan && std::isnan(x.d2) &&
                               std::isnan(y.d2)));
                    });
}

class ColumnarScanDiff : public ::testing::TestWithParam<std::size_t> {};

/// The case's own geometry plus an all-in and an all-out one: +-inf rect
/// bounds and an infinite radius select every non-NaN row; a box and a
/// zero ball at 3.0, which no data shape holds, select none.
std::vector<testing::ScanGeometry> scan_geometries(testing::ScanGeometry g,
                                                   std::size_t d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  testing::ScanGeometry all = g, none = g;
  all.rect = Rect{Point(d, -kInf), Point(d, kInf)};
  all.ball.radius = kInf;
  none.rect = Rect{Point(d, 3.0), Point(d, 3.0)};
  none.ball = Ball{Point(d, 3.0), 0.0};
  return {std::move(g), std::move(all), std::move(none)};
}

// 100 seeds x every data shape (NaN, +-0.0 and +-inf among them), sizes
// around the scan block (2048) and a whole explore_100k partition
// (12,500): the vector range and ball scans must return exactly the rows
// of the branchy row scan, block by block in row order; the count kernels
// their number; and nearest_rows exactly the first k of a full (distance,
// row) sort — squared distances bit-equal, ties by row, k past the row
// count — at SEA_THREADS 1 and 8.
TEST_P(ColumnarScanDiff, ScansMatchBranchyRowScan) {
  const std::size_t d = GetParam();
  constexpr std::size_t kSizes[] = {0, 1, 2, 3, 2047, 2048, 2049, 12500};
  std::vector<std::size_t> cols(d);
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  constexpr testing::ScanData kKinds[] = {
      testing::ScanData::kClustered, testing::ScanData::kDuplicates,
      testing::ScanData::kSignedZeros, testing::ScanData::kNaN,
      testing::ScanData::kSpecials};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const testing::ScanData kind : kKinds) {
      const std::size_t n =
          kSizes[(seed + d + static_cast<std::size_t>(kind)) %
                 std::size(kSizes)];
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " kind=" + std::to_string(static_cast<int>(kind)) +
                   " n=" + std::to_string(n));
      const Table table = testing::scan_table(kind, n, d, seed * 977 + d);
      Rng rng(seed * 31 + d);
      for (const testing::ScanGeometry& g :
           scan_geometries(testing::scan_geometry(table, d, rng), d)) {
        const NaiveScan want = naive_scan(table, cols, g);
        for (const std::size_t threads : {1, 8}) {
          set_configured_threads(threads);
          BlockCollector range, ball;
          visit_range(table, cols, g.rect, range);
          visit_ball(table, cols, g.ball, ball);
          const std::size_t range_n = count_range(table, cols, g.rect);
          const std::size_t ball_n = count_ball(table, cols, g.ball);
          std::vector<NearRow> nearest;
          nearest_rows(table, cols, g.center, g.k, nearest);
          set_configured_threads(0);
          EXPECT_TRUE(range.ok && ball.ok) << threads;
          EXPECT_EQ(range.ids, want.range) << threads;
          EXPECT_EQ(ball.ids, want.ball) << threads;
          EXPECT_EQ(range_n, want.range.size()) << threads;
          EXPECT_EQ(ball_n, want.ball.size()) << threads;
          EXPECT_TRUE(same_nearest(nearest, want.nearest,
                                   kind == testing::ScanData::kSpecials))
              << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ColumnarScanDiff,
                         ::testing::Range(std::size_t{1}, std::size_t{9}));

// nearest_rows bounds its first block's k-th rank from a radix histogram
// when k fits in that block, and otherwise keeps the first k rows as they
// come. Both must give the full sort's rows: k around the block size and
// the row count, a first block of NaN distances only (its k-th rank is a
// NaN's), a NaN centre (every distance NaN), and duplicate-heavy data
// whose k-th distance ties many rows.
TEST(ColumnarKernels, NearestRowsMatchSortOnEveryBoundPath) {
  constexpr std::size_t kRows = 5000;
  const std::vector<std::size_t> cols{0, 1};
  Table nan_head = testing::scan_table(testing::ScanData::kClustered, kRows,
                                       2, 83);
  std::vector<std::vector<double>> head(2);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto col = nan_head.column(c);
    head[c].assign(col.begin(), col.end());
    std::fill_n(head[c].begin(), kScanBlock, std::nan(""));
  }
  nan_head = Table::from_columns(Schema({"x", "y"}), std::move(head));
  const Table lattice =
      testing::scan_table(testing::ScanData::kDuplicates, kRows, 2, 89);
  const Table specials =
      testing::scan_table(testing::ScanData::kSpecials, kRows, 2, 97);
  const Table* tables[] = {&nan_head, &lattice, &specials};
  for (std::size_t t = 0; t < std::size(tables); ++t) {
    const Table& table = *tables[t];
    for (const Point& center :
         {Point{0.5, 0.5}, Point{0.25, 0.0}, Point{std::nan(""), 0.5}}) {
      for (const std::size_t k :
           {1, 2, 63, 64, 65, 2047, 2048, 2049, 4999, 5000, 6000}) {
        SCOPED_TRACE("table=" + std::to_string(t) +
                     " k=" + std::to_string(k));
        testing::ScanGeometry g;
        g.rect = Rect{center, center};
        g.ball = Ball{center, 0.0};
        g.center = center;
        g.k = k;
        std::vector<NearRow> got;
        nearest_rows(table, cols, center, k, got);
        EXPECT_TRUE(same_nearest(got, naive_scan(table, cols, g).nearest,
                                 &table == &specials));
      }
    }
  }
}

// The NaN rule: a NaN squared distance ranks after every number, +inf
// included, and NaN ties break by row like any other tie.
TEST(ColumnarKernels, NearestRowsRankNaNDistancesLast) {
  const double inf = std::numeric_limits<double>::infinity();
  const Table table = Table::from_columns(
      Schema({"x"}), {{std::nan(""), 1.0, std::nan(""), 0.5, inf, -1.0}});
  const std::vector<std::size_t> cols{0};
  const Point center{0.0};
  std::vector<NearRow> got;
  const auto rows_of = [](const std::vector<NearRow>& v) {
    std::vector<std::uint32_t> rows;
    for (const NearRow& n : v) rows.push_back(n.row);
    return rows;
  };
  nearest_rows(table, cols, center, 10, got);
  EXPECT_EQ(rows_of(got), (std::vector<std::uint32_t>{3, 1, 5, 4, 0, 2}));
  nearest_rows(table, cols, center, 5, got);
  EXPECT_EQ(rows_of(got), (std::vector<std::uint32_t>{3, 1, 5, 4, 0}));
  nearest_rows(table, cols, center, 2, got);
  EXPECT_EQ(rows_of(got), (std::vector<std::uint32_t>{3, 1}));
  EXPECT_LT(distance_rank(inf), distance_rank(std::nan("")));
  EXPECT_EQ(distance_rank(std::nan("")), distance_rank(-std::nan("")));
  // A NaN centre makes every distance NaN: the first k rows, in row order.
  nearest_rows(table, cols, Point{std::nan("")}, 3, got);
  EXPECT_EQ(rows_of(got), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_THROW(nearest_rows(table, cols, Point{0.0, 0.0}, 1, got),
               std::invalid_argument);
}

// visit_merged_runs against the stable sort it replaces in the MapReduce
// kNN reduce: per-partition nearest_rows lists of a duplicate lattice
// copied into every partition (each distance tied across all partitions),
// with NaN coordinates (NaN distances), concatenated in partition order;
// plus random unsorted inputs whose runs are cut at every descent. The
// visited prefix must be the stable sort's, element for element, for k
// from 0 to past the input size.
TEST(ColumnarKernels, MergedRunsMatchStableSort) {
  struct Cand {
    std::uint64_t rank;
    std::uint32_t id;  // position in the input: tells tied ranks apart
  };
  const auto check = [](const std::vector<Cand>& items) {
    std::vector<Cand> sorted = items;
    std::stable_sort(
        sorted.begin(), sorted.end(),
        [](const Cand& a, const Cand& b) { return a.rank < b.rank; });
    for (std::size_t k = 0; k <= items.size() + 2; ++k) {
      std::vector<std::uint32_t> got;
      visit_merged_runs(std::span<const Cand>(items), k,
                        [](const Cand& c) { return c.rank; },
                        [&](const Cand& c) { got.push_back(c.id); });
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < std::min(k, sorted.size()); ++i)
        want.push_back(sorted[i].id);
      ASSERT_EQ(got, want) << "k=" << k << " n=" << items.size();
    }
  };
  const std::vector<std::size_t> cols{0, 1};
  Rng rng(101);
  for (std::size_t parts = 1; parts <= 8; ++parts) {
    // A 5 x 5 lattice, one NaN row in about eight, copied into each part.
    std::vector<std::vector<double>> xy(2);
    for (std::size_t r = 0; r < 40; ++r) {
      const bool nan = rng.uniform_index(8) == 0;
      for (auto& col : xy)
        col.push_back(nan ? std::nan("")
                          : 0.25 * static_cast<double>(rng.uniform_index(5)));
    }
    const Table part = Table::from_columns(Schema({"x", "y"}), xy);
    for (const std::size_t k : {1, 7, 25, 40, 60}) {
      std::vector<Cand> items;
      std::vector<NearRow> nearest;
      for (std::size_t p = 0; p < parts; ++p) {
        nearest_rows(part, cols, Point{0.5, 0.25}, k, nearest);
        for (const NearRow& n : nearest)
          items.push_back({distance_rank(std::sqrt(n.d2)),
                           static_cast<std::uint32_t>(items.size())});
      }
      check(items);
    }
  }
  for (std::size_t trial = 0; trial < 200; ++trial) {
    std::vector<Cand> items(rng.uniform_index(40));
    for (std::size_t i = 0; i < items.size(); ++i)
      items[i] = {rng.uniform_index(4) == 0 ? ~std::uint64_t{0}
                                            : rng.uniform_index(6),
                  static_cast<std::uint32_t>(i)};
    check(items);
  }
}

// A fold over visit_range's blocks adds the selected values in row order:
// bit-equal to a serial left fold over the row scan's selection, at any
// thread count.
TEST(ColumnarKernels, AggregateColumnThreadInvariantAndNearNaive) {
  const auto vals = random_doubles(60000, 79);
  const Table table = Table::from_columns(Schema({"x"}), {vals});
  const std::vector<std::size_t> cols{0};
  const Rect rect{{0.1}, {0.7}};
  struct Sums {
    std::uint64_t count = 0;
    double sum = 0.0, sum_sq = 0.0;
  };
  const auto run = [&] {
    Sums a;
    visit_range(table, cols, rect, [&](std::span<const std::uint32_t> ids) {
      for (const std::uint32_t r : ids) {
        ++a.count;
        a.sum += vals[r];
        a.sum_sq += vals[r] * vals[r];
      }
    });
    return a;
  };
  const Sums serial = with_threads(0, run);
  const Sums pooled = with_threads(8, run);
  Sums want;
  for (const double v : vals) {
    if (!(v >= 0.1 && v <= 0.7)) continue;
    ++want.count;
    want.sum += v;
    want.sum_sq += v * v;
  }
  ASSERT_GT(want.count, 0u);
  for (const Sums& got : {serial, pooled}) {
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum),
              std::bit_cast<std::uint64_t>(want.sum));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum_sq),
              std::bit_cast<std::uint64_t>(want.sum_sq));
  }
}

// --- bulk columnar Table construction ---

TEST(TableColumnar, FromColumnsMatchesAppendRow) {
  Schema schema({"a", "b"});
  std::vector<std::vector<double>> cols = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Table bulk = Table::from_columns(schema, cols);
  Table rowwise(schema);
  for (std::size_t r = 0; r < 3; ++r)
    rowwise.append_row(std::vector<double>{cols[0][r], cols[1][r]});
  ASSERT_EQ(bulk.num_rows(), rowwise.num_rows());
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t r = 0; r < 3; ++r)
      EXPECT_EQ(bulk.at(r, c), rowwise.at(r, c));
}

TEST(TableColumnar, ErrorPaths) {
  // from_columns: schema/column count mismatch and ragged columns.
  EXPECT_THROW(Table::from_columns(Schema({"a", "b"}), {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Table::from_columns(Schema({"a", "b"}), {{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  // append_column: length mismatch against existing rows, duplicate name.
  Table t;
  t.append_column("a", {1.0, 2.0});
  EXPECT_EQ(t.num_rows(), 2u);  // first column defines the row count
  EXPECT_THROW(t.append_column("b", {1.0}), std::invalid_argument);
  EXPECT_THROW(t.append_column("a", {3.0, 4.0}), std::invalid_argument);
  t.append_column("b", {3.0, 4.0});
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.at(1, 1), 4.0);
}

TEST(ProductHistogramColumnar, MatchesPointBuildAndRejectsRagged) {
  const auto c0 = random_doubles(4000, 83);
  const auto c1 = random_doubles(4000, 84);
  std::vector<Point> pts(c0.size(), Point(2));
  for (std::size_t r = 0; r < c0.size(); ++r) {
    pts[r][0] = c0[r];
    pts[r][1] = c1[r];
  }
  const ProductHistogram from_points(pts, 32);
  const std::vector<std::span<const double>> spans = {c0, c1};
  const ProductHistogram from_cols(spans, 32);
  const Rect probe{{-0.5, -0.5}, {0.5, 0.5}};
  EXPECT_EQ(from_points.total(), from_cols.total());
  EXPECT_EQ(from_points.estimate_count(probe),
            from_cols.estimate_count(probe));

  const std::vector<double> shorter(c1.begin(), c1.begin() + 100);
  const std::vector<std::span<const double>> ragged = {c0, shorter};
  EXPECT_THROW(ProductHistogram(ragged, 32), std::invalid_argument);
}

// --- select_nth against std::nth_element ---

enum class SelectData {
  kRandom, kSorted, kReversed, kOrganPipe, kAllEqual, kFewDistinct,
  kSignedZeros, kNaN, kNaNAtMedianSlots
};

constexpr SelectData kSelectDataKinds[] = {
    SelectData::kRandom,      SelectData::kSorted,
    SelectData::kReversed,    SelectData::kOrganPipe,
    SelectData::kAllEqual,    SelectData::kFewDistinct,
    SelectData::kSignedZeros, SelectData::kNaN,
    SelectData::kNaNAtMedianSlots};

/// n values of one shape. kNaNAtMedianSlots is NaN-laced data with NaN at
/// the first median-of-3 candidates (index 1, n / 2 and n - 1).
std::vector<double> select_data(SelectData kind, std::size_t n, Rng& rng) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<double>(i);
    switch (kind) {
      case SelectData::kRandom: v[i] = rng.uniform(-1.0, 1.0); break;
      case SelectData::kSorted: v[i] = x; break;
      case SelectData::kReversed: v[i] = static_cast<double>(n) - x; break;
      case SelectData::kOrganPipe:
        v[i] = std::min(x, static_cast<double>(n) - x);
        break;
      case SelectData::kAllEqual: v[i] = 0.5; break;
      case SelectData::kFewDistinct:
        v[i] = static_cast<double>(rng.uniform_index(4));
        break;
      case SelectData::kSignedZeros:
        v[i] = rng.uniform() < 0.5 ? 0.0 : -0.0;
        break;
      case SelectData::kNaN:
      case SelectData::kNaNAtMedianSlots:
        v[i] = rng.uniform() < 0.1 ? kNaN : rng.uniform();
        break;
    }
  }
  if (kind == SelectData::kNaNAtMedianSlots && n > 3)
    v[1] = v[n / 2] = v[n - 1] = kNaN;
  return v;
}

/// The k-d builder's two element types: a physical record {c[D], index}
/// compared on one axis, and a u32 index into row-major coordinates.
template <std::size_t D>
struct SelectRecord {
  double c[D];
  std::uint32_t index;
};

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// A record's bytes, padding excepted.
template <std::size_t D>
bool same_bytes(const SelectRecord<D>& a, const SelectRecord<D>& b) {
  return std::memcmp(a.c, b.c, sizeof(a.c)) == 0 && a.index == b.index;
}

/// select_nth and std::nth_element on copies of `v` leave the same bytes.
template <typename T, typename Less>
bool same_select(const std::vector<T>& v, std::size_t nth, Less less) {
  std::vector<T> got = v, want = v;
  select_nth(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(nth),
             got.end(), less);
  std::nth_element(want.begin(),
                   want.begin() + static_cast<std::ptrdiff_t>(nth),
                   want.end(), less);
  return std::equal(got.begin(), got.end(), want.begin(),
                    [](const T& a, const T& b) { return same_bytes(a, b); });
}

const auto kDoubleLess = [](double a, double b) { return a < b; };

TEST(SelectDiff, EveryNthUpTo64) {
  Rng rng(101);
  for (const SelectData kind : kSelectDataKinds) {
    for (std::size_t n = 0; n <= 64; ++n) {
      const auto v = select_data(kind, n, rng);
      for (std::size_t nth = 0; nth <= n; ++nth)
        ASSERT_TRUE(same_select(v, nth, kDoubleLess))
            << "kind=" << static_cast<int>(kind) << " n=" << n
            << " nth=" << nth;
    }
  }
}

TEST(SelectDiff, RandomSizesUpTo200k) {
  Rng rng(102);
  for (int trial = 0; trial < 12; ++trial) {
    for (const SelectData kind : kSelectDataKinds) {
      // Log-uniform sizes, so every scale up to 200k is sampled.
      const auto n = static_cast<std::size_t>(
          std::exp(rng.uniform(std::log(65.0), std::log(200000.0))));
      const auto v = select_data(kind, n, rng);
      const std::size_t nth =
          trial % 3 == 0 ? n / 2 : rng.uniform_index(n + 1);
      ASSERT_TRUE(same_select(v, nth, kDoubleLess))
          << "kind=" << static_cast<int>(kind) << " n=" << n
          << " nth=" << nth;
    }
  }
}

/// McIlroy's adversary ("A Killer Adversary for Quicksort", 1999), aimed at
/// std::nth_element(.., nth, ..): every item starts as "gas" and is frozen
/// to the next small value only when a comparison needs it, so each
/// pivot is among the smallest candidates. Replaying the frozen values as
/// plain input repeats the same comparisons.
std::vector<double> antiqsort_input(std::size_t n, std::size_t nth) {
  const int gas = static_cast<int>(n);
  std::vector<int> val(n, gas);
  int solid = 0;
  int candidate = -1;
  std::vector<int> items(n);
  std::iota(items.begin(), items.end(), 0);
  std::nth_element(items.begin(),
                   items.begin() + static_cast<std::ptrdiff_t>(nth),
                   items.end(), [&](int x, int y) {
                     if (val[x] == gas && val[y] == gas)
                       val[x == candidate ? x : y] = solid++;
                     if (val[x] == gas)
                       candidate = x;
                     else if (val[y] == gas)
                       candidate = y;
                     return val[x] < val[y];
                   });
  return {val.begin(), val.end()};
}

TEST(SelectDiff, AntiQsortAdversaryReachesHeapSelect) {
  for (const std::size_t n : {1000u, 4096u, 20000u}) {
    const auto v = antiqsort_input(n, n / 2);
    // Each partition round over at most n elements makes at most n + 6
    // comparisons (median of 3 included), and the final insertion sort at
    // most 3: more than 2 * floor(lg n) rounds can make means the depth
    // limit ran out and the heap select ran.
    std::uint64_t comparisons = 0;
    std::vector<double> probe = v;
    std::nth_element(probe.begin(), probe.begin() + n / 2, probe.end(),
                     [&](double a, double b) {
                       ++comparisons;
                       return a < b;
                     });
    const auto lg = static_cast<std::uint64_t>(std::bit_width(n) - 1);
    EXPECT_GT(comparisons, 2 * lg * (n + 6) + 3) << "n=" << n;
    EXPECT_TRUE(same_select(v, n / 2, kDoubleLess)) << "n=" << n;
    EXPECT_TRUE(same_select(v, n / 3, kDoubleLess)) << "n=" << n;
  }
}

template <std::size_t D>
void expect_builder_elements_select_alike(std::uint64_t seed) {
  Rng rng(seed);
  for (const SelectData kind : kSelectDataKinds) {
    const std::size_t n = 1 + rng.uniform_index(5000);
    std::vector<double> coords(n * D);
    for (std::size_t j = 0; j < D; ++j) {
      const auto col = select_data(kind, n, rng);
      for (std::size_t i = 0; i < n; ++i) coords[i * D + j] = col[i];
    }
    std::vector<SelectRecord<D>> records(n);
    std::vector<std::uint32_t> indices(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(coords.data() + i * D, D, records[i].c);
      records[i].index = indices[i] = static_cast<std::uint32_t>(i);
    }
    const std::size_t axis = rng.uniform_index(D);
    const std::size_t nth = rng.uniform_index(n);
    const auto record_less = [axis](const SelectRecord<D>& a,
                                    const SelectRecord<D>& b) {
      return a.c[axis] < b.c[axis];
    };
    const auto index_less = [&](std::uint32_t a, std::uint32_t b) {
      return coords[a * D + axis] < coords[b * D + axis];
    };
    EXPECT_TRUE(same_select(records, nth, record_less))
        << "D=" << D << " kind=" << static_cast<int>(kind) << " n=" << n;
    EXPECT_TRUE(same_select(indices, nth, index_less))
        << "D=" << D << " kind=" << static_cast<int>(kind) << " n=" << n;
  }
}

TEST(SelectDiff, BuilderElementTypes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_builder_elements_select_alike<1>(seed);
    expect_builder_elements_select_alike<2>(seed);
    expect_builder_elements_select_alike<3>(seed);
  }
}

}  // namespace
}  // namespace sea
