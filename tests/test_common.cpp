// Unit tests: common substrate (rng, stats, timer, thread pool, log).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"

namespace sea {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo |= v == -2;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  // The fork must not replay the parent's sequence.
  Rng a2(23);
  a2.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == a.next_u64()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Zipf, SkewConcentratesMassOnLowRanks) {
  Rng rng(31);
  ZipfDistribution zipf(1000, 1.2);
  std::size_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (zipf(rng) < 10) ++low;
  // With s=1.2 the first 10 ranks carry a large share of the mass.
  EXPECT_GT(static_cast<double>(low) / n, 0.4);
}

TEST(Zipf, UniformWhenSkewZero) {
  Rng rng(37);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Zipf, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  RunningStats s;
  for (const double x : xs) s.add(x);
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(41);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(1.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningCovariance, PerfectLinearCorrelation) {
  RunningCovariance c;
  for (int i = 0; i < 50; ++i)
    c.add(i, 3.0 * i - 2.0);
  EXPECT_NEAR(c.correlation(), 1.0, 1e-12);
  EXPECT_NEAR(c.slope(), 3.0, 1e-12);
  EXPECT_NEAR(c.intercept(), -2.0, 1e-9);
}

TEST(RunningCovariance, NegativeCorrelation) {
  RunningCovariance c;
  for (int i = 0; i < 50; ++i) c.add(i, -2.0 * i + 5.0);
  EXPECT_NEAR(c.correlation(), -1.0, 1e-12);
  EXPECT_NEAR(c.slope(), -2.0, 1e-12);
}

TEST(RunningCovariance, IndependentNearZero) {
  Rng rng(43);
  RunningCovariance c;
  for (int i = 0; i < 20000; ++i) c.add(rng.uniform(), rng.uniform());
  EXPECT_NEAR(c.correlation(), 0.0, 0.03);
}

TEST(RunningCovariance, DegenerateXGivesZeroSlope) {
  RunningCovariance c;
  for (int i = 0; i < 10; ++i) c.add(1.0, i);
  EXPECT_EQ(c.slope(), 0.0);
  EXPECT_EQ(c.correlation(), 0.0);
}

TEST(ErrorMetrics, ZeroErrorOnIdentical) {
  const std::vector<double> t = {1, 2, 3};
  const auto m = compute_error_metrics(t, t);
  EXPECT_EQ(m.mae, 0.0);
  EXPECT_EQ(m.rmse, 0.0);
  EXPECT_EQ(m.mape, 0.0);
  EXPECT_EQ(m.max_abs, 0.0);
}

TEST(ErrorMetrics, KnownValues) {
  const std::vector<double> truth = {10.0, 20.0};
  const std::vector<double> est = {12.0, 16.0};
  const auto m = compute_error_metrics(truth, est);
  EXPECT_NEAR(m.mae, 3.0, 1e-12);
  EXPECT_NEAR(m.rmse, std::sqrt((4.0 + 16.0) / 2.0), 1e-12);
  EXPECT_NEAR(m.mape, (0.2 + 0.2) / 2.0, 1e-12);
  EXPECT_NEAR(m.max_abs, 4.0, 1e-12);
}

TEST(ErrorMetrics, SizeMismatchThrows) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(compute_error_metrics(a, b), std::invalid_argument);
}

TEST(RelativeError, FloorsSmallTruth) {
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(relative_error(100.0, 110.0), 0.1);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.elapsed_us(), 0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

// --- The fork-join runtime behind ParallelFor / ParallelChunks ---

/// Runs `f` with `threads` threads doing region work, then back to serial.
template <typename F>
void with_threads(std::size_t threads, F&& f) {
  set_configured_threads(threads);
  f();
  set_configured_threads(0);
}

TEST(ParallelRuntime, EveryIndexRunsOnce) {
  for (const std::size_t threads : {2, 3, 8}) {
    with_threads(threads, [] {
      for (const std::size_t n : {1, 2, 7, 64, 1000}) {
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (auto& h : hits) EXPECT_EQ(h.load(), 1);
      }
    });
  }
}

TEST(ParallelRuntime, PropagatesExceptions) {
  with_threads(2, [] {
    EXPECT_THROW(ParallelFor(8,
                             [](std::size_t i) {
                               if (i == 3) throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
  });
}

TEST(ParallelRuntime, FirstExceptionWinsWhenManyTasksFail) {
  // Half the tasks throw, from several threads at once. Every task still
  // runs, the lowest failing index's error is the one rethrown at every
  // thread count, and the runtime stays usable afterwards.
  for (const std::size_t threads : {1, 4, 8}) {
    with_threads(threads, [] {
      std::vector<std::atomic<int>> hits(32);
      std::string what;
      try {
        ParallelFor(32, [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (i % 2 == 1)
            throw std::runtime_error("boom " + std::to_string(i));
        });
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      EXPECT_EQ(what, "boom 1");
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
      std::atomic<int> ok{0};
      ParallelFor(8, [&](std::size_t) { ok.fetch_add(1); });
      EXPECT_EQ(ok.load(), 8);
      EXPECT_FALSE(in_parallel_region());
    });
  }
}

TEST(ParallelRuntime, NestedRegionsRunInline) {
  with_threads(3, [] {
    std::vector<std::atomic<int>> hits(8 * 8);
    ParallelFor(8, [&](std::size_t i) {
      EXPECT_TRUE(in_parallel_region());
      // One inline chunk on this thread: the whole range at once.
      ParallelChunks(8, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 8u);
        for (std::size_t j = begin; j < end; ++j) hits[i * 8 + j].fetch_add(1);
      });
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_FALSE(in_parallel_region());
  });
}

TEST(ParallelRuntime, RegionsFromTwoThreadsComplete) {
  // Two std::threads issue regions at once: one runs on the workers, the
  // other inline, and both see every index exactly once.
  with_threads(4, [] {
    constexpr std::size_t kRounds = 200;
    std::vector<std::atomic<int>> a(kRounds * 16), b(kRounds * 16);
    const auto issue = [](std::vector<std::atomic<int>>& hits) {
      for (std::size_t r = 0; r < kRounds; ++r)
        ParallelFor(16, [&](std::size_t i) { hits[r * 16 + i].fetch_add(1); });
    };
    std::thread ta([&] { issue(a); });
    std::thread tb([&] { issue(b); });
    ta.join();
    tb.join();
    for (auto& h : a) EXPECT_EQ(h.load(), 1);
    for (auto& h : b) EXPECT_EQ(h.load(), 1);
  });
}

TEST(ParallelRuntime, RebuildsAfterTeardown) {
  // set_configured_threads joins the workers; the next region restarts
  // them at the new count and runs all of its work.
  for (const std::size_t threads : {2, 8, 1, 3, 2}) {
    set_configured_threads(threads);
    EXPECT_EQ(configured_threads(), threads);
    std::atomic<int> ran{0};
    ParallelFor(40, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 40);
  }
  set_configured_threads(0);
  EXPECT_EQ(configured_threads(), 1u);
}

TEST(ParallelRuntime, RepeatedTeardownIsHarmless) {
  set_configured_threads(4);
  set_configured_threads(4);  // no region ran: nothing to join
  std::atomic<int> ran{0};
  ParallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
  set_configured_threads(4);
  set_configured_threads(4);  // second teardown in a row is a no-op
  ParallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
  set_configured_threads(0);
}

}  // namespace
}  // namespace sea
