// Differential-testing harness for the grid's cell placements: the learned
// placement is driven against the uniform one, the k-d tree and brute
// force across 100-seed randomized workloads and adversarial
// distributions, asserting identical result sets. "Exact by construction"
// is proven here, not assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generator.h"
#include "diff_util.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "recovery/chaos.h"
#include "sea/served.h"
#include "test_util.h"

namespace sea {
namespace {

using recovery::chaos_seed_from_env;
using testing::adversarial_points;
using testing::canon;
using testing::domain_of;
using testing::fingerprint;
using testing::PointDist;

constexpr std::uint64_t kSeeds = 100;

// ---------------------------------------------------------------------------
// Learned vs uniform placement vs k-d tree vs brute force.
// ---------------------------------------------------------------------------

std::set<std::uint64_t> brute_range(const std::vector<Point>& pts,
                                    const Rect& r) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (r.contains(pts[i])) out.insert(i);
  return out;
}

std::set<std::uint64_t> brute_radius(const std::vector<Point>& pts,
                                     const Ball& b) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (b.contains(pts[i])) out.insert(i);
  return out;
}

class LearnedGridDiff : public ::testing::TestWithParam<PointDist> {};

TEST_P(LearnedGridDiff, MatchesGridAndBruteForce) {
  const PointDist dist = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(std::string("dist=") + to_string(dist) +
                 " seed=" + std::to_string(seed));
    const std::size_t dims = 2 + seed % 2;  // 2-d and 3-d
    const auto pts = adversarial_points(dist, 250, dims, seed);
    const Rect dom = domain_of(pts, dims);
    const std::size_t cells = 1 + seed % 8;
    const GridIndex grid(pts, dom, cells);
    const GridIndex learned(pts, dom, cells, CellPlacement::kLearned);
    const KdTree tree(pts);

    Rng rng(seed ^ 0x9e37ULL);
    for (int trial = 0; trial < 12; ++trial) {
      // Rectangles and balls sized to sweep empty, partial and full
      // coverage — deliberately allowed to fall outside the domain.
      Rect r;
      r.lo.resize(dims);
      r.hi.resize(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        const double a = rng.uniform(-0.3, 1.3), b = rng.uniform(-0.3, 1.3);
        r.lo[d] = std::min(a, b);
        r.hi[d] = std::max(a, b);
      }
      const auto truth = brute_range(pts, r);
      const auto got = canon(learned.range_query(r));
      ASSERT_EQ(std::set<std::uint64_t>(got.begin(), got.end()), truth);
      ASSERT_EQ(got.size(), truth.size());  // no duplicates
      ASSERT_EQ(got, canon(grid.range_query(r)));
      ASSERT_EQ(got, canon(tree.range_query(r)));

      Ball ball;
      ball.center.resize(dims);
      for (auto& v : ball.center) v = rng.uniform(-0.4, 1.4);
      ball.radius = rng.uniform(0.0, 0.6);
      const auto rtruth = brute_radius(pts, ball);
      const auto rgot = canon(learned.radius_query(ball));
      ASSERT_EQ(std::set<std::uint64_t>(rgot.begin(), rgot.end()), rtruth);
      ASSERT_EQ(rgot, canon(grid.radius_query(ball)));
      ASSERT_EQ(rgot, canon(tree.radius_query(ball)));
    }
  }
}

TEST_P(LearnedGridDiff, KnnMatchesGridExactlyAndTreeByDistance) {
  const PointDist dist = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeeds / 2; ++seed) {
    SCOPED_TRACE(std::string("dist=") + to_string(dist) +
                 " seed=" + std::to_string(seed));
    const std::size_t dims = 2;
    const auto pts = adversarial_points(dist, 200, dims, seed);
    if (pts.empty()) continue;
    const Rect dom = domain_of(pts, dims);
    const GridIndex grid(pts, dom, 4);
    const GridIndex learned(pts, dom, 4, CellPlacement::kLearned);
    const KdTree tree(pts);

    Rng rng(seed ^ 0x51ABULL);
    for (int trial = 0; trial < 8; ++trial) {
      Point q(dims);
      // Queries inside, near and far outside the domain.
      for (auto& v : q) v = rng.uniform(-2.0, 3.0);
      const std::size_t k = 1 + rng.uniform_index(12);
      const auto lg = learned.knn(q, k);
      // Both placements and the tree keep the k smallest by
      // (distance_rank, id): identical output, ids and distance bits
      // included, even on the constant and collinear sets' exact ties.
      ASSERT_EQ(lg, grid.knn(q, k));
      const auto tr = tree.knn(q, k);
      ASSERT_EQ(lg.size(), tr.size());
      ASSERT_EQ(lg.size(), std::min(k, pts.size()));
      ASSERT_EQ(lg, tr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, LearnedGridDiff,
                         ::testing::Values(PointDist::kUniform,
                                           PointDist::kClustered,
                                           PointDist::kConstant,
                                           PointDist::kCollinear,
                                           PointDist::kEmpty,
                                           PointDist::kSingleton),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(LearnedGrid, ThreadCountByteIdentity) {
  const std::uint64_t seed = chaos_seed_from_env(777);
  SCOPED_TRACE("repro: SEA_CHAOS_SEED=" + std::to_string(seed));
  const auto pts = adversarial_points(PointDist::kClustered, 50'000, 3, seed);
  const Rect dom = domain_of(pts, 3);
  set_configured_threads(1);
  const GridIndex serial(pts, dom, 16, CellPlacement::kLearned);
  set_configured_threads(8);
  const GridIndex parallel(pts, dom, 16, CellPlacement::kLearned);
  set_configured_threads(0);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

TEST(LearnedGrid, AdaptiveCellsBeatUniformOnSkew) {
  // The payoff claim: on clustered data the learned placement spreads the
  // blobs across many cells where the uniform grid piles them into few.
  const auto pts = adversarial_points(PointDist::kClustered, 20'000, 2, 11);
  const Rect dom = domain_of(pts, 2);
  const GridIndex grid(pts, dom, 16);
  const GridIndex learned(pts, dom, 16, CellPlacement::kLearned);
  const auto max_cell = [](std::span<const std::uint32_t> offsets) {
    std::uint32_t m = 0;
    for (std::size_t c = 0; c + 1 < offsets.size(); ++c)
      m = std::max(m, offsets[c + 1] - offsets[c]);
    return m;
  };
  EXPECT_LT(max_cell(learned.cell_offsets()), max_cell(grid.cell_offsets()));
}

// ---------------------------------------------------------------------------
// End-to-end: the learned paradigm through the executor, the serving loop
// and the optimizer.
// ---------------------------------------------------------------------------

TEST(LearnedParadigm, AnswersMatchMapReduceAndIndexed) {
  const Table t = testing::small_dataset(4000, 2, 91);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  Rng rng(17);
  for (int i = 0; i < 25; ++i) {
    const double lo0 = rng.uniform(0.0, 0.8), lo1 = rng.uniform(0.0, 0.8);
    AnalyticalQuery q = testing::range_count_query(
        lo0, lo0 + rng.uniform(0.05, 0.4), lo1, lo1 + rng.uniform(0.05, 0.4));
    if (i % 3 == 1) {
      q.selection = SelectionType::kRadius;
      q.ball.center = {rng.uniform(), rng.uniform()};
      q.ball.radius = rng.uniform(0.05, 0.4);
    } else if (i % 3 == 2) {
      q.selection = SelectionType::kNearestNeighbors;
      q.knn_point = {rng.uniform(), rng.uniform()};
      q.knn_k = 1 + rng.uniform_index(32);
    }
    if (i % 2 == 1) {
      q.analytic = AnalyticType::kSum;
      q.target_col = 2;
    }
    SCOPED_TRACE(q.describe());
    const double truth = testing::brute_force_answer(t, q);
    const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
    const auto learned = exec.execute(q, ExecParadigm::kCoordinatorLearned);
    EXPECT_NEAR(learned.answer, truth, 1e-6 + 1e-9 * std::abs(truth));
    EXPECT_EQ(learned.qualifying_tuples, mr.qualifying_tuples);
    // The learned grid is surgical, not a scan: same access economics as
    // the other coordinator paths.
    EXPECT_LT(learned.report.total_work_ms(), mr.report.total_work_ms());
  }
}

TEST(LearnedParadigm, ServedAnalyticsBootstrapsThroughLearnedGrid) {
  const Table t = testing::small_dataset(2000, 2, 93);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  AgentConfig cfg;
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 100;  // stay in the exact phase throughout
  sc.audit_fraction = 0.0;
  sc.exact_paradigm = ExecParadigm::kCoordinatorLearned;
  ServedAnalytics served(agent, exec, sc);
  for (int i = 0; i < 10; ++i) {
    const auto q = testing::range_count_query(0.2, 0.7, 0.2, 0.7);
    const auto a = served.serve(q);
    EXPECT_FALSE(a.data_less);
    EXPECT_DOUBLE_EQ(a.value, testing::brute_force_answer(t, q));
  }
  EXPECT_EQ(served.stats().exact_answered, 10u);
}

}  // namespace
}  // namespace sea
