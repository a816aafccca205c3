// Tests: the data-less analytics agent (RT1) and the serving loop (Fig. 2).
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "sea/agent.h"
#include "sea/served.h"
#include "test_util.h"
#include "workload/workload.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::small_dataset;

AgentConfig test_config() {
  AgentConfig cfg;
  cfg.min_samples_to_predict = 12;
  cfg.refit_interval = 8;
  cfg.max_relative_error = 0.3;
  cfg.create_distance = 0.06;
  return cfg;
}

/// Trains an agent on count queries around one hotspot; returns the
/// workload so callers can draw more queries from the same distribution.
struct TrainedAgent {
  Table table;
  AgentConfig cfg;
  DatalessAgent agent;
  QueryWorkload workload;

  explicit TrainedAgent(std::size_t rows = 4000, std::size_t train = 300,
                        AnalyticType analytic = AnalyticType::kCount)
      : table(small_dataset(rows, 2, 41)),
        cfg(test_config()),
        agent(cfg,
              [this](const std::vector<std::size_t>& cols) {
                return table_bounds(table, cols);
              }),
        workload(
            [&] {
              WorkloadConfig wc;
              wc.selection = SelectionType::kRange;
              wc.analytic = analytic;
              wc.subspace_cols = {0, 1};
              wc.target_col = 2;
              wc.num_hotspots = 2;
              wc.seed = 77;
              // Analysts look where the data is (paper §IV P2).
              wc.hotspot_anchors =
                  sample_anchor_points(table, wc.subspace_cols, 16, 78);
              return wc;
            }(),
            table_bounds(table, std::vector<std::size_t>{0, 1})) {
    for (std::size_t i = 0; i < train; ++i) {
      const auto q = workload.next();
      agent.observe(q, brute_force_answer(table, q));
    }
  }
};

TEST(Agent, ColdAgentDeclines) {
  const Table t = small_dataset(100, 2, 42);
  DatalessAgent agent(test_config(), [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  const auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  EXPECT_FALSE(agent.try_predict(q).has_value());
  EXPECT_EQ(agent.stats().predictions_declined, 1u);
}

TEST(Agent, LearnsCountQueriesAccurately) {
  TrainedAgent setup;
  std::size_t served = 0, tested = 0;
  double total_rel = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto q = setup.workload.next();
    const double truth = brute_force_answer(setup.table, q);
    if (const auto p = setup.agent.try_predict(q)) {
      ++served;
      total_rel += relative_error(truth, p->value, 5.0);
    }
    ++tested;
  }
  EXPECT_GT(served, tested / 3) << "agent should be confident by now";
  EXPECT_LT(total_rel / static_cast<double>(served), 0.25);
}

TEST(Agent, ErrorEstimateCoversTrueError) {
  TrainedAgent setup;
  std::size_t served = 0, covered = 0;
  for (int i = 0; i < 200; ++i) {
    const auto q = setup.workload.next();
    const double truth = brute_force_answer(setup.table, q);
    if (const auto p = setup.agent.try_predict(q)) {
      ++served;
      if (std::abs(p->value - truth) <= p->expected_abs_error * 1.5)
        ++covered;
    }
  }
  ASSERT_GT(served, 20u);
  // Conformal-style interval at 90% confidence should cover most cases.
  EXPECT_GT(static_cast<double>(covered) / static_cast<double>(served), 0.7);
}

TEST(Agent, DeclinesFarFromTrainedRegion) {
  TrainedAgent setup;
  // A query far outside all hotspots (domain corner).
  const Rect domain =
      table_bounds(setup.table, std::vector<std::size_t>{0, 1});
  AnalyticalQuery far = testing::range_count_query(
      domain.lo[0], domain.lo[0] + 1e-4, domain.lo[1], domain.lo[1] + 1e-4);
  // Either declines or returns a prediction whose stated error is honest;
  // for a never-seen corner, decline is the expected behaviour.
  const auto p = setup.agent.try_predict(far);
  if (p) {
    EXPECT_LE(p->expected_rel_error, test_config().max_relative_error);
  }
}

TEST(Agent, SeparatesSignatures) {
  TrainedAgent setup;  // trained on count
  AnalyticalQuery avg_q = setup.workload.next();
  avg_q.analytic = AnalyticType::kAvg;
  avg_q.target_col = 2;
  // Different signature => untrained => decline.
  EXPECT_FALSE(setup.agent.try_predict(avg_q).has_value());
  EXPECT_GE(setup.agent.num_signatures(), 1u);
}

TEST(Agent, LearnsAvgQueriesToo) {
  TrainedAgent setup(4000, 300, AnalyticType::kAvg);
  std::size_t served = 0;
  double total_rel = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto q = setup.workload.next();
    const double truth = brute_force_answer(setup.table, q);
    if (const auto p = setup.agent.try_predict(q)) {
      ++served;
      total_rel += relative_error(truth, p->value, 0.5);
    }
  }
  EXPECT_GT(served, 20u);
  EXPECT_LT(total_rel / static_cast<double>(served), 0.3);
}

TEST(Agent, DataUpdateInflatesErrorAndRecovers) {
  TrainedAgent setup;
  // Find a query the agent is confident about.
  AnalyticalQuery q = setup.workload.next();
  std::optional<Prediction> before = setup.agent.try_predict(q);
  for (int guard = 0; !before && guard < 200; ++guard) {
    q = setup.workload.next();
    before = setup.agent.try_predict(q);
  }
  ASSERT_TRUE(before.has_value());
  setup.agent.note_data_update(0.5);
  const auto after = setup.agent.maybe_predict(q);
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->expected_abs_error, before->expected_abs_error * 1.5);
  // Fresh observations wash the staleness out.
  for (std::size_t i = 0; i < setup.cfg.staleness_recovery; ++i) {
    const auto qq = setup.workload.next();
    setup.agent.observe(qq, brute_force_answer(setup.table, qq));
  }
  const auto recovered = setup.agent.maybe_predict(q);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_LT(recovered->expected_abs_error, after->expected_abs_error);
}

TEST(Agent, NegativeUpdateFractionThrows) {
  TrainedAgent setup;
  EXPECT_THROW(setup.agent.note_data_update(-0.1), std::invalid_argument);
}

TEST(Agent, DriftAlarmFiresOnAnswerShift) {
  TrainedAgent setup;
  // Feed shifted answers for the same query distribution: residuals jump.
  for (int i = 0; i < 150; ++i) {
    const auto q = setup.workload.next();
    const double truth = brute_force_answer(setup.table, q);
    setup.agent.observe(q, truth * 3.0 + 500.0);
  }
  EXPECT_GE(setup.agent.stats().drift_alarms, 1u);
}

TEST(Agent, RecoversAccuracyAfterDrift) {
  TrainedAgent setup;
  // Concept change: answers now follow a different rule.
  for (int i = 0; i < 400; ++i) {
    const auto q = setup.workload.next();
    const double truth = brute_force_answer(setup.table, q);
    setup.agent.observe(q, truth * 2.0 + 100.0);
  }
  // After retraining, predictions should track the *new* concept.
  std::size_t served = 0;
  double total_rel = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto q = setup.workload.next();
    const double new_truth =
        brute_force_answer(setup.table, q) * 2.0 + 100.0;
    if (const auto p = setup.agent.try_predict(q)) {
      ++served;
      total_rel += relative_error(new_truth, p->value, 5.0);
    }
  }
  ASSERT_GT(served, 10u);
  EXPECT_LT(total_rel / static_cast<double>(served), 0.3);
}

TEST(Agent, PurgesStaleQuantaWhenConfigured) {
  AgentConfig cfg = test_config();
  cfg.purge_idle = 64;
  const Table t = small_dataset(2000, 2, 43);
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  // Phase 1: one corner of the space.
  for (int i = 0; i < 40; ++i) {
    auto q = testing::range_count_query(0.1 + i * 1e-4, 0.2, 0.1, 0.2);
    agent.observe(q, brute_force_answer(t, q));
  }
  // Phase 2: interests move; old quantum should eventually be purged.
  for (int i = 0; i < 400; ++i) {
    auto q = testing::range_count_query(0.7, 0.8 + (i % 5) * 1e-3, 0.7, 0.8);
    agent.observe(q, brute_force_answer(t, q));
  }
  EXPECT_GE(agent.stats().quanta_purged, 1u);
}

TEST(Agent, ByteSizeGrowsWithTraining) {
  TrainedAgent setup;
  const std::size_t size1 = setup.agent.byte_size();
  EXPECT_GT(size1, 0u);
  for (int i = 0; i < 100; ++i) {
    const auto q = setup.workload.next();
    setup.agent.observe(q, brute_force_answer(setup.table, q));
  }
  EXPECT_GE(setup.agent.byte_size(), size1);
}

TEST(Agent, BoundedSamplesPerQuantum) {
  AgentConfig cfg = test_config();
  cfg.max_samples_per_quantum = 32;
  cfg.max_quanta = 1;
  cfg.create_distance = 100.0;  // everything in one quantum
  const Table t = small_dataset(1000, 2, 44);
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  Rng rng(45);
  for (int i = 0; i < 500; ++i) {
    auto q = testing::range_count_query(rng.uniform(0, 0.5),
                                        rng.uniform(0.5, 1.0),
                                        rng.uniform(0, 0.5),
                                        rng.uniform(0.5, 1.0));
    agent.observe(q, brute_force_answer(t, q));
  }
  // Memory must be bounded: 32 pairs x ~4 features x 8B plus model, well
  // under an unbounded 500-pair store.
  EXPECT_LT(agent.byte_size(), 32 * 6 * 8 + 4096);
}

TEST(Agent, ModelKindKnnOnlyWorks) {
  AgentConfig cfg = test_config();
  cfg.model_kind = QuantumModelKind::kKnn;
  const Table t = small_dataset(3000, 2, 46);
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 1;
  wc.seed = 7;
  QueryWorkload wl(wc, table_bounds(t, std::vector<std::size_t>{0, 1}));
  for (int i = 0; i < 200; ++i) {
    const auto q = wl.next();
    agent.observe(q, brute_force_answer(t, q));
  }
  std::size_t served = 0;
  for (int i = 0; i < 50; ++i) {
    if (agent.try_predict(wl.next())) ++served;
  }
  EXPECT_GT(served, 5u);
}

// A full quantum drops its oldest pair in place: after overflow, a kKnn
// agent predicts bit for bit like a KnnRegressor built from the quantum's
// last max_samples_per_quantum (features, answer) pairs.
TEST(Agent, KnnStoreSlidesAfterOverflow) {
  AgentConfig cfg = test_config();
  cfg.model_kind = QuantumModelKind::kKnn;
  cfg.max_samples_per_quantum = 24;
  cfg.max_quanta = 1;
  cfg.create_distance = 100.0;  // everything in one quantum
  cfg.drift_confidence = 1e-12;
  const Table t = small_dataset(1000, 2, 44);
  const Rect domain = table_bounds(t, std::vector<std::size_t>{0, 1});
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>&) {
    return domain;
  });
  Rng rng(47);
  const auto draw = [&] {
    // AVG: no mass scaling, so the stored target is the observed answer.
    AnalyticalQuery q = testing::range_count_query(
        rng.uniform(0, 0.5), rng.uniform(0.5, 1.0), rng.uniform(0, 0.5),
        rng.uniform(0.5, 1.0));
    q.analytic = AnalyticType::kAvg;
    q.target_col = 2;
    return q;
  };
  std::vector<Point> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    const AnalyticalQuery q = draw();
    const double answer = brute_force_answer(t, q);
    agent.observe(q, answer);
    xs.push_back(extract_features(q, domain).model);
    ys.push_back(answer);
  }
  ASSERT_EQ(agent.stats().drift_alarms, 0u);
  KnnRegressor want(cfg.knn_k);
  for (std::size_t i = xs.size() - cfg.max_samples_per_quantum;
       i < xs.size(); ++i)
    want.add(xs[i], ys[i]);
  for (int i = 0; i < 40; ++i) {
    const AnalyticalQuery q = draw();
    const auto got = agent.maybe_predict(q);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got->value),
              std::bit_cast<std::uint64_t>(
                  want.predict(extract_features(q, domain).model)))
        << i;
  }
}

TEST(Agent, ModelKindGbmWorks) {
  AgentConfig cfg = test_config();
  cfg.model_kind = QuantumModelKind::kGbm;
  const Table t = small_dataset(3000, 2, 46);
  DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 1;
  wc.seed = 8;
  wc.hotspot_anchors = sample_anchor_points(t, wc.subspace_cols, 8, 9);
  QueryWorkload wl(wc, table_bounds(t, std::vector<std::size_t>{0, 1}));
  for (int i = 0; i < 250; ++i) {
    const auto q = wl.next();
    agent.observe(q, brute_force_answer(t, q));
  }
  std::size_t served = 0;
  double total_rel = 0.0;
  for (int i = 0; i < 60; ++i) {
    const auto q = wl.next();
    if (const auto p = agent.try_predict(q)) {
      ++served;
      total_rel += relative_error(brute_force_answer(t, q), p->value, 5.0);
    }
  }
  EXPECT_GT(served, 8u);
  EXPECT_LT(total_rel / std::max<std::size_t>(1, served), 0.3);
}

TEST(Agent, AutoModelSelectionPicksGbmOnNonlinearSurface) {
  // A step-shaped answer surface inside a single wide quantum: the linear
  // model cannot fit it, the held-out comparison ([48]) must switch the
  // quantum to GBM and cut the error.
  const Table t = small_dataset(500, 2, 51);
  const auto make_agent = [&](bool auto_select) {
    AgentConfig cfg = test_config();
    cfg.create_distance = 10.0;  // one quantum for everything
    cfg.max_quanta = 1;
    cfg.auto_select_model = auto_select;
    cfg.select_min_samples = 50;
    cfg.refit_interval = 16;
    return DatalessAgent(cfg, [&t](const std::vector<std::size_t>& c) {
      return table_bounds(t, c);
    });
  };
  const auto answer_of = [](const AnalyticalQuery& q) {
    return q.selection_center()[0] < 0.5 ? 500.0 : 100.0;
  };
  Rng rng(52);
  const auto train = [&](DatalessAgent& agent) {
    for (int i = 0; i < 300; ++i) {
      const double cx = rng.uniform(0.1, 0.9), cy = rng.uniform(0.1, 0.9);
      auto q = testing::range_count_query(cx - 0.05, cx + 0.05, cy - 0.05,
                                          cy + 0.05);
      agent.observe(q, answer_of(q));
    }
  };
  DatalessAgent plain = make_agent(false);
  DatalessAgent selecting = make_agent(true);
  Rng rng_copy = rng;
  train(plain);
  rng = rng_copy;
  train(selecting);

  double plain_err = 0, selecting_err = 0;
  int n = 0;
  for (int i = 0; i < 100; ++i) {
    const double cx = rng.uniform(0.1, 0.9), cy = rng.uniform(0.1, 0.9);
    if (std::abs(cx - 0.5) < 0.08) continue;  // skip the step boundary
    auto q = testing::range_count_query(cx - 0.05, cx + 0.05, cy - 0.05,
                                        cy + 0.05);
    const double truth = answer_of(q);
    const auto a = plain.maybe_predict(q);
    const auto b = selecting.maybe_predict(q);
    if (!a || !b) continue;
    plain_err += std::abs(a->value - truth);
    selecting_err += std::abs(b->value - truth);
    ++n;
  }
  ASSERT_GT(n, 30);
  EXPECT_LT(selecting_err, plain_err / 2.0);
}

TEST(Agent, InvalidConfigThrows) {
  AgentConfig bad = test_config();
  bad.max_relative_error = 0.0;
  EXPECT_THROW(DatalessAgent(bad,
                             [](const std::vector<std::size_t>&) {
                               return Rect{{0}, {1}};
                             }),
               std::invalid_argument);
  EXPECT_THROW(DatalessAgent(test_config(), nullptr), std::invalid_argument);
}

TEST(Agent, PredictUncheckedThrowsWhenCold) {
  const Table t = small_dataset(100, 2, 47);
  DatalessAgent agent(test_config(), [&](const std::vector<std::size_t>& c) {
    return table_bounds(t, c);
  });
  EXPECT_THROW(
      agent.predict_unchecked(testing::range_count_query(0, 1, 0, 1)),
      std::logic_error);
}

// --- the full Fig. 2 serving loop ---

TEST(ServedAnalytics, BootstrapExecutesExactly) {
  const Table t = small_dataset(2000, 2, 48);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  DatalessAgent agent(test_config(), [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 10;
  sc.audit_fraction = 0.0;
  ServedAnalytics served(agent, exec, sc);
  for (int i = 0; i < 10; ++i) {
    const auto a = served.serve(testing::range_count_query(0.4, 0.6, 0.4, 0.6));
    EXPECT_FALSE(a.data_less);
  }
  EXPECT_EQ(served.stats().exact_executed, 10u);
}

TEST(ServedAnalytics, GoesDataLessAfterTraining) {
  const Table t = small_dataset(3000, 2, 49);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  DatalessAgent agent(test_config(), [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 150;
  sc.audit_fraction = 0.0;
  ServedAnalytics served(agent, exec, sc);

  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 2;
  wc.seed = 21;
  wc.hotspot_anchors = sample_anchor_points(t, wc.subspace_cols, 16, 20);
  QueryWorkload wl(wc, exec.domain({0, 1}));
  for (int i = 0; i < 400; ++i) served.serve(wl.next());
  EXPECT_GT(served.stats().data_less_served, 50u);

  // Data-less answers must incur zero base-data access.
  c.reset_stats();
  ServedAnswer a;
  int guard = 0;
  do {
    a = served.serve(wl.next());
  } while (!a.data_less && ++guard < 50);
  if (a.data_less) {
    EXPECT_EQ(c.stats().rows_scanned, 0u);
    EXPECT_EQ(c.network().stats().messages, 0u);
  }
}

TEST(ServedAnalytics, AuditKeepsTraining) {
  const Table t = small_dataset(2000, 2, 50);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  DatalessAgent agent(test_config(), [&](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  });
  ServeConfig sc;
  sc.bootstrap_queries = 50;
  sc.audit_fraction = 1.0;  // audit everything
  ServedAnalytics served(agent, exec, sc);
  WorkloadConfig wc;
  wc.selection = SelectionType::kRange;
  wc.subspace_cols = {0, 1};
  wc.num_hotspots = 1;
  wc.seed = 22;
  wc.hotspot_anchors = sample_anchor_points(t, wc.subspace_cols, 16, 23);
  QueryWorkload wl(wc, exec.domain({0, 1}));
  const auto obs_before = agent.stats().observations;
  for (int i = 0; i < 150; ++i) served.serve(wl.next());
  // With 100% audits every query (served or not) adds an observation.
  EXPECT_EQ(agent.stats().observations, obs_before + 150);
}

}  // namespace
}  // namespace sea
