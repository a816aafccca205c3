// E2 — Accuracy / cost / storage versus the AQP baselines (paper §II).
//
// Same workload for everyone: the trained agent (P2), uniform and
// stratified sampling (BlinkDB-like [17]), and the grid statistics cache
// (Data-Canopy-like [20]). Reported per system: median relative error,
// per-query modelled cost, auxiliary storage, and which queries it can
// answer at all. Includes the DESIGN.md ablations: #quanta sweep and
// per-quantum model kind.
#include "bench_util.h"

#include "aqp/sampling.h"
#include "aqp/stat_cache.h"
#include "common/stats.h"
#include "sea/served.h"

namespace sea::bench {
namespace {

struct Probe {
  std::vector<double> rel_errors;
  double cost_ms = 0.0;
  std::size_t answered = 0;

  double median_rel() {
    if (rel_errors.empty()) return -1.0;
    std::sort(rel_errors.begin(), rel_errors.end());
    return rel_errors[rel_errors.size() / 2];
  }
};

void main_comparison() {
  banner("E2a: accuracy & cost vs AQP baselines",
         "learned query-driven models answer with competitive accuracy at "
         "zero per-query base-data access, where sampling/caching baselines "
         "keep paying stack costs (paper §II critique of [17], [20])");

  Scenario s(60000, 8, AnalyticType::kCount);
  const std::size_t kTrain = 500, kTest = 200;

  // Agent.
  DatalessAgent agent(default_agent_config(),
                      [&](const std::vector<std::size_t>& cols) {
                        return s.exec.domain(cols);
                      });
  for (std::size_t i = 0; i < kTrain; ++i) {
    const auto q = s.workload.next();
    agent.observe(q, s.exec.execute(q, ExecParadigm::kCoordinatorIndexed)
                         .answer);
  }

  // Baselines.
  SamplingConfig uni_cfg;
  uni_cfg.sample_rate = 0.01;
  SamplingEngine uniform(s.cluster, "t", uni_cfg);
  uniform.build();
  SamplingConfig strat_cfg;
  strat_cfg.strategy = SamplingStrategy::kStratified;
  strat_cfg.sample_rate = 0.01;
  strat_cfg.strata = 32;
  strat_cfg.min_per_stratum = 64;
  SamplingEngine stratified(s.cluster, "t", strat_cfg);
  stratified.build();
  GridStatCache canopy(s.cluster, "t", {0, 1}, 2, 0, 32);
  canopy.build();

  Probe p_exact, p_agent, p_uni, p_strat, p_canopy;
  for (std::size_t i = 0; i < kTest; ++i) {
    const auto q = s.workload.next();
    const double truth = truth_of(s.table, q);

    const auto exact = s.exec.execute(q, ExecParadigm::kMapReduce);
    p_exact.cost_ms += exact.report.makespan_ms();
    p_exact.rel_errors.push_back(0.0);
    ++p_exact.answered;

    if (const auto pred = agent.try_predict(q)) {
      p_agent.rel_errors.push_back(relative_error(truth, pred->value, 5.0));
      ++p_agent.answered;
      // Data-less: zero modelled cost beyond local inference.
    }

    auto ua = uniform.answer(q);
    if (ua.supported) {
      p_uni.rel_errors.push_back(relative_error(truth, ua.value, 5.0));
      p_uni.cost_ms += ua.report.makespan_ms();
      ++p_uni.answered;
    }
    auto sa = stratified.answer(q);
    if (sa.supported) {
      p_strat.rel_errors.push_back(relative_error(truth, sa.value, 5.0));
      p_strat.cost_ms += sa.report.makespan_ms();
      ++p_strat.answered;
    }
    if (const auto ca = canopy.answer(q)) {
      p_canopy.rel_errors.push_back(relative_error(truth, *ca, 5.0));
      ++p_canopy.answered;
    }
  }

  // per_q_ms is ExecReport::makespan_ms(): modelled overheads and network
  // plus the timer-measured map, reduce and coordinator compute.
  row("%-22s %10s %14s %21s %14s", "system", "answered", "median_rel_err",
      "per_q_ms(model+meas)", "storage_bytes");
  const auto line = [&](const char* name, Probe& p, std::size_t storage) {
    row("%-22s %10zu %14.4f %21.3f %14zu", name, p.answered, p.median_rel(),
        p.answered ? p.cost_ms / static_cast<double>(p.answered) : 0.0,
        storage);
  };
  line("exact_mapreduce", p_exact, 0);
  line("sea_agent(data-less)", p_agent, agent.byte_size());
  line("uniform_sample_1%", p_uni, uniform.sample_bytes());
  line("stratified_sample_1%", p_strat, stratified.sample_bytes());
  line("canopy_cache_32^2", p_canopy, canopy.byte_size());
  std::printf(
      "\nExpected shape: agent per-query cost ~0 with error in the same\n"
      "band as 1%% samples; baselines pay per-query stack costs; canopy\n"
      "answers only its prebuilt (cols, targets) configuration.\n");
}

void quanta_ablation() {
  banner("E2b: ablation — number of query-space quanta (RT1.1)",
         "finer quantization buys accuracy until quanta starve for "
         "training data");
  row("%18s %10s %14s %12s %14s", "create_distance", "quanta",
      "median_rel_err", "hit_rate", "agent_bytes");
  for (const double cd : {0.30, 0.15, 0.08, 0.04, 0.02}) {
    Scenario s(40000, 8, AnalyticType::kCount);
    AgentConfig cfg = default_agent_config();
    cfg.create_distance = cd;
    DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
      return s.exec.domain(cols);
    });
    std::string sig;
    for (int i = 0; i < 500; ++i) {
      const auto q = s.workload.next();
      sig = q.signature();
      agent.observe(q, truth_of(s.table, q));
    }
    Probe p;
    std::size_t asked = 0;
    for (int i = 0; i < 200; ++i) {
      const auto q = s.workload.next();
      ++asked;
      if (const auto pred = agent.try_predict(q)) {
        p.rel_errors.push_back(
            relative_error(truth_of(s.table, q), pred->value, 5.0));
        ++p.answered;
      }
    }
    row("%18.2f %10zu %14.4f %12.2f %14zu", cd, agent.num_quanta(sig),
        p.median_rel(),
        static_cast<double>(p.answered) / static_cast<double>(asked),
        agent.byte_size());
  }
}

void model_kind_ablation() {
  banner("E2c: ablation — per-quantum model kind (RT3.3)",
         "different inference models fit different answer surfaces; kAuto "
         "uses linear-once-warm with kNN fallback");
  row("%-10s %14s %12s", "model", "median_rel_err", "hit_rate");
  for (const auto kind :
       {QuantumModelKind::kAuto, QuantumModelKind::kLinear,
        QuantumModelKind::kKnn, QuantumModelKind::kGbm}) {
    Scenario s(40000, 8, AnalyticType::kAvg);
    AgentConfig cfg = default_agent_config();
    cfg.model_kind = kind;
    DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
      return s.exec.domain(cols);
    });
    for (int i = 0; i < 500; ++i) {
      const auto q = s.workload.next();
      agent.observe(q, truth_of(s.table, q));
    }
    Probe p;
    std::size_t asked = 0;
    for (int i = 0; i < 200; ++i) {
      const auto q = s.workload.next();
      ++asked;
      if (const auto pred = agent.try_predict(q)) {
        p.rel_errors.push_back(
            relative_error(truth_of(s.table, q), pred->value, 0.5));
        ++p.answered;
      }
    }
    const char* name = kind == QuantumModelKind::kAuto     ? "auto"
                       : kind == QuantumModelKind::kLinear ? "linear"
                       : kind == QuantumModelKind::kKnn    ? "knn"
                                                           : "gbm";
    row("%-10s %14.4f %12.2f", name, p.median_rel(),
        static_cast<double>(p.answered) / static_cast<double>(asked));
  }
  // Query-driven model selection (paper [48]): auto with the held-out
  // linear-vs-GBM comparison enabled per quantum.
  {
    Scenario s(40000, 8, AnalyticType::kAvg);
    AgentConfig cfg = default_agent_config();
    cfg.auto_select_model = true;
    cfg.select_min_samples = 50;
    DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
      return s.exec.domain(cols);
    });
    for (int i = 0; i < 500; ++i) {
      const auto q = s.workload.next();
      agent.observe(q, truth_of(s.table, q));
    }
    Probe p;
    std::size_t asked = 0;
    for (int i = 0; i < 200; ++i) {
      const auto q = s.workload.next();
      ++asked;
      if (const auto pred = agent.try_predict(q)) {
        p.rel_errors.push_back(
            relative_error(truth_of(s.table, q), pred->value, 0.5));
        ++p.answered;
      }
    }
    row("%-10s %14.4f %12.2f", "auto+[48]", p.median_rel(),
        static_cast<double>(p.answered) / static_cast<double>(asked));
  }
}

void coverage_ablation() {
  banner("E2d: ablation — conformal error-interval calibration (RT1.3)",
         "'accompany predicted answers with (accurate) error estimations "
         "so that the system (or analyst) can choose to proceed'");
  row("%12s %18s %12s", "confidence", "empirical_coverage", "hit_rate");
  for (const double conf : {0.5, 0.7, 0.9, 0.97}) {
    Scenario s(40000, 8, AnalyticType::kCount);
    AgentConfig cfg = default_agent_config();
    cfg.confidence = conf;
    cfg.max_relative_error = 1e9;  // no gating: measure pure calibration
    DatalessAgent agent(cfg, [&](const std::vector<std::size_t>& cols) {
      return s.exec.domain(cols);
    });
    for (int i = 0; i < 500; ++i) {
      const auto q = s.workload.next();
      agent.observe(q, truth_of(s.table, q));
    }
    std::size_t served = 0, covered = 0, asked = 0;
    for (int i = 0; i < 300; ++i) {
      const auto q = s.workload.next();
      ++asked;
      if (const auto p = agent.try_predict(q)) {
        ++served;
        if (std::abs(p->value - truth_of(s.table, q)) <=
            p->expected_abs_error)
          ++covered;
      }
    }
    row("%12.2f %18.3f %12.2f", conf,
        served ? static_cast<double>(covered) / static_cast<double>(served)
               : 0.0,
        static_cast<double>(served) / static_cast<double>(asked));
  }
  std::printf(
      "\nExpected shape: empirical coverage tracks the configured\n"
      "confidence level (the prequential residual quantiles are honest),\n"
      "so analysts can dial accuracy vs data-less hit rate.\n");
}

}  // namespace
}  // namespace sea::bench

int main() {
  sea::bench::main_comparison();
  sea::bench::quanta_ablation();
  sea::bench::model_kind_ablation();
  sea::bench::coverage_ablation();
  return 0;
}
