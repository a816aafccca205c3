// Shared helpers for the experiment harnesses (E1..E12).
//
// Every harness prints a fixed-width table: one header block naming the
// experiment and the paper claim it substantiates, then one row per
// parameter point. Columns ending in "(meas)" are measured wall-clock;
// columns ending in "(model)" come from the calibrated cost model
// (DESIGN.md, "cost accounting, not wall-clock fiction"); byte/row/task
// counters are hardware-independent.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/parallel.h"
#include "data/columnar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sea/agent.h"
#include "data/generator.h"
#include "sea/exact.h"
#include "sea/query.h"
#include "workload/workload.h"

namespace sea::bench {

inline void banner(const std::string& id, const std::string& claim) {
  std::printf("\n==============================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Claim: %s\n", claim.c_str());
  std::printf("==============================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Ground truth over the raw table (no accounting), via the same fused
/// scans as a MapReduce map task: range/radius fold their qualifying rows
/// in ascending row order, and kNN folds the k nearest rows in (distance,
/// row) order (data/columnar.h).
inline double truth_of(const Table& table, const AnalyticalQuery& q) {
  if (q.selection != SelectionType::kNearestNeighbors)
    return scan_aggregate(table, q).finalize(q.analytic);
  std::vector<NearRow> nearest;
  nearest_rows(table, q.subspace_cols, q.knn_point, q.knn_k, nearest);
  const std::span<const double> t_col =
      needs_target(q.analytic) ? table.column(q.target_col)
                               : std::span<const double>();
  const std::span<const double> u_col =
      needs_second_target(q.analytic) ? table.column(q.target_col2)
                                      : std::span<const double>();
  AggregateState agg;
  for (const NearRow& n : nearest)
    agg.add(t_col.empty() ? 0.0 : t_col[n.row],
            u_col.empty() ? 0.0 : u_col[n.row]);
  return agg.finalize(q.analytic);
}

/// Standard clustered-analytics scenario: table in a cluster + an anchored
/// hotspot workload over (x0, x1).
struct Scenario {
  Table table;
  Cluster cluster;
  ExactExecutor exec;
  QueryWorkload workload;

  Scenario(std::size_t rows, std::size_t nodes, AnalyticType analytic,
           SelectionType selection = SelectionType::kRange,
           std::uint64_t seed = 7)
      : table(make_clustered_dataset(rows, 2, 3, seed)),
        cluster(nodes, Network::single_zone(nodes)),
        exec((cluster.load_table("t", table), cluster), "t"),
        workload(
            [&] {
              WorkloadConfig wc;
              wc.selection = selection;
              wc.analytic = analytic;
              wc.subspace_cols = {0, 1};
              wc.target_col = 2;
              wc.target_col2 = 0;
              wc.num_hotspots = 3;
              wc.seed = seed + 1;
              wc.hotspot_anchors = sample_anchor_points(
                  table, wc.subspace_cols, 24, seed + 2);
              return wc;
            }(),
            table_bounds(table, std::vector<std::size_t>{0, 1})) {}
};

/// Minimal machine-readable benchmark log: a flat JSON array of records,
/// one per (benchmark, parameter point), written to e.g. BENCH_micro.json
/// so the perf trajectory is trackable across PRs without parsing the
/// human-oriented tables above.
class BenchJsonWriter {
 public:
  /// Record-format version stamped on every record. Bump when the shape
  /// of existing fields changes (consumers key parsers off this).
  /// v2: schema_version field added; string values JSON-escaped.
  static constexpr std::uint64_t kSchemaVersion = 2;

  /// Starts a new record; subsequent field calls attach to it. Every
  /// record carries the run environment that can change the numbers:
  /// the SEA_THREADS worker count (0 = serial) and the SEA_CHAOS_SEED
  /// override ("default" when unset) — so cross-PR diffs of BENCH_*.json
  /// never compare records produced under different settings unnoticed.
  void begin(const std::string& name) {
    records_.emplace_back();
    str("name", name);
    num("schema_version", kSchemaVersion);
    num("sea_threads",
        static_cast<std::uint64_t>(sea::configured_threads()));
    const char* chaos_seed = std::getenv("SEA_CHAOS_SEED");
    str("chaos_seed", chaos_seed ? chaos_seed : "default");
  }

  /// Escapes a string for embedding in a JSON document: quote, backslash,
  /// and control characters (the latter as \u00XX).
  static std::string json_escape(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  void str(const std::string& key, const std::string& value) {
    records_.back().emplace_back(key, "\"" + json_escape(value) + "\"");
  }

  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    records_.back().emplace_back(key, buf);
  }

  void num(const std::string& key, std::uint64_t value) {
    records_.back().emplace_back(key, std::to_string(value));
  }

  /// Writes the accumulated records as a JSON array. Returns false (after
  /// printing a warning) when the file cannot be opened.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::printf("warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fprintf(f, "  {");
      for (std::size_t i = 0; i < records_[r].size(); ++i)
        std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                     json_escape(records_[r][i].first).c_str(),
                     records_[r][i].second.c_str());
      std::fprintf(f, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

 private:
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// Where a harness should write its deterministic trace + metrics JSON:
/// `--trace-out=PATH` (or `--trace-out PATH`) on the command line, else the
/// SEA_TRACE environment variable, else "" (tracing disabled).
inline std::string trace_out_path(int argc, char** argv) {
  const std::string flag = "--trace-out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag && i + 1 < argc) return argv[i + 1];
  }
  if (const char* env = std::getenv("SEA_TRACE")) return env;
  return {};
}

/// Writes one JSON object {"trace": <trace_dump>, "metrics":
/// <metrics_snapshot>} to `path`. Both sub-documents are the deterministic
/// exporters from src/obs, so the file is bit-identical for a seeded run
/// at any SEA_THREADS setting. Returns false (after a warning) on I/O
/// failure.
inline bool write_trace_file(const std::string& path,
                             const obs::Tracer& tracer,
                             const obs::MetricsRegistry& metrics) {
  std::ofstream f(path);
  if (!f) {
    std::printf("warning: cannot write %s\n", path.c_str());
    return false;
  }
  f << "{\n\"trace\": ";
  tracer.dump_json(f);
  f << ",\n\"metrics\": ";
  metrics.snapshot_json(f);
  f << "}\n";
  std::printf("wrote %s (%zu spans, %zu metrics)\n", path.c_str(),
              tracer.spans().size(), metrics.size());
  return true;
}

/// Agent configuration used across experiments (tuned via the test suite).
inline AgentConfig default_agent_config() {
  AgentConfig cfg;
  cfg.min_samples_to_predict = 12;
  cfg.refit_interval = 8;
  cfg.max_relative_error = 0.3;
  cfg.create_distance = 0.06;
  return cfg;
}

}  // namespace sea::bench
