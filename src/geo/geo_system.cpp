#include "geo/geo_system.h"

#include <algorithm>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "fault/outage.h"

namespace sea {

namespace {
constexpr const char* kTable = "geo_data";
constexpr std::size_t kAnswerWireBytes = 16;
}  // namespace

// Completeness guard: GeoStats is 14 uint64 counters; sync_metrics() below
// must mirror every one. Adding a field changes the size and fails this
// assert until sync_metrics() covers the new field.
static_assert(sizeof(GeoStats) == 14 * 8,
              "GeoStats gained/lost a field: update sync_metrics() and "
              "this guard");

const char* to_string(EdgeMode m) noexcept {
  switch (m) {
    case EdgeMode::kForwardAll:
      return "forward_all";
    case EdgeMode::kEdgeLearning:
      return "edge_learning";
    case EdgeMode::kCoreTrainedSync:
      return "core_trained_sync";
    case EdgeMode::kEdgePeerRouting:
      return "edge_peer_routing";
  }
  return "?";
}

GeoSystem::GeoSystem(GeoConfig config, const Table& data)
    : config_(config) {
  if (config_.num_cores == 0 || config_.num_edges == 0)
    throw std::invalid_argument("GeoSystem: need cores and edges");
  // Zone 0 = the core datacenter; each edge sits in its own zone.
  std::vector<std::uint32_t> zones(config_.num_cores, 0);
  for (std::size_t e = 0; e < config_.num_edges; ++e)
    zones.push_back(static_cast<std::uint32_t>(1 + e));
  Network net(std::move(zones), config_.lan, config_.wan);
  cluster_ = std::make_unique<Cluster>(config_.num_cores, std::move(net),
                                       config_.bdas);
  cluster_->load_table(kTable, data, PartitionSpec{});
  exec_ = std::make_unique<ExactExecutor>(*cluster_, kTable, /*coord=*/0);

  const auto domain_provider = [this](const std::vector<std::size_t>& cols) {
    return exec_->domain(cols);
  };
  edge_agents_.reserve(config_.num_edges);
  for (std::size_t e = 0; e < config_.num_edges; ++e)
    edge_agents_.emplace_back(config_.agent, domain_provider);
  if (config_.mode == EdgeMode::kCoreTrainedSync)
    core_agent_.emplace(config_.agent, domain_provider);
  edge_seen_.assign(config_.num_edges, 0);
  edge_model_version_.assign(config_.num_edges, 0);
  registry_.resize(config_.num_edges);
  wan_breakers_.configure(config_.num_edges, config_.wan_breaker);
}

void GeoSystem::set_observability(obs::Tracer* tracer,
                                  obs::MetricsRegistry* metrics) {
  cluster_->set_observability(tracer, metrics);
  if (!metrics) {
    m_ = GeoMetrics{};
    return;
  }
  m_.queries = &metrics->counter("geo.queries");
  m_.served_at_edge = &metrics->counter("geo.served_at_edge");
  m_.served_by_peer = &metrics->counter("geo.served_by_peer");
  m_.peer_attempts = &metrics->counter("geo.peer_attempts");
  m_.forwarded = &metrics->counter("geo.forwarded");
  m_.syncs = &metrics->counter("geo.syncs");
  m_.sync_bytes = &metrics->counter("geo.sync_bytes");
  m_.registry_bytes = &metrics->counter("geo.registry_bytes");
  m_.degraded_at_edge = &metrics->counter("geo.degraded_at_edge");
  m_.unanswered = &metrics->counter("geo.unanswered");
  m_.heal_resyncs = &metrics->counter("geo.heal_resyncs");
  m_.wan_breaker_fast_fails =
      &metrics->counter("geo.wan_breaker_fast_fails");
  m_.stale_model_serves = &metrics->counter("geo.stale_model_serves");
  m_.edge_crash_resyncs = &metrics->counter("geo.edge_crash_resyncs");
  m_.wan_ms = &metrics->histogram(
      "geo.wan_ms", {50.0, 100.0, 200.0, 400.0, 800.0, 1600.0});
  // Count from the moment of attachment (same contract as the serving
  // layer's serve.* counters).
  mirrored_ = stats_;
}

void GeoSystem::sync_metrics() {
  if (!m_.queries) return;
  m_.queries->inc(stats_.queries - mirrored_.queries);
  m_.served_at_edge->inc(stats_.served_at_edge - mirrored_.served_at_edge);
  m_.served_by_peer->inc(stats_.served_by_peer - mirrored_.served_by_peer);
  m_.peer_attempts->inc(stats_.peer_attempts - mirrored_.peer_attempts);
  m_.forwarded->inc(stats_.forwarded - mirrored_.forwarded);
  m_.syncs->inc(stats_.syncs - mirrored_.syncs);
  m_.sync_bytes->inc(stats_.sync_bytes - mirrored_.sync_bytes);
  m_.registry_bytes->inc(stats_.registry_bytes - mirrored_.registry_bytes);
  m_.degraded_at_edge->inc(stats_.degraded_at_edge -
                           mirrored_.degraded_at_edge);
  m_.unanswered->inc(stats_.unanswered - mirrored_.unanswered);
  m_.heal_resyncs->inc(stats_.heal_resyncs - mirrored_.heal_resyncs);
  m_.wan_breaker_fast_fails->inc(stats_.wan_breaker_fast_fails -
                                 mirrored_.wan_breaker_fast_fails);
  m_.stale_model_serves->inc(stats_.stale_model_serves -
                             mirrored_.stale_model_serves);
  m_.edge_crash_resyncs->inc(stats_.edge_crash_resyncs -
                             mirrored_.edge_crash_resyncs);
  mirrored_ = stats_;
}

void GeoSystem::note_edge_model_answer(std::size_t edge, GeoAnswer& out) {
  if (config_.mode != EdgeMode::kCoreTrainedSync) return;
  if (edge_model_version_[edge] >= core_model_version_) return;
  out.stale_model = true;
  ++stats_.stale_model_serves;
}

void GeoSystem::maybe_refresh_registry() {
  if (config_.mode != EdgeMode::kEdgePeerRouting) return;
  ++since_registry_;
  if (since_registry_ < config_.registry_interval && stats_.queries > 1)
    return;
  if (wan_partitioned_) return;  // centroids cannot cross a severed WAN
  refresh_registry_now();
}

void GeoSystem::refresh_registry_now() {
  since_registry_ = 0;
  // Each edge publishes its quanta centroids per signature; the registry
  // is broadcast to all other edges (the RT5.2 "model state sharing").
  for (std::size_t e = 0; e < config_.num_edges; ++e) {
    registry_[e].clear();
    std::size_t bytes = 0;
    for (const auto& sig : known_signatures_) {
      // Only servable (warm) quanta are worth advertising: cold quanta
      // would attract detours their owner declines anyway.
      auto centers = edge_agents_[e].quanta_centers(
          sig, config_.agent.min_samples_to_predict);
      bytes += centers.size() *
               (centers.empty() ? 0 : centers[0].size()) * sizeof(double);
      registry_[e][sig] = std::move(centers);
    }
    // Publish to every other edge (edge zones differ => WAN).
    for (std::size_t other = 0; other < config_.num_edges; ++other) {
      if (other == e) continue;
      const double ms = cluster_->network().send(edge_node(e),
                                                 edge_node(other), bytes + 16);
      if (obs::Tracer* tr = tracer())
        tr->span_event("registry_publish", ms, "", bytes + 16,
                       static_cast<std::int64_t>(edge_node(other)));
      stats_.registry_bytes += bytes + 16;
    }
  }
}

std::size_t GeoSystem::route_peer(std::size_t edge,
                                  const AnalyticalQuery& query) {
  const std::string sig = query.signature();
  const Point pos = edge_agents_[edge].query_position(query);
  // The local agent already declined; a peer is only worth a WAN detour if
  // its model state covers the query region *substantially better* than
  // our own — otherwise it will almost surely decline too.
  double own_d = std::numeric_limits<double>::infinity();
  for (const auto& c : edge_agents_[edge].quanta_centers(sig)) {
    if (c.size() == pos.size())
      own_d = std::min(own_d, euclidean_distance(pos, c));
  }
  std::size_t best = SIZE_MAX;
  double best_d = config_.peer_route_distance;
  for (std::size_t e = 0; e < config_.num_edges; ++e) {
    if (e == edge) continue;
    const auto it = registry_[e].find(sig);
    if (it == registry_[e].end()) continue;
    for (const auto& c : it->second) {
      if (c.size() != pos.size()) continue;
      const double d = euclidean_distance(pos, c);
      if (d < best_d && d < 0.5 * own_d) {
        best_d = d;
        best = e;
      }
    }
  }
  return best;
}

double GeoSystem::oracle(const AnalyticalQuery& query) {
  // Snapshot-and-restore so audits do not pollute the traffic accounting.
  const ClusterStatsSnapshot saved = cluster_->snapshot_stats();
  const double answer =
      exec_->execute(query, config_.core_paradigm).answer;
  cluster_->restore_stats(saved);
  return answer;
}

void GeoSystem::set_wan_partitioned(bool partitioned) {
  if (partitioned == wan_partitioned_) return;
  wan_partitioned_ = partitioned;
  if (partitioned) return;
  // Heal: edges missed model/registry updates while cut off — ship the
  // current state immediately rather than waiting for the next interval.
  if (config_.mode == EdgeMode::kCoreTrainedSync) {
    ++stats_.heal_resyncs;
    sync_now();
  } else if (config_.mode == EdgeMode::kEdgePeerRouting) {
    ++stats_.heal_resyncs;
    refresh_registry_now();
  }
}

void GeoSystem::maybe_sync() {
  if (config_.mode != EdgeMode::kCoreTrainedSync) return;
  ++forwarded_since_sync_;
  if (forwarded_since_sync_ < config_.sync_interval) return;
  sync_now();
}

void GeoSystem::sync_now() {
  forwarded_since_sync_ = 0;
  ++stats_.syncs;
  // Serialize once: the wire bytes are the real serialized size, and the
  // shipped snapshot is reconstructed at each edge from those bytes.
  // Every ship — interval syncs and heal resyncs alike — bumps the edge's
  // model version to the core's, so post-heal edge answers are no longer
  // reported stale (they really do carry the current model).
  std::stringstream wire;
  core_agent_->serialize(wire);
  const std::string blob = wire.str();
  for (std::size_t e = 0; e < config_.num_edges; ++e)
    ship_model_to_edge(e, blob, "");
}

void GeoSystem::ship_model_to_edge(std::size_t edge, const std::string& blob,
                                   const char* tag) {
  // Model state crosses the WAN — this is the entire data movement of
  // the sync, versus shipping base data in a traditional design.
  const double ms =
      cluster_->network().send(0, edge_node(edge), blob.size());
  if (obs::Tracer* tr = tracer())
    tr->span_event("model_sync", ms, tag, blob.size(),
                   static_cast<std::int64_t>(edge_node(edge)));
  stats_.sync_bytes += blob.size();
  const auto domain_provider = [this](const std::vector<std::size_t>& cols) {
    return exec_->domain(cols);
  };
  std::stringstream in(blob);
  edge_agents_[edge] = DatalessAgent::deserialize(in, domain_provider);
  edge_model_version_[edge] = core_model_version_;
}

void GeoSystem::crash_edge(std::size_t edge) {
  if (edge >= config_.num_edges)
    throw std::out_of_range("GeoSystem::crash_edge: bad edge");
  // The edge's in-memory state is wiped (crash semantics match the fault
  // layer's NodeCrash): model, learned quanta, and its version claim.
  const auto domain_provider = [this](const std::vector<std::size_t>& cols) {
    return exec_->domain(cols);
  };
  edge_agents_[edge] = DatalessAgent(config_.agent, domain_provider);
  edge_model_version_[edge] = 0;
  if (obs::Tracer* tr = tracer())
    tr->event("edge_crash", "", static_cast<std::int64_t>(edge_node(edge)));
}

void GeoSystem::restart_edge(std::size_t edge) {
  if (edge >= config_.num_edges)
    throw std::out_of_range("GeoSystem::restart_edge: bad edge");
  if (wan_partitioned_) return;  // the heal's full resync covers it
  if (config_.mode == EdgeMode::kCoreTrainedSync) {
    ++stats_.edge_crash_resyncs;
    std::stringstream wire;
    core_agent_->serialize(wire);
    ship_model_to_edge(edge, wire.str(), "crash_resync");
  } else if (config_.mode == EdgeMode::kEdgePeerRouting) {
    // Nothing to ship (edges learn locally), but the restarted edge's
    // empty registry entry must not keep attracting peer detours.
    ++stats_.edge_crash_resyncs;
    refresh_registry_now();
  }
  sync_metrics();
}

GeoAnswer GeoSystem::submit(std::size_t edge, const AnalyticalQuery& query) {
  if (edge >= config_.num_edges)
    throw std::out_of_range("GeoSystem::submit: bad edge");
  obs::SpanScope root(tracer(), "geo_submit", static_cast<std::int64_t>(edge));
  const GeoAnswer out = submit_impl(edge, query);
  root.set_tag(!out.answered        ? "unanswered"
               : out.served_by_peer ? "peer"
               : out.degraded       ? "degraded"
               : out.served_at_edge ? "edge"
                                    : "forwarded");
  if (m_.wan_ms && out.wan_ms > 0.0) m_.wan_ms->observe(out.wan_ms);
  sync_metrics();
  return out;
}

GeoAnswer GeoSystem::submit_impl(std::size_t edge,
                                 const AnalyticalQuery& query) {
  GeoAnswer out;
  ++stats_.queries;
  ++edge_seen_[edge];
  {
    const std::string sig = query.signature();
    if (std::find(known_signatures_.begin(), known_signatures_.end(), sig) ==
        known_signatures_.end())
      known_signatures_.push_back(sig);
  }
  maybe_refresh_registry();

  const bool bootstrapped = edge_seen_[edge] > config_.edge_bootstrap;
  if (config_.mode != EdgeMode::kForwardAll && bootstrapped) {
    if (auto pred = edge_agents_[edge].try_predict(query)) {
      out.value = pred->value;
      out.served_at_edge = true;
      out.expected_abs_error = pred->expected_abs_error;
      note_edge_model_answer(edge, out);
      ++stats_.served_at_edge;
      return out;
    }
    // Local miss: try the best-covering peer edge before the core
    // (RT5.4 analytical query routing; edge <-> edge is WAN).
    if (config_.mode == EdgeMode::kEdgePeerRouting && !wan_partitioned_) {
      const std::size_t peer = route_peer(edge, query);
      if (peer != SIZE_MAX) {
        ++stats_.peer_attempts;
        const NodeId en = edge_node(edge);
        const NodeId pn = edge_node(peer);
        const double to_peer_ms =
            cluster_->network().send(en, pn, query_wire_bytes(query));
        out.wan_ms += to_peer_ms;
        if (obs::Tracer* tr = tracer())
          tr->span_event("wan_hop", to_peer_ms, "peer_query",
                         query_wire_bytes(query),
                         static_cast<std::int64_t>(pn));
        auto pred = edge_agents_[peer].try_predict(query);
        const double from_peer_ms =
            cluster_->network().send(pn, en, kAnswerWireBytes);
        out.wan_ms += from_peer_ms;
        if (obs::Tracer* tr = tracer())
          tr->span_event("wan_hop", from_peer_ms, "peer_answer",
                         kAnswerWireBytes, static_cast<std::int64_t>(en));
        if (pred) {
          out.value = pred->value;
          out.served_by_peer = true;
          out.expected_abs_error = pred->expected_abs_error;
          ++stats_.served_by_peer;
          return out;
        }
        // Peer declined too: the failed detour's WAN cost stays charged.
      }
    }
  }

  // Partition: the core is unreachable, so the edge serves its best local
  // model answer (confidence gate bypassed) or the query goes unanswered.
  if (wan_partitioned_) {
    if (auto pred = edge_agents_[edge].maybe_predict(query)) {
      out.value = pred->value;
      out.served_at_edge = true;
      out.degraded = true;
      out.expected_abs_error = pred->expected_abs_error;
      note_edge_model_answer(edge, out);
      ++stats_.degraded_at_edge;
    } else {
      out.answered = false;
      ++stats_.unanswered;
    }
    return out;
  }

  // The local fallback shared by every "core unreachable" case: WAN
  // partitioned, core-side outage, or this edge's WAN breaker open.
  const auto serve_degraded = [&]() {
    if (auto pred = edge_agents_[edge].maybe_predict(query)) {
      out.value = pred->value;
      out.served_at_edge = true;
      out.degraded = true;
      out.expected_abs_error = pred->expected_abs_error;
      note_edge_model_answer(edge, out);
      ++stats_.degraded_at_edge;
    } else {
      out.answered = false;
      ++stats_.unanswered;
    }
  };

  // WAN breaker: after consecutive core-side outages this edge stops
  // paying for doomed round trips until the modelled cooldown elapses.
  const NodeId breaker_key = static_cast<NodeId>(edge);
  if (!wan_breakers_.allow(breaker_key)) {
    ++stats_.wan_breaker_fast_fails;
    if (obs::Tracer* tr = tracer())
      tr->event("breaker_open", "wan", static_cast<std::int64_t>(edge));
    serve_degraded();
    return out;
  }

  // Forward to the core over the WAN; execute exactly; answer returns.
  const NodeId en = edge_node(edge);
  const double fwd_ms =
      cluster_->network().send(en, 0, query_wire_bytes(query));
  out.wan_ms += fwd_ms;
  wan_breakers_.advance(fwd_ms);
  if (obs::Tracer* tr = tracer())
    tr->span_event("wan_hop", fwd_ms, "forward", query_wire_bytes(query),
                   static_cast<std::int64_t>(en));
  ExactResult exact;
  try {
    exact = exec_->execute(query, config_.core_paradigm);
  } catch (const OutageError&) {
    // Core-side outage (replicas down, retries exhausted, deadline blown):
    // fall back to the edge model exactly as if the WAN were partitioned.
    wan_breakers_.record_failure(breaker_key);
    serve_degraded();
    return out;
  }
  wan_breakers_.record_success(breaker_key);
  const double back_ms = cluster_->network().send(0, en, kAnswerWireBytes);
  out.wan_ms += back_ms;
  wan_breakers_.advance(back_ms);
  if (obs::Tracer* tr = tracer())
    tr->span_event("wan_hop", back_ms, "answer", kAnswerWireBytes,
                   static_cast<std::int64_t>(en));
  out.value = exact.answer;
  ++stats_.forwarded;

  switch (config_.mode) {
    case EdgeMode::kForwardAll:
      break;
    case EdgeMode::kEdgeLearning:
    case EdgeMode::kEdgePeerRouting:
      edge_agents_[edge].observe(query, exact.answer);
      break;
    case EdgeMode::kCoreTrainedSync:
      core_agent_->observe(query, exact.answer);
      // Every absorbed truth advances the core's model version; edges
      // only catch up when a ship sets their version to the core's.
      ++core_model_version_;
      maybe_sync();
      break;
  }
  return out;
}

}  // namespace sea
