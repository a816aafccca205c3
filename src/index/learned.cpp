#include "index/learned.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/parallel.h"
#include "common/primitives.h"
#include "index/cell_iter.h"

namespace sea {

namespace {

/// Least-squares fit of *run-first* position on key over
/// sorted_keys[begin, end), slope clamped to >= 0 so the model is
/// monotone — the property the window-soundness argument in
/// RmiModel::fit rests on. lower_bound answers always land on the first
/// slot of a duplicate run, so that is the position worth predicting: a
/// constant array collapses to err 0 instead of ballooning to n/2.
/// Degenerate inputs (empty range, constant keys, non-finite moments)
/// collapse to the flat model slope=0, intercept=first position.
std::pair<double, double> fit_monotone_line(std::span<const double> keys,
                                            std::size_t begin,
                                            std::size_t end) {
  const std::size_t m = end - begin;
  if (m == 0) return {0.0, static_cast<double>(begin)};
  double sum_k = 0.0, sum_i = 0.0, sum_kk = 0.0, sum_ki = 0.0;
  std::size_t run_first = begin;
  for (std::size_t i = begin; i < end; ++i) {
    if (keys[i] != keys[run_first]) run_first = i;
    const double k = keys[i];
    const double p = static_cast<double>(run_first);
    sum_k += k;
    sum_i += p;
    sum_kk += k * k;
    sum_ki += k * p;
  }
  const double dn = static_cast<double>(m);
  const double var = sum_kk - sum_k * sum_k / dn;
  double slope = 0.0;
  if (var > 0.0 && std::isfinite(var)) slope = (sum_ki - sum_k * sum_i / dn) / var;
  if (!(slope > 0.0)) slope = 0.0;  // monotone; also catches NaN
  const double intercept = (sum_i - slope * sum_k) / dn;
  return {slope, std::isfinite(intercept) ? intercept
                                          : static_cast<double>(begin)};
}

/// Integer prediction of `line` at `key`, clamped into [lo, hi]. The same
/// formula runs at build time (error accounting) and at query time
/// (window placement), so the advertised bound is exactly the one probed.
std::size_t predict_clamped(double slope, double intercept, double key,
                            std::size_t lo, std::size_t hi) noexcept {
  const double p = slope * key + intercept;
  if (!(p > static_cast<double>(lo))) return lo;  // also catches NaN
  if (p >= static_cast<double>(hi)) return hi;
  return static_cast<std::size_t>(std::llround(p)) > hi
             ? hi
             : std::max(lo, static_cast<std::size_t>(std::llround(p)));
}

std::size_t abs_diff(std::size_t a, std::size_t b) noexcept {
  return a > b ? a - b : b - a;
}

}  // namespace

// ---------------------------------------------------------------------------
// RmiModel
// ---------------------------------------------------------------------------

void RmiModel::fit(std::span<const double> sorted_keys,
                   std::size_t leaf_target) {
  const std::size_t n = sorted_keys.size();
  n_ = n;
  segments_.clear();
  max_err_ = 0;
  if (leaf_target == 0) leaf_target = 128;
  const std::size_t num_segs = std::clamp<std::size_t>(
      n / std::max<std::size_t>(1, leaf_target), 1, std::size_t{1} << 16);
  if (n == 0) {
    router_slope_ = 0.0;
    router_intercept_ = 0.0;
    segments_.push_back(RmiSegment{});
    return;
  }

  // Stage 1: one monotone line over the whole array routes a key to its
  // leaf segment. Fitted with the blocked pairwise-tree reduction so the
  // moments — and with them every downstream parameter — are bit-identical
  // at any SEA_THREADS.
  struct Moments {
    double k = 0.0, i = 0.0, kk = 0.0, ki = 0.0;
  };
  const Moments mo = par::blocked_reduce(
      n, Moments{},
      [&](std::size_t begin, std::size_t end) {
        Moments m;
        for (std::size_t i = begin; i < end; ++i) {
          const double k = sorted_keys[i];
          const double p = static_cast<double>(i);
          m.k += k;
          m.i += p;
          m.kk += k * k;
          m.ki += k * p;
        }
        return m;
      },
      [](const Moments& a, const Moments& b) {
        return Moments{a.k + b.k, a.i + b.i, a.kk + b.kk, a.ki + b.ki};
      });
  const double dn = static_cast<double>(n);
  const double var = mo.kk - mo.k * mo.k / dn;
  router_slope_ = 0.0;
  if (var > 0.0 && std::isfinite(var))
    router_slope_ = (mo.ki - mo.k * mo.i / dn) / var;
  if (!(router_slope_ > 0.0)) router_slope_ = 0.0;
  router_intercept_ = (mo.i - router_slope_ * mo.k) / dn;
  if (!std::isfinite(router_intercept_)) router_intercept_ = 0.0;

  // Segment boundaries: route() is monotone in the key and keys are
  // sorted, so segment ids are non-decreasing along the array and each
  // boundary is a partition point — computable independently per segment.
  segments_.assign(num_segs, RmiSegment{});
  std::vector<std::uint32_t> bounds(num_segs + 1, 0);
  bounds[num_segs] = static_cast<std::uint32_t>(n);
  ParallelFor(num_segs, [&](std::size_t s) {
    if (s == 0) return;  // bounds[0] = 0
    const auto it = std::partition_point(
        sorted_keys.begin(), sorted_keys.end(),
        [&](double k) { return route(k) < s; });
    bounds[s] = static_cast<std::uint32_t>(it - sorted_keys.begin());
  });

  // Stage 2: per-segment monotone line + error bound. Equal keys always
  // route to the same segment, so duplicate runs never span a boundary
  // and the per-run positions the bound must cover are all local. err
  // covers (a) the run-first position of every run — the lower_bound
  // answer for any present key — and (b) for every run except the
  // segment's last, the run-last position: an unseen key falling between
  // two runs lands at run-last + 1, and its own prediction can sit as
  // low as the left run's. Together with the monotone prediction this
  // makes [pred - err, pred + err + 1] clipped to the segment a sound
  // lower_bound window for any query key whose value lies within the
  // segment's key range; keys outside that range are resolved by the
  // caller's O(1) boundary comparisons (see
  // LearnedScoreIndex::ranks_for_key) — the exactness-by-construction
  // contract. A segment holding one giant duplicate run therefore
  // advertises err 0, not half its length.
  ParallelFor(num_segs, [&](std::size_t s) {
    RmiSegment& seg = segments_[s];
    seg.begin = bounds[s];
    seg.end = bounds[s + 1];
    const auto [slope, intercept] =
        fit_monotone_line(sorted_keys, seg.begin, seg.end);
    seg.slope = slope;
    seg.intercept = intercept;
    std::size_t err = 0;
    std::size_t run_first = seg.begin;
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      if (sorted_keys[i] != sorted_keys[run_first]) run_first = i;
      const bool run_end =
          i + 1 == seg.end || sorted_keys[i + 1] != sorted_keys[i];
      if (!run_end) continue;
      const std::size_t pred = predict_clamped(slope, intercept,
                                               sorted_keys[i], seg.begin,
                                               seg.end);
      err = std::max(err, abs_diff(pred, run_first));
      if (i + 1 < seg.end && i > pred) err = std::max(err, i - pred);
    }
    seg.err = static_cast<std::uint32_t>(
        std::min<std::size_t>(err, UINT32_MAX));
  });
  for (const RmiSegment& s : segments_) max_err_ = std::max(max_err_, s.err);
}

std::size_t RmiModel::route(double key) const noexcept {
  if (n_ == 0 || segments_.size() <= 1) return 0;
  const double pos = router_slope_ * key + router_intercept_;
  const double scaled =
      pos * static_cast<double>(segments_.size()) / static_cast<double>(n_);
  if (!(scaled > 0.0)) return 0;
  const auto s = static_cast<std::size_t>(scaled);
  return std::min(s, segments_.size() - 1);
}

RmiModel::Window RmiModel::locate(double key) const noexcept {
  Window w;
  if (n_ == 0) return w;
  w.seg = static_cast<std::uint32_t>(route(key));
  const RmiSegment& seg = segments_[w.seg];
  w.pred = predict_clamped(seg.slope, seg.intercept, key, seg.begin, seg.end);
  const std::size_t err = seg.err;
  w.lo = std::max<std::size_t>(seg.begin, w.pred > err ? w.pred - err : 0);
  w.hi = std::min<std::size_t>(seg.end, w.pred + err + 1);
  return w;
}

// ---------------------------------------------------------------------------
// LearnedScoreIndex
// ---------------------------------------------------------------------------

LearnedScoreIndex::LearnedScoreIndex(const Table& table, std::size_t key_col,
                                     std::size_t score_col,
                                     std::size_t payload_col)
    : by_rank_(build_rank_order(table, key_col, score_col, payload_col)) {
  const std::size_t n = by_rank_.size();
  // Key-sorted permutation of the rank order: (key asc, rank asc) is a
  // strict total order, so the deterministic sample sort gives the same
  // array at any SEA_THREADS — and within one key the ranks come out
  // ascending, exactly the order ScoreIndex's hash map accumulates.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> kv(n);
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      kv[i] = {by_rank_[i].key, static_cast<std::uint32_t>(i)};
  });
  par::sample_sort(std::span<std::pair<std::uint64_t, std::uint32_t>>(kv));
  keys_.resize(n);
  ranks_.resize(n);
  std::vector<double> keyd(n);
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      keys_[i] = kv[i].first;
      ranks_[i] = kv[i].second;
      keyd[i] = static_cast<double>(kv[i].first);
    }
  });
  rmi_.fit(keyd);
}

const ScoredTuple& LearnedScoreIndex::by_rank(std::size_t rank) const {
  if (rank >= by_rank_.size())
    throw std::out_of_range("LearnedScoreIndex::by_rank");
  return by_rank_[rank];
}

std::span<const std::uint32_t> LearnedScoreIndex::ranks_for_key(
    std::uint64_t key, RmiProbeCost* cost) const {
  if (keys_.empty()) return {};
  const RmiModel::Window w = rmi_.locate(static_cast<double>(key));
  const RmiSegment& seg = rmi_.segment(w.seg);
  if (cost) {
    ++cost->lookups;
    cost->advertised_error = std::max<std::uint64_t>(
        cost->advertised_error, seg.err + std::uint64_t{1});
  }
  // O(1) boundary guards: routing is monotone, so a key outside this
  // segment's key range is absent from the whole array (every occurrence
  // would have routed here). This is what lets a duplicate-heavy segment
  // advertise a tiny err — the window never has to reach the insertion
  // point of out-of-range misses.
  if (seg.begin == seg.end || key < keys_[seg.begin] ||
      key > keys_[seg.end - 1])
    return {};
  // Last mile: exact binary search inside the bounded window, with u64
  // comparisons so the result is exact even where the double cast of the
  // key is lossy. A run of u64 keys sharing one double can outgrow the
  // window at the segment's tail (the one run err does not cover past
  // its first slot); landing on the window's upper edge extends the
  // search to the segment end — rare, and still inside one segment.
  const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(w.lo);
  auto last = keys_.begin() + static_cast<std::ptrdiff_t>(w.hi);
  auto pos = std::lower_bound(first, last, key);
  std::size_t slots = w.hi - w.lo;
  if (pos == last && w.hi < seg.end) {
    last = keys_.begin() + static_cast<std::ptrdiff_t>(seg.end);
    pos = std::lower_bound(pos, last, key);
    slots += seg.end - w.hi;
  }
  const auto found = static_cast<std::size_t>(pos - keys_.begin());
  if (cost) {
    cost->window_slots += slots;
    cost->observed_error =
        std::max<std::uint64_t>(cost->observed_error, abs_diff(found, w.pred));
  }
  if (found == static_cast<std::size_t>(last - keys_.begin()) ||
      keys_[found] != key)
    return {};
  // Equal keys never span a segment boundary, so the full duplicate run
  // lies in [pos, seg.end) even when it outruns the window.
  const auto run_end = std::upper_bound(
      pos, keys_.begin() + static_cast<std::ptrdiff_t>(seg.end), key);
  return std::span<const std::uint32_t>(
      ranks_.data() + found, static_cast<std::size_t>(run_end - pos));
}

double LearnedScoreIndex::best_score_for_key(std::uint64_t key,
                                             RmiProbeCost* cost) const {
  const auto ranks = ranks_for_key(key, cost);
  if (ranks.empty()) return -std::numeric_limits<double>::infinity();
  return by_rank_[ranks.front()].score;
}

// ---------------------------------------------------------------------------
// LearnedCdf
// ---------------------------------------------------------------------------

LearnedCdf::LearnedCdf(std::span<const double> values, std::size_t knots) {
  const std::size_t n = values.size();
  if (n == 0 || knots == 0) return;
  // Deterministic stride sample (no RNG — same fixed-stride idiom as
  // sample_sort's pivots), sorted serially: the sample is small, and the
  // knots are a pure function of the input regardless of SEA_THREADS.
  // NaN values are left out of the sample: they have no rank, and sorting
  // them is undefined. operator() maps NaN to 0.
  const std::size_t cap = std::max<std::size_t>(knots * 8, 64);
  std::vector<double> sample(std::min(n, cap));
  for (std::size_t i = 0; i < sample.size(); ++i)
    sample[i] =
        values[sample.size() == 1 ? 0 : i * (n - 1) / (sample.size() - 1)];
  std::erase_if(sample, [](double v) { return std::isnan(v); });
  const std::size_t s = sample.size();
  if (s == 0) return;
  std::sort(sample.begin(), sample.end());
  const std::size_t k = std::min(knots, s > 1 ? s - 1 : std::size_t{1});
  knots_.resize(k + 1);
  for (std::size_t j = 0; j <= k; ++j)
    knots_[j] = sample[s == 1 ? 0 : j * (s - 1) / k];
}

double LearnedCdf::operator()(double v) const noexcept {
  if (knots_.size() < 2) return 0.0;
  if (!(v > knots_.front())) return 0.0;
  if (v >= knots_.back()) return 1.0;
  const std::size_t k = knots_.size() - 1;
  const auto it = std::upper_bound(knots_.begin(), knots_.end(), v);
  const auto j = static_cast<std::size_t>(it - knots_.begin()) - 1;
  // knots_[j] <= v < knots_[j+1] and the bracket is strict, so the
  // interpolation denominator is positive; the map stays monotone across
  // duplicate knots (mass jumps, as a CDF should).
  const double t = (v - knots_[j]) / (knots_[j + 1] - knots_[j]);
  return (static_cast<double>(j) + t) / static_cast<double>(k);
}

double LearnedCdf::inverse(double u) const noexcept {
  if (knots_.empty()) return 0.0;
  if (knots_.size() < 2) return knots_.front();
  const std::size_t k = knots_.size() - 1;
  const double x = std::clamp(u, 0.0, 1.0) * static_cast<double>(k);
  const auto j = std::min(static_cast<std::size_t>(x), k - 1);
  const double t = x - static_cast<double>(j);
  return knots_[j] + t * (knots_[j + 1] - knots_[j]);
}

// ---------------------------------------------------------------------------
// LearnedGrid
// ---------------------------------------------------------------------------

LearnedGrid::LearnedGrid(std::vector<Point> points, Rect domain,
                         std::size_t cells_per_dim,
                         std::vector<std::uint64_t> ids)
    : points_(std::move(points)),
      ids_(std::move(ids)),
      domain_(std::move(domain)),
      cells_per_dim_(cells_per_dim) {
  if (!domain_.valid() || domain_.dims() == 0)
    throw std::invalid_argument("LearnedGrid: invalid domain");
  if (cells_per_dim_ == 0)
    throw std::invalid_argument("LearnedGrid: cells_per_dim must be > 0");
  double total = 1.0;
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    total *= static_cast<double>(cells_per_dim_);
    if (total > 1e8)
      throw std::invalid_argument("LearnedGrid: too many cells; reduce "
                                  "cells_per_dim or dimensionality");
  }
  if (ids_.empty()) {
    ids_.resize(points_.size());
    std::iota(ids_.begin(), ids_.end(), 0);
  }
  if (ids_.size() != points_.size())
    throw std::invalid_argument("LearnedGrid: ids/points size mismatch");
  const std::size_t n = points_.size();
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (points_[i].size() != domain_.dims())
        throw std::invalid_argument(
            "LearnedGrid: point dimensionality mismatch");
  });

  // Learn one CDF per dimension from the data itself (not the domain):
  // cell boundaries land at equal learned mass, so skewed blobs spread
  // over many cells and empty space collapses into few.
  cdfs_.resize(domain_.dims());
  std::vector<double> col(n);
  for (std::size_t d = 0; d < domain_.dims(); ++d) {
    ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) col[i] = points_[i][d];
    });
    cdfs_[d] = LearnedCdf(col, std::min<std::size_t>(64, cells_per_dim_ * 4));
  }

  // CSR cell table via the stable parallel counting sort, exactly like
  // GridIndex — bit-identical at any SEA_THREADS.
  std::vector<std::uint32_t> cell_idx(n);
  ParallelChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      cell_idx[i] = static_cast<std::uint32_t>(cell_of(points_[i]));
  });
  par::CountingSort cs =
      par::counting_sort(cell_idx, static_cast<std::size_t>(total));
  cell_offsets_ = std::move(cs.offsets);
  cell_points_ = std::move(cs.order);
}

std::size_t LearnedGrid::cell_coord(double v, std::size_t dim) const noexcept {
  // The CDF maps NaN to 0; a NaN from its interpolation (infinite knots)
  // lands in cell 0 too, with no out-of-range conversion.
  const double x = cdfs_[dim](v) * static_cast<double>(cells_per_dim_);
  if (!(x >= 1.0)) return 0;
  if (x >= static_cast<double>(cells_per_dim_)) return cells_per_dim_ - 1;
  return static_cast<std::size_t>(x);
}

std::size_t LearnedGrid::cell_of(std::span<const double> p) const noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < domain_.dims(); ++d)
    idx = idx * cells_per_dim_ + cell_coord(p[d], d);
  return idx;
}

namespace {

std::size_t flatten_coords(std::span<const std::size_t> coords,
                           std::size_t cells_per_dim) noexcept {
  std::size_t idx = 0;
  for (std::size_t d = 0; d < coords.size(); ++d)
    idx = idx * cells_per_dim + coords[d];
  return idx;
}

}  // namespace

std::vector<std::uint64_t> LearnedGrid::range_query(
    const Rect& rect, GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (rect.dims() != dims())
    throw std::invalid_argument("LearnedGrid::range_query: dims");
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(rect.lo[d], d);
    hi[d] = cell_coord(rect.hi[d], d);
  }
  for (detail::CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten_coords(it.coords(), cells_per_dim_));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      if (rect.contains(points_[i])) out.push_back(ids_[i]);
    }
  }
  return out;
}

std::vector<std::uint64_t> LearnedGrid::radius_query(
    const Ball& ball, GridQueryCost* cost) const {
  std::vector<std::uint64_t> out;
  if (points_.empty()) return out;
  if (ball.dims() != dims())
    throw std::invalid_argument("LearnedGrid::radius_query: dims");
  for (const auto& cand : radius_candidates(ball, cost))
    out.push_back(cand.second);
  return out;
}

std::vector<std::pair<double, std::uint64_t>> LearnedGrid::radius_candidates(
    const Ball& ball, GridQueryCost* cost) const {
  std::vector<std::pair<double, std::uint64_t>> out;
  const Rect box = ball.bounding_box();
  const double r2 = ball.radius * ball.radius;
  std::vector<std::size_t> lo(dims()), hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    lo[d] = cell_coord(box.lo[d], d);
    hi[d] = cell_coord(box.hi[d], d);
  }
  for (detail::CoordIterator it(lo, hi); !it.done(); it.advance()) {
    const auto cell_pts = cell(flatten_coords(it.coords(), cells_per_dim_));
    if (cost) ++cost->cells_visited;
    for (const std::uint32_t i : cell_pts) {
      if (cost) ++cost->points_examined;
      const double d2 = squared_distance(ball.center, points_[i]);
      if (d2 <= r2) out.emplace_back(d2, ids_[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, double>> LearnedGrid::knn(
    std::span<const double> query, std::size_t k, GridQueryCost* cost) const {
  std::vector<std::pair<std::uint64_t, double>> result;
  if (points_.empty() || k == 0) return result;
  if (query.size() != dims())
    throw std::invalid_argument("LearnedGrid::knn: dims");

  // Initial radius ~ the learned width of the query's own cell (the
  // inverse CDF stretches where data is sparse and shrinks where it is
  // dense — the adaptive-placement payoff).
  double cell_width = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const std::size_t c = cell_coord(query[d], d);
    const double w =
        cdfs_[d].inverse(static_cast<double>(c + 1) /
                         static_cast<double>(cells_per_dim_)) -
        cdfs_[d].inverse(static_cast<double>(c) /
                         static_cast<double>(cells_per_dim_));
    cell_width = std::max(cell_width, w);
  }
  double radius = std::max(cell_width, 1e-9);
  // A ball of max_radius around the query covers the whole domain (even
  // when the query sits far outside it); the final fallback below covers
  // clamped outlier points the domain box never contained.
  double far2 = 0.0;
  for (std::size_t d = 0; d < dims(); ++d) {
    const double w = std::max(std::abs(query[d] - domain_.lo[d]),
                              std::abs(query[d] - domain_.hi[d]));
    far2 += w * w;
  }
  const double max_radius = std::sqrt(far2) + std::max(cell_width, 1e-9);

  for (;;) {
    const Ball ball{Point(query.begin(), query.end()), radius};
    auto ranked = radius_candidates(ball, cost);
    const bool exhausted = radius >= max_radius;
    if (ranked.size() >= k || exhausted) {
      if (exhausted && ranked.size() < k) {
        // Degenerate coverage (k > points in the whole domain ball, or
        // outliers clamped into border cells): exact fallback over every
        // point, so the result matches the tree's.
        ranked.clear();
        ranked.reserve(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i)
          ranked.emplace_back(squared_distance(query, points_[i]), ids_[i]);
        if (cost) cost->points_examined += points_.size();
      }
      const std::size_t take = std::min(k, ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<std::ptrdiff_t>(take),
                        ranked.end());
      result.reserve(take);
      for (std::size_t i = 0; i < take; ++i)
        result.emplace_back(ranked[i].second, std::sqrt(ranked[i].first));
      return result;
    }
    radius *= 2.0;
  }
}

// ---------------------------------------------------------------------------
// Modelled costs
// ---------------------------------------------------------------------------

namespace {
// Coarse per-row constants in the modelled-ms currency (hardware-free, the
// same family of numbers as the cluster cost model): comparisons for tree
// descent, straight scans for grids, model evaluation for the learned
// tier. Priors only — the E6 selector's online GBMs correct them from
// observed cost, which is how the planner learns when *not* to use the
// learned tier (e.g. tiny tables where build amortization never pays).
constexpr double kMsPerCompare = 2e-6;
constexpr double kMsPerRowScan = 5e-7;
constexpr double kMsPerModelEval = 1e-6;
}  // namespace

IndexCostEstimate modelled_kdtree_cost(std::size_t rows, std::size_t dims,
                                       double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  const double logn = std::log2(n + 1.0);
  e.build_ms = kMsPerCompare * n * logn;
  e.lookup_ms = kMsPerCompare * logn + kMsPerRowScan * est_selectivity * n;
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 48.0);
  return e;
}

IndexCostEstimate modelled_grid_cost(std::size_t rows, std::size_t dims,
                                     double est_selectivity) noexcept {
  IndexCostEstimate e;
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  e.build_ms = kMsPerRowScan * 2.0 * n;
  // A uniform grid over-scans by the cell slop around the query box; the
  // slop grows with dimensionality (border cells per face).
  const double slop = 1.0 + 0.5 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerCompare * static_cast<double>(dims);
  e.memory_bytes = n * (static_cast<double>(dims) * 8.0 + 12.0);
  return e;
}

IndexCostEstimate modelled_learned_grid_cost(
    std::size_t rows, std::size_t dims, double est_selectivity) noexcept {
  IndexCostEstimate e = modelled_grid_cost(rows, dims, est_selectivity);
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  // CDF learning adds a per-row pass at build; balanced cells cut the
  // per-query scan slop but each coordinate costs a model evaluation.
  e.build_ms += kMsPerRowScan * n;
  const double slop = 1.0 + 0.25 * static_cast<double>(dims);
  e.lookup_ms = kMsPerRowScan * slop * est_selectivity * n +
                kMsPerModelEval * 2.0 * static_cast<double>(dims);
  e.memory_bytes += 65.0 * 8.0 * static_cast<double>(dims);
  return e;
}

}  // namespace sea
