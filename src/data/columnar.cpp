#include "data/columnar.h"

#include <algorithm>

namespace sea {

namespace {

/// (distance_rank, row) order: nearer first, ties by row.
bool nearer(const NearRow& a, const NearRow& b) noexcept {
  const std::uint64_t ra = distance_rank(a.d2), rb = distance_rank(b.d2);
  return ra != rb ? ra < rb : a.row < b.row;
}

/// Replaces the top (farthest) entry of the max-heap `heap` with `v`.
void replace_top(std::span<NearRow> heap, NearRow v) noexcept {
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= heap.size()) break;
    if (c + 1 < heap.size() && nearer(heap[c], heap[c + 1])) ++c;
    if (!nearer(v, heap[c])) break;
    heap[i] = heap[c];
    i = c;
  }
  heap[i] = v;
}

}  // namespace

void nearest_rows(const Table& table, std::span<const std::size_t> cols,
                  std::span<const double> center, std::size_t k,
                  std::vector<NearRow>& out) {
  if (center.size() != cols.size())
    throw std::invalid_argument("nearest_rows: dims mismatch");
  out.clear();
  const std::size_t take = std::min(k, table.num_rows());
  if (take == 0) return;
  out.reserve(take);
  std::uint64_t worst = 0;  // rank of the heap's top once it is full
  visit_distances(table, cols, center,
                  [&](std::uint32_t first, std::span<const double> d2) {
    std::size_t i = 0;
    if (out.size() < take) {
      for (; i < d2.size() && out.size() < take; ++i)
        out.push_back({d2[i], first + static_cast<std::uint32_t>(i)});
      if (out.size() < take) return;
      std::make_heap(out.begin(), out.end(), nearer);
      worst = distance_rank(out.front().d2);
    }
    // Rows arrive ascending, so a row that ties the top's rank is farther
    // in (rank, row) order and never displaces it.
    for (; i < d2.size(); ++i) {
      if (distance_rank(d2[i]) >= worst) continue;
      replace_top(out, {d2[i], first + static_cast<std::uint32_t>(i)});
      worst = distance_rank(out.front().d2);
    }
  });
  std::sort_heap(out.begin(), out.end(), nearer);
}

}  // namespace sea
