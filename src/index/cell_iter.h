// Cross-product iterator over per-dimension cell-coordinate ranges: the
// order in which GridIndex visits the rectangular block of cells a query
// box covers, under either cell placement (the placement only maps values
// to coordinates). GridIndex's visitors are templates, so it lives in a
// header of its own.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sea::detail {

/// Iterates the cross product of [lo[d], hi[d]] coordinate ranges in
/// row-major order (last dimension fastest). Done immediately when any
/// range is inverted.
class CoordIterator {
 public:
  CoordIterator(std::vector<std::size_t> lo, std::vector<std::size_t> hi)
      : lo_(std::move(lo)), hi_(std::move(hi)), cur_(lo_), done_(false) {
    for (std::size_t d = 0; d < lo_.size(); ++d)
      if (lo_[d] > hi_[d]) done_ = true;
  }

  bool done() const noexcept { return done_; }
  const std::vector<std::size_t>& coords() const noexcept { return cur_; }

  void advance() noexcept {
    for (std::size_t d = cur_.size(); d-- > 0;) {
      if (cur_[d] < hi_[d]) {
        ++cur_[d];
        for (std::size_t j = d + 1; j < cur_.size(); ++j) cur_[j] = lo_[j];
        return;
      }
    }
    done_ = true;
  }

 private:
  std::vector<std::size_t> lo_, hi_, cur_;
  bool done_;
};

}  // namespace sea::detail
