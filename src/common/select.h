// Exact selection: select_nth(first, nth, last, less) leaves the range in
// the same permutation as GCC libstdc++'s std::nth_element, step for step,
// with a branch-free block partition in place of its Hoare loop.
//
// Why the same permutation: the k-d builder's slot order, and with it every
// tree, walk order and fused-aggregate bit, is whatever its median selects
// leave behind. Reproducing one published algorithm exactly keeps those
// stable, and stops them from depending on the host's standard library.
//
// The introselect skeleton is libstdc++'s: depth limit 2 * floor(lg n); the
// median of (first + 1, mid, last - 1) moved to `first`; an unguarded
// partition of [first + 1, last) around it; when the depth runs out, a heap
// select of [first, nth] and one swap; an insertion sort once at most three
// elements remain.
//
// The partition. libstdc++'s loop advances a left cursor past elements
// `less(e, pivot)`, a right cursor past elements `less(pivot, e)`, swaps the
// two stoppers, and repeats until the cursors cross. Until then both
// cursors only read the untouched window [i, j) between the last swap pair,
// so the k-th left stopper is swapped with the k-th right stopper, where
// both are counted on the original values. block_partition finds stoppers
// in blocks of kSelectBlock elements, BlockQuicksort-style (Edelkamp &
// Weiss, 2016): `buf[n] = p; n += stopper(p)`, no data-dependent branch.
// It then swaps queued pairs in order while left < right. A queued offset
// counts only while it lies in [i, j): once the left queue has none there,
// the left cursor would stop at j (the last right stopper, now holding a
// left stopper); once the right has none, the right cursor would stop at
// i - 1. Either way the cursors have crossed and the cut is the left stop.
// The pivot never moves during the partition, so comparing against a copy
// of it is equivalent.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <utility>

namespace sea {

namespace detail {

/// Elements per partition scan block.
inline constexpr std::ptrdiff_t kSelectBlock = 64;

/// Sifts `value` down from `hole` into the heap [first, first + len), then
/// back up no higher than the starting hole (libstdc++'s __adjust_heap).
template <typename It, typename T, typename Less>
void adjust_heap(It first, std::ptrdiff_t hole, std::ptrdiff_t len, T value,
                 Less& less) {
  const std::ptrdiff_t top = hole;
  std::ptrdiff_t child = hole;
  while (child < (len - 1) / 2) {
    child = 2 * (child + 1);
    if (less(first[child], first[child - 1])) --child;
    first[hole] = std::move(first[child]);
    hole = child;
  }
  if ((len & 1) == 0 && child == (len - 2) / 2) {
    child = 2 * (child + 1);
    first[hole] = std::move(first[child - 1]);
    hole = child - 1;
  }
  std::ptrdiff_t parent = (hole - 1) / 2;
  while (hole > top && less(first[parent], value)) {
    first[hole] = std::move(first[parent]);
    hole = parent;
    parent = (hole - 1) / 2;
  }
  first[hole] = std::move(value);
}

/// [first, middle) := the (middle - first) smallest elements as a max-heap
/// (libstdc++'s __heap_select).
template <typename It, typename Less>
void heap_select(It first, It middle, It last, Less& less) {
  const std::ptrdiff_t len = middle - first;
  if (len >= 2) {
    for (std::ptrdiff_t parent = (len - 2) / 2;; --parent) {
      auto value = std::move(first[parent]);
      adjust_heap(first, parent, len, std::move(value), less);
      if (parent == 0) break;
    }
  }
  for (It i = middle; i < last; ++i) {
    if (!less(*i, *first)) continue;
    auto value = std::move(*i);
    *i = std::move(*first);
    adjust_heap(first, 0, len, std::move(value), less);
  }
}

/// libstdc++'s __insertion_sort.
template <typename It, typename Less>
void insertion_sort(It first, It last, Less& less) {
  if (first == last) return;
  for (It i = first + 1; i != last; ++i) {
    auto value = std::move(*i);
    if (less(value, *first)) {
      std::move_backward(first, i, i + 1);
      *first = std::move(value);
    } else {
      It hole = i;
      for (It next = i - 1; less(value, *next); --next) {
        *hole = std::move(*next);
        hole = next;
      }
      *hole = std::move(value);
    }
  }
}

/// Swaps the median of *a, *b, *c into *result (libstdc++'s
/// __move_median_to_first).
template <typename It, typename Less>
void move_median_to_first(It result, It a, It b, It c, Less& less) {
  if (less(*a, *b)) {
    if (less(*b, *c))
      std::iter_swap(result, b);
    else if (less(*a, *c))
      std::iter_swap(result, c);
    else
      std::iter_swap(result, a);
  } else if (less(*a, *c)) {
    std::iter_swap(result, a);
  } else if (less(*b, *c)) {
    std::iter_swap(result, c);
  } else {
    std::iter_swap(result, b);
  }
}

/// Partitions [first + 1, last) around the pivot *first with exactly the
/// swaps of libstdc++'s __unguarded_partition(first + 1, last, first), and
/// returns the same cut (see the file comment).
template <typename It, typename Less>
It block_partition(It first, It last, Less& less) {
  using Diff = std::ptrdiff_t;
  const auto pivot = *first;
  Diff i = 1;                  // untouched window [i, j)
  Diff j = last - first;
  Diff left_scan = i;          // left stoppers are queued below this
  Diff right_scan = j;         // right stoppers are queued at or above this
  std::array<Diff, kSelectBlock> lq, rq;
  Diff lh = 0, ln = 0, rh = 0, rn = 0;  // queue heads and ends
  for (;;) {
    while (lh == ln && left_scan < j) {
      const Diff end = std::min(left_scan + kSelectBlock, j);
      lh = ln = 0;
      for (Diff p = left_scan; p < end; ++p) {
        lq[ln] = p;
        ln += static_cast<Diff>(!less(first[p], pivot));
      }
      left_scan = end;
    }
    if (lh == ln) return first + j;
    while (rh == rn && right_scan > i) {
      const Diff begin = std::max(right_scan - kSelectBlock, i);
      rh = rn = 0;
      for (Diff p = right_scan; p-- > begin;) {
        rq[rn] = p;
        rn += static_cast<Diff>(!less(pivot, first[p]));
      }
      right_scan = begin;
    }
    if (rh == rn) return first + std::min(lq[lh], j);
    const Diff pairs = std::min(ln - lh, rn - rh);
    for (Diff k = 0; k < pairs; ++k) {
      const Diff l = lq[lh + k];
      const Diff r = rq[rh + k];
      if (l >= r) return first + std::min(l, j);
      std::iter_swap(first + l, first + r);
      i = l + 1;
      j = r;
    }
    lh += pairs;
    rh += pairs;
  }
}

}  // namespace detail

/// Rearranges [first, last) so that *nth is the element a sort by `less`
/// would put there, nothing after it is less than it and nothing before it
/// greater — in exactly the permutation GCC libstdc++'s std::nth_element
/// produces (see the file comment). `less` must be a pure predicate.
template <typename It, typename Less>
void select_nth(It first, It nth, It last, Less less) {
  if (first == last || nth == last) return;
  std::ptrdiff_t depth =
      2 * (std::bit_width(static_cast<std::size_t>(last - first)) - 1);
  while (last - first > 3) {
    if (depth == 0) {
      detail::heap_select(first, nth + 1, last, less);
      std::iter_swap(first, nth);
      return;
    }
    --depth;
    detail::move_median_to_first(first, first + 1,
                                 first + (last - first) / 2, last - 1, less);
    const It cut = detail::block_partition(first, last, less);
    if (cut <= nth)
      first = cut;
    else
      last = cut;
  }
  detail::insertion_sort(first, last, less);
}

}  // namespace sea
