// Forward cursor over one sorted column, answering a stream of
// binary-search queries.
//
// Every replay pass asks the same question of a sorted column once per
// event: which session, slot or blocked window is the first one at or
// after instant t? The events arrive in time order, so the answer only
// moves forward, and a cursor that remembers the previous answer finds
// the next one by scanning on from it: O(n + q) for q queries over n
// entries instead of O(q log n).
//
// Contract (DESIGN.md §3.1): seek(t) returns exactly what the binary
// search returns, on every input.
//   - While the keys are sorted and t does not decrease, the cursor
//     scans forward from its previous answer.
//   - A t below the previous query re-seeks with the binary search.
//   - Keys that are not sorted (a trace validate() rejects) take the
//     binary search on every query, so such input costs what the plain
//     binary search costs, plus one is_sorted pass at construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>

#include "common/time.hpp"

namespace netmaster {

/// Which binary search a SortedCursor answers.
enum class Seek {
  kFirstAtOrAfter,  ///< std::lower_bound: first key >= t
  kFirstAfter,      ///< std::upper_bound: first key > t
};

/// Cursor over `items`, ordered by the TimeMs `Key{}(item)`. The span
/// must outlive the cursor.
template <class T, Seek kSeek, class Key = std::identity>
class SortedCursor {
 public:
  explicit SortedCursor(std::span<const T> items)
      : items_(items),
        sorted_(std::is_sorted(items.begin(), items.end(),
                               [](const T& a, const T& b) {
                                 return Key{}(a) < Key{}(b);
                               })) {}

  /// Index of the first item whose key is >= t (kFirstAtOrAfter) or
  /// > t (kFirstAfter); items().size() when there is none.
  std::size_t seek(TimeMs t) {
    if (!sorted_ || t < last_) {
      next_ = static_cast<std::size_t>(
          std::lower_bound(items_.begin(), items_.end(), t,
                           [](const T& item, TimeMs v) {
                             return before(item, v);
                           }) -
          items_.begin());
    } else {
      while (next_ < items_.size() && before(items_[next_], t)) ++next_;
    }
    last_ = t;
    return next_;
  }

  std::span<const T> items() const { return items_; }

 private:
  /// The binary search's predicate: the item lies wholly before the
  /// answer for t.
  static bool before(const T& item, TimeMs t) {
    if constexpr (kSeek == Seek::kFirstAtOrAfter) {
      return Key{}(item) < t;
    } else {
      return Key{}(item) <= t;
    }
  }

  std::span<const T> items_;
  bool sorted_;
  std::size_t next_ = 0;  ///< the answer for last_
  TimeMs last_ = std::numeric_limits<TimeMs>::min();
};

/// Key projections for the interval-shaped rows the replay walks.
struct BeginKey {
  template <class T>
  TimeMs operator()(const T& x) const {
    return x.begin;
  }
};
struct EndKey {
  template <class T>
  TimeMs operator()(const T& x) const {
    return x.end;
  }
};

/// "Which interval holds t?" over a stream of instants, for rows with
/// `begin`/`end` members (Interval, ScreenSession) sorted by end: the
/// first row ending after t is the only one that can hold t. Answers
/// IntervalSet::contains and UserTrace::screen_on_at.
template <class T>
class CoverCursor {
 public:
  explicit CoverCursor(std::span<const T> rows) : cursor_(rows) {}

  /// Index of the row holding t, or rows().size() when none does.
  std::size_t find(TimeMs t) {
    const std::size_t i = cursor_.seek(t);
    const std::span<const T> rows = cursor_.items();
    return i < rows.size() && rows[i].begin <= t && t < rows[i].end
               ? i
               : rows.size();
  }

  bool contains(TimeMs t) { return find(t) != rows().size(); }

  std::span<const T> rows() const { return cursor_.items(); }

 private:
  SortedCursor<T, Seek::kFirstAfter, EndKey> cursor_;
};

}  // namespace netmaster
