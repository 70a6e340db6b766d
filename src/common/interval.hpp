// Half-open time intervals [begin, end) and canonical interval sets.
//
// Interval sets are the workhorse of radio accounting: radio-on time is
// the measure of a union of transfer-induced intervals, and the paper's
// penalty term charges overlapping deferral windows only once — i.e. it
// is also a measure of a union.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

namespace netmaster {

/// A half-open time interval [begin, end). Empty when begin == end.
struct Interval {
  TimeMs begin = 0;
  TimeMs end = 0;

  constexpr DurationMs length() const { return end - begin; }
  constexpr bool empty() const { return begin >= end; }
  constexpr bool contains(TimeMs t) const { return begin <= t && t < end; }

  friend constexpr bool operator==(const Interval&, const Interval&) =
      default;
};

/// Returns the (possibly empty) intersection of two intervals.
constexpr Interval intersect(const Interval& a, const Interval& b) {
  const TimeMs lo = a.begin > b.begin ? a.begin : b.begin;
  const TimeMs hi = a.end < b.end ? a.end : b.end;
  return lo < hi ? Interval{lo, hi} : Interval{lo, lo};
}

/// True when the two intervals share at least one point.
constexpr bool overlaps(const Interval& a, const Interval& b) {
  return a.begin < b.end && b.begin < a.end;
}

/// A set of disjoint, sorted, non-empty half-open intervals. Insertion
/// keeps the canonical form (merging any overlapping or adjacent
/// intervals), so `total_length()` is the exact measure of the union.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Builds a canonical set from arbitrary (unsorted, overlapping)
  /// intervals; empty inputs are dropped.
  explicit IntervalSet(std::vector<Interval> intervals);

  /// Adds [begin, end), merging with existing intervals as needed.
  /// No-op when the interval is empty. O(1) and inline when the
  /// interval begins at or after the last one's begin (in-order
  /// appends, the common case in the simulator): such an interval can
  /// only touch the last one, whose predecessors end before it begins.
  /// Otherwise a binary search plus an O(n) vector insert or erase.
  void add(TimeMs begin, TimeMs end) {
    if (begin >= end) return;
    if (intervals_.empty() || begin >= intervals_.back().begin) {
      append(Interval{begin, end});
    } else {
      insert(begin, end);
    }
  }
  void add(const Interval& iv) { add(iv.begin, iv.end); }

  /// Union with another set: a two-pointer merge, O(n + m), touching
  /// only the intervals of this set that reach `other`'s first begin.
  void add(const IntervalSet& other);

  /// Total measure of the union, in ms.
  DurationMs total_length() const;

  /// Measure of the intersection of this set with [begin, end).
  DurationMs overlap_length(TimeMs begin, TimeMs end) const;

  /// True when t is covered by some interval.
  bool contains(TimeMs t) const;

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  void reserve(std::size_t n) { intervals_.reserve(n); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Complement of this set within the clip window [begin, end).
  IntervalSet complement(TimeMs begin, TimeMs end) const;

 private:
  /// Appends a non-empty interval whose begin is >= every begin in the
  /// set, coalescing it into the last interval when they touch.
  void append(const Interval& iv) {
    if (!intervals_.empty() && iv.begin <= intervals_.back().end) {
      if (iv.end > intervals_.back().end) intervals_.back().end = iv.end;
    } else {
      intervals_.push_back(iv);
    }
  }

  /// The out-of-order path of add(): a non-empty interval beginning
  /// before the last one's begin.
  void insert(TimeMs begin, TimeMs end);

  std::vector<Interval> intervals_;  // sorted, disjoint, non-empty
};

}  // namespace netmaster
