#include "common/interval.hpp"

#include <algorithm>

namespace netmaster {

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  intervals_.reserve(intervals.size());
  for (const Interval& iv : intervals) append(iv);
}

void IntervalSet::insert(TimeMs begin, TimeMs end) {
  // Find the first existing interval whose end reaches begin (candidates
  // for merging) and the first whose begin exceeds end.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end < b; });
  auto last = std::upper_bound(
      first, intervals_.end(), end,
      [](TimeMs e, const Interval& iv) { return e < iv.begin; });

  if (first == last) {
    intervals_.insert(first, Interval{begin, end});
    return;
  }
  // Merge [first, last) with the new interval in place.
  first->begin = std::min(first->begin, begin);
  first->end = std::max(std::prev(last)->end, end);
  intervals_.erase(std::next(first), last);
}

void IntervalSet::add(const IntervalSet& other) {
  if (&other == this || other.intervals_.empty()) return;
  const std::vector<Interval>& rhs = other.intervals_;

  // Intervals that end strictly before `other` begins are untouched;
  // only the suffix from the first one reaching it takes part in the
  // merge. When `other` lies wholly after this set the suffix is empty
  // and the union is an append.
  const auto keep = std::lower_bound(
      intervals_.begin(), intervals_.end(), rhs.front().begin,
      [](const Interval& iv, TimeMs b) { return iv.end < b; });
  const std::vector<Interval> lhs(keep, intervals_.end());
  intervals_.erase(keep, intervals_.end());
  intervals_.reserve(intervals_.size() + lhs.size() + rhs.size());

  // Two-pointer merge by begin, coalescing as it appends.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    append(lhs[i].begin <= rhs[j].begin ? lhs[i++] : rhs[j++]);
  }
  for (; i < lhs.size(); ++i) append(lhs[i]);
  for (; j < rhs.size(); ++j) append(rhs[j]);
}

DurationMs IntervalSet::total_length() const {
  DurationMs total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

DurationMs IntervalSet::overlap_length(TimeMs begin, TimeMs end) const {
  if (begin >= end) return 0;
  DurationMs total = 0;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end <= b; });
  for (; it != intervals_.end() && it->begin < end; ++it) {
    total += intersect(*it, Interval{begin, end}).length();
  }
  return total;
}

bool IntervalSet::contains(TimeMs t) const {
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), t,
      [](const Interval& iv, TimeMs v) { return iv.end <= v; });
  return it != intervals_.end() && it->contains(t);
}

IntervalSet IntervalSet::complement(TimeMs begin, TimeMs end) const {
  IntervalSet out;
  if (begin >= end) return out;
  TimeMs cursor = begin;
  for (const Interval& iv : intervals_) {
    if (iv.end <= cursor) continue;
    if (iv.begin >= end) break;
    if (iv.begin > cursor) out.add(cursor, std::min(iv.begin, end));
    cursor = std::max(cursor, iv.end);
    if (cursor >= end) break;
  }
  if (cursor < end) out.add(cursor, end);
  return out;
}

}  // namespace netmaster
