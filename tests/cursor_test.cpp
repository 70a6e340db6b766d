// Tests for the forward replay cursors (common/cursor.hpp): every
// answer must equal the binary search it replaces, on sorted and
// unsorted columns, under monotone, repeated and backwards query
// streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/cursor.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace netmaster {
namespace {

std::size_t lower(const std::vector<TimeMs>& keys, TimeMs t) {
  return static_cast<std::size_t>(
      std::lower_bound(keys.begin(), keys.end(), t) - keys.begin());
}

std::size_t upper(const std::vector<TimeMs>& keys, TimeMs t) {
  return static_cast<std::size_t>(
      std::upper_bound(keys.begin(), keys.end(), t) - keys.begin());
}

/// Keys in [0, 1000) with many duplicates; sorted unless `shuffle`.
std::vector<TimeMs> random_keys(Rng& rng, bool shuffle) {
  std::vector<TimeMs> keys(
      static_cast<std::size_t>(rng.uniform_int(0, 40)));
  for (TimeMs& k : keys) k = rng.uniform_int(0, 60) * 16;
  std::sort(keys.begin(), keys.end());
  if (shuffle) {
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
  return keys;
}

enum class Stream { kMonotone, kRepeated, kBackwards, kRandom };

/// Query instants around and between the keys, in the stream's order.
std::vector<TimeMs> random_queries(Rng& rng, Stream stream) {
  std::vector<TimeMs> q(static_cast<std::size_t>(rng.uniform_int(1, 60)));
  for (TimeMs& t : q) t = rng.uniform_int(-20, 1010);
  switch (stream) {
    case Stream::kMonotone:
      std::sort(q.begin(), q.end());
      break;
    case Stream::kRepeated:
      std::sort(q.begin(), q.end());
      for (std::size_t i = 1; i < q.size(); i += 2) q[i] = q[i - 1];
      break;
    case Stream::kBackwards:
      std::sort(q.begin(), q.end(), std::greater<>());
      break;
    case Stream::kRandom:
      break;
  }
  return q;
}

TEST(SortedCursor, MatchesBinarySearchOnEveryStream) {
  Rng rng(20261019);
  for (int run = 0; run < 2000; ++run) {
    // Unsorted keys (a trace validate() rejects) must get the binary
    // search's answer too, whatever it is.
    const bool shuffle = run % 4 == 3;
    const std::vector<TimeMs> keys = random_keys(rng, shuffle);
    const Stream stream = static_cast<Stream>(run % 4);
    const std::vector<TimeMs> queries = random_queries(rng, stream);
    SortedCursor<TimeMs, Seek::kFirstAtOrAfter> at_or_after(keys);
    SortedCursor<TimeMs, Seek::kFirstAfter> after(keys);
    for (const TimeMs t : queries) {
      ASSERT_EQ(at_or_after.seek(t), lower(keys, t))
          << "run " << run << " t " << t;
      ASSERT_EQ(after.seek(t), upper(keys, t)) << "run " << run << " t " << t;
    }
  }
}

TEST(SortedCursor, EmptyColumnAndExtremeInstants) {
  const std::vector<TimeMs> none;
  SortedCursor<TimeMs, Seek::kFirstAtOrAfter> empty(none);
  EXPECT_EQ(empty.seek(0), 0u);
  EXPECT_EQ(empty.seek(-5), 0u);

  const std::vector<TimeMs> keys = {0, 10, 10, 20};
  SortedCursor<TimeMs, Seek::kFirstAfter> after(keys);
  constexpr TimeMs kMin = std::numeric_limits<TimeMs>::min();
  constexpr TimeMs kMax = std::numeric_limits<TimeMs>::max();
  EXPECT_EQ(after.seek(kMin), 0u);
  EXPECT_EQ(after.seek(10), 3u);
  EXPECT_EQ(after.seek(10), 3u);
  EXPECT_EQ(after.seek(kMax), 4u);
  EXPECT_EQ(after.seek(9), 1u);  // backwards: re-seeks
  EXPECT_EQ(after.seek(kMin), 0u);
}

TEST(SortedCursor, ProjectsAKeyOutOfEachRow) {
  // First slot beginning after t: NetMaster's no-duty fallback lookup.
  const std::vector<Interval> slots = {{0, 5}, {10, 15}, {20, 25}};
  SortedCursor<Interval, Seek::kFirstAfter, BeginKey> next(slots);
  for (TimeMs t = -3; t < 30; ++t) {
    const auto want = static_cast<std::size_t>(
        std::upper_bound(slots.begin(), slots.end(), t,
                         [](TimeMs v, const Interval& s) {
                           return v < s.begin;
                         }) -
        slots.begin());
    ASSERT_EQ(next.seek(t), want) << t;
  }
}

/// A canonical random set, as the policies build their blocked windows.
IntervalSet random_set(Rng& rng) {
  IntervalSet set;
  const int n = static_cast<int>(rng.uniform_int(0, 15));
  for (int i = 0; i < n; ++i) {
    const TimeMs begin = rng.uniform_int(0, 900);
    set.add(begin, begin + rng.uniform_int(1, 80));
  }
  return set;
}

TEST(CoverCursor, MatchesIntervalSetContains) {
  Rng rng(7);
  for (int run = 0; run < 2000; ++run) {
    const IntervalSet set = random_set(rng);
    const std::vector<TimeMs> queries =
        random_queries(rng, static_cast<Stream>(run % 4));
    CoverCursor<Interval> cover(set.intervals());
    for (const TimeMs t : queries) {
      const std::size_t i = cover.find(t);
      ASSERT_EQ(i != set.intervals().size(), set.contains(t))
          << "run " << run << " t " << t;
      if (i != set.intervals().size()) {
        ASSERT_TRUE(set.intervals()[i].contains(t));
      }
    }
  }
}

TEST(CoverCursor, MatchesScreenOnAtOnUnsortedSessions) {
  // Sessions that validate() rejects — out of order, overlapping,
  // empty — still get UserTrace::screen_on_at's answer.
  Rng rng(11);
  for (int run = 0; run < 2000; ++run) {
    UserTrace trace;
    trace.num_days = 1;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      const TimeMs begin = rng.uniform_int(0, 900);
      trace.sessions.push_back({begin, begin + rng.uniform_int(0, 120)});
    }
    if (run % 2 == 0) {
      std::sort(trace.sessions.begin(), trace.sessions.end(),
                [](const ScreenSession& a, const ScreenSession& b) {
                  return a.begin < b.begin;
                });
    }
    CoverCursor<ScreenSession> screen(trace.sessions);
    for (const TimeMs t : random_queries(rng, static_cast<Stream>(run % 4))) {
      ASSERT_EQ(screen.contains(t), trace.screen_on_at(t))
          << "run " << run << " t " << t;
    }
  }
}

}  // namespace
}  // namespace netmaster
