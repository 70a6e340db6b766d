// Unit + property tests for Interval / IntervalSet.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"

namespace netmaster {
namespace {

TEST(Interval, BasicProperties) {
  const Interval iv{10, 20};
  EXPECT_EQ(iv.length(), 10);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_FALSE(iv.contains(9));
}

TEST(Interval, EmptyInterval) {
  const Interval iv{5, 5};
  EXPECT_TRUE(iv.empty());
  EXPECT_EQ(iv.length(), 0);
  EXPECT_FALSE(iv.contains(5));
}

TEST(Interval, Intersection) {
  EXPECT_EQ(intersect({0, 10}, {5, 15}), (Interval{5, 10}));
  EXPECT_EQ(intersect({0, 10}, {10, 20}).length(), 0);
  EXPECT_TRUE(intersect({0, 5}, {6, 9}).empty());
  EXPECT_EQ(intersect({0, 100}, {20, 30}), (Interval{20, 30}));
}

TEST(Interval, Overlaps) {
  EXPECT_TRUE(overlaps({0, 10}, {9, 20}));
  EXPECT_FALSE(overlaps({0, 10}, {10, 20}));  // half-open: touching only
  EXPECT_TRUE(overlaps({5, 6}, {0, 100}));
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet set;
  set.add(0, 10);
  set.add(5, 15);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals().front(), (Interval{0, 15}));
  EXPECT_EQ(set.total_length(), 15);
}

TEST(IntervalSet, AddMergesAdjacent) {
  IntervalSet set;
  set.add(0, 10);
  set.add(10, 20);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.total_length(), 20);
}

TEST(IntervalSet, DisjointStaysDisjoint) {
  IntervalSet set;
  set.add(0, 10);
  set.add(20, 30);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.total_length(), 20);
}

TEST(IntervalSet, EmptyAddIsNoop) {
  IntervalSet set;
  set.add(5, 5);
  set.add(7, 3);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_length(), 0);
}

TEST(IntervalSet, OutOfOrderAdds) {
  IntervalSet set;
  set.add(50, 60);
  set.add(0, 10);
  set.add(30, 40);
  set.add(8, 35);  // bridges the first two
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 40}));
  EXPECT_EQ(set.intervals()[1], (Interval{50, 60}));
}

TEST(IntervalSet, ConstructorCanonicalizes) {
  const IntervalSet set({{5, 10}, {0, 6}, {20, 20}, {12, 14}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(set.intervals()[1], (Interval{12, 14}));
}

TEST(IntervalSet, Contains) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.contains(19));
  EXPECT_FALSE(set.contains(20));
  EXPECT_FALSE(set.contains(25));
  EXPECT_TRUE(set.contains(35));
  EXPECT_FALSE(set.contains(40));
}

TEST(IntervalSet, OverlapLength) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  EXPECT_EQ(set.overlap_length(0, 100), 20);
  EXPECT_EQ(set.overlap_length(15, 35), 10);
  EXPECT_EQ(set.overlap_length(20, 30), 0);
  EXPECT_EQ(set.overlap_length(12, 18), 6);
  EXPECT_EQ(set.overlap_length(18, 12), 0);  // inverted window
}

TEST(IntervalSet, UnionWithOtherSet) {
  IntervalSet a;
  a.add(0, 10);
  IntervalSet b;
  b.add(5, 20);
  b.add(30, 40);
  a.add(b);
  EXPECT_EQ(a.total_length(), 30);
  EXPECT_EQ(a.size(), 2u);
}

TEST(IntervalSet, ComplementBasic) {
  IntervalSet set;
  set.add(10, 20);
  set.add(30, 40);
  const IntervalSet comp = set.complement(0, 50);
  ASSERT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(comp.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(comp.intervals()[2], (Interval{40, 50}));
}

TEST(IntervalSet, ComplementOfEmptyIsWindow) {
  const IntervalSet set;
  const IntervalSet comp = set.complement(5, 15);
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp.intervals().front(), (Interval{5, 15}));
}

TEST(IntervalSet, ComplementClipsToWindow) {
  IntervalSet set;
  set.add(0, 100);
  EXPECT_TRUE(set.complement(20, 80).empty());
  IntervalSet partial;
  partial.add(0, 50);
  const IntervalSet comp = partial.complement(20, 80);
  ASSERT_EQ(comp.size(), 1u);
  EXPECT_EQ(comp.intervals().front(), (Interval{50, 80}));
}

TEST(IntervalSet, ComplementEmptyWindow) {
  IntervalSet set;
  set.add(0, 10);
  EXPECT_TRUE(set.complement(5, 5).empty());
  EXPECT_TRUE(set.complement(10, 5).empty());
}

// ---------------------------------------------------------------------------
// Differential fuzz: the O(1) tail append, the linear set union and the
// vector constructor against a frozen copy of the general add
// (binary search, then a vector insert or an in-place merge and erase).

void legacy_add(std::vector<Interval>& ivs, TimeMs begin, TimeMs end) {
  if (begin >= end) return;
  auto first = std::lower_bound(
      ivs.begin(), ivs.end(), begin,
      [](const Interval& iv, TimeMs b) { return iv.end < b; });
  auto last = std::upper_bound(
      first, ivs.end(), end,
      [](TimeMs e, const Interval& iv) { return e < iv.begin; });
  if (first == last) {
    ivs.insert(first, Interval{begin, end});
    return;
  }
  first->begin = std::min(first->begin, begin);
  first->end = std::max(std::prev(last)->end, end);
  ivs.erase(std::next(first), last);
}

std::vector<Interval> legacy_union(std::vector<Interval> ivs,
                                   const std::vector<Interval>& more) {
  for (const Interval& iv : more) legacy_add(ivs, iv.begin, iv.end);
  return ivs;
}

/// Random intervals in time order, salted with the shapes the fast
/// paths must get right: empty and negative-length intervals, exact
/// duplicates, and intervals adjacent to (touching) the previous one.
std::vector<Interval> random_sorted_intervals(Rng& rng, int n) {
  std::vector<Interval> out;
  TimeMs t = rng.uniform_int(-50, 50);
  for (int k = 0; k < n; ++k) {
    const int shape = static_cast<int>(rng.uniform_int(0, 9));
    if (shape == 0 || out.empty()) {
      t += rng.uniform_int(0, 40);
      out.push_back({t, t + rng.uniform_int(1, 30)});
    } else if (shape == 1) {
      out.push_back({t, t});  // empty
    } else if (shape == 2) {
      out.push_back({t + 5, t - rng.uniform_int(1, 5)});  // negative
    } else if (shape == 3) {
      out.push_back(out.back());  // duplicate
    } else if (shape == 4) {
      const TimeMs b = out.back().end;  // adjacent
      out.push_back({b, b + rng.uniform_int(1, 20)});
    } else {
      t += rng.uniform_int(0, 25);
      out.push_back({t, t + rng.uniform_int(1, 60)});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interval& a, const Interval& b) {
                     return a.begin < b.begin;
                   });
  return out;
}

enum class Order { kSorted, kNearSorted, kReversed, kRandom };

std::vector<Interval> reorder(std::vector<Interval> ivs, Order order,
                              Rng& rng) {
  switch (order) {
    case Order::kSorted:
      break;
    case Order::kNearSorted:
      // About 2% of positions swap with a nearby neighbour.
      for (std::size_t i = 0; i + 1 < ivs.size(); ++i) {
        if (rng.bernoulli(0.02)) {
          const std::size_t j = std::min(
              ivs.size() - 1, i + 1 + static_cast<std::size_t>(
                                          rng.uniform_int(0, 3)));
          std::swap(ivs[i], ivs[j]);
        }
      }
      break;
    case Order::kReversed:
      std::reverse(ivs.begin(), ivs.end());
      break;
    case Order::kRandom:
      std::shuffle(ivs.begin(), ivs.end(), rng);
      break;
  }
  return ivs;
}

/// A random canonical set, built through the legacy add.
std::vector<Interval> random_canonical(Rng& rng, int n, TimeMs universe) {
  std::vector<Interval> ivs;
  for (int k = 0; k < n; ++k) {
    const TimeMs b = rng.uniform_int(0, universe);
    legacy_add(ivs, b, b + rng.uniform_int(1, universe / 8 + 1));
  }
  return ivs;
}

IntervalSet from_canonical(const std::vector<Interval>& ivs) {
  IntervalSet set;
  for (const Interval& iv : ivs) set.add(iv);
  return set;
}

TEST(IntervalSetFuzz, AddMatchesLegacyInEveryArrivalOrder) {
  Rng rng(20261017);
  const std::pair<Order, const char*> orders[] = {
      {Order::kSorted, "sorted"},
      {Order::kNearSorted, "near-sorted"},
      {Order::kReversed, "reversed"},
      {Order::kRandom, "random"}};
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<Interval> base =
        random_sorted_intervals(rng, static_cast<int>(rng.uniform_int(0, 120)));
    for (const auto& [order, name] : orders) {
      const std::vector<Interval> seq = reorder(base, order, rng);
      IntervalSet set;
      std::vector<Interval> want;
      for (std::size_t k = 0; k < seq.size(); ++k) {
        set.add(seq[k]);
        legacy_add(want, seq[k].begin, seq[k].end);
        ASSERT_EQ(set.intervals(), want)
            << name << " iter " << iter << " step " << k;
      }
    }
  }
}

TEST(IntervalSetFuzz, ConstructorMatchesLegacyOnSortedAndUnsortedInput) {
  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    const std::vector<Interval> sorted =
        random_sorted_intervals(rng, static_cast<int>(rng.uniform_int(0, 80)));
    const std::vector<Interval> want = legacy_union({}, sorted);
    EXPECT_EQ(IntervalSet(sorted).intervals(), want) << "sorted " << iter;
    const Order order = iter % 2 == 0 ? Order::kRandom : Order::kNearSorted;
    EXPECT_EQ(IntervalSet(reorder(sorted, order, rng)).intervals(), want)
        << "unsorted " << iter;
  }
}

TEST(IntervalSetFuzz, UnionMatchesPerIntervalAdds) {
  Rng rng(99);
  for (int iter = 0; iter < 400; ++iter) {
    const TimeMs universe = 50 + rng.uniform_int(0, 2000);
    std::vector<Interval> a = random_canonical(
        rng, static_cast<int>(rng.uniform_int(0, 30)), universe);
    std::vector<Interval> b;
    std::string shape;
    switch (iter % 6) {
      case 0:  // either side empty
        shape = "empty";
        if (rng.bernoulli(0.5)) std::swap(a, b);
        break;
      case 1:  // one interval containing all of a
        shape = "containing";
        b = {{-rng.uniform_int(0, 5), universe * 2}};
        break;
      case 2: {  // b inside a single interval of a, or inside a gap
        shape = "contained";
        if (!a.empty()) {
          const Interval& host = a[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(a.size()) - 1))];
          b = {{host.begin, host.end}};
          if (host.length() > 2) b = {{host.begin + 1, host.end - 1}};
        }
        break;
      }
      case 3:  // exactly the gaps of a: every interval adjacent
        shape = "adjacent";
        b = from_canonical(a).complement(0, universe).intervals();
        break;
      case 4:  // b wholly after a (the append path)
        shape = "after";
        for (const Interval& iv : random_canonical(rng, 10, universe)) {
          b.push_back({iv.begin + universe + 1, iv.end + universe + 1});
        }
        break;
      default:  // interleaving
        shape = "interleaved";
        b = random_canonical(rng, static_cast<int>(rng.uniform_int(1, 30)),
                             universe);
        break;
    }
    IntervalSet got = from_canonical(a);
    got.add(from_canonical(b));
    EXPECT_EQ(got.intervals(), legacy_union(a, b))
        << shape << " iter " << iter;

    // Union is commutative in result.
    IntervalSet flipped = from_canonical(b);
    flipped.add(from_canonical(a));
    EXPECT_EQ(flipped.intervals(), got.intervals())
        << shape << " flipped iter " << iter;
  }
}

TEST(IntervalSetFuzz, SelfUnionIsIdentity) {
  IntervalSet set;
  set.add(0, 10);
  set.add(20, 30);
  const std::vector<Interval> before = set.intervals();
  set.add(set);
  EXPECT_EQ(set.intervals(), before);
}

// Property test: the canonical set must agree with a brute-force
// boolean timeline under random adds.
class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalSetProperty, MatchesBruteForceTimeline) {
  Rng rng(GetParam());
  constexpr int kUniverse = 300;
  std::vector<bool> timeline(kUniverse, false);
  IntervalSet set;

  for (int step = 0; step < 60; ++step) {
    const TimeMs a = rng.uniform_int(0, kUniverse - 1);
    const TimeMs b = rng.uniform_int(0, kUniverse - 1);
    const TimeMs lo = std::min(a, b), hi = std::max(a, b);
    set.add(lo, hi);
    for (TimeMs t = lo; t < hi; ++t) timeline[t] = true;
  }

  // Coverage agrees pointwise.
  for (TimeMs t = 0; t < kUniverse; ++t) {
    EXPECT_EQ(set.contains(t), timeline[t]) << "at t=" << t;
  }
  // Total measure agrees.
  DurationMs measure = 0;
  for (bool on : timeline) measure += on ? 1 : 0;
  EXPECT_EQ(set.total_length(), measure);
  // Canonical form: sorted, disjoint, non-empty.
  const auto& ivs = set.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_LT(ivs[i].begin, ivs[i].end);
    if (i > 0) {
      EXPECT_LT(ivs[i - 1].end, ivs[i].begin);
    }
  }
  // Complement partitions the window.
  const IntervalSet comp = set.complement(0, kUniverse);
  EXPECT_EQ(set.total_length() + comp.total_length(), kUniverse);
  for (TimeMs t = 0; t < kUniverse; ++t) {
    EXPECT_NE(set.contains(t), comp.contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace netmaster
