// Tests for engine::TraceIndex: structural invariants, session lookups
// against the linear-scan ground truth, bucket totals, the cursor
// bucket fold against the frozen binary-search fold (synth and fuzzed
// traces), and the bit-identity of policy outcomes between the
// shared-index path and the one-shot UserTrace path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cursor.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/trace_index.hpp"
#include "mining/habits.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"
#include "service/online_sim.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::engine {
namespace {

// trace() points at the indexed trace, so an index over a temporary
// would dangle the moment its full expression ends: both constructors
// must reject rvalues at compile time.
static_assert(std::is_constructible_v<TraceIndex, const UserTrace&>);
static_assert(!std::is_constructible_v<TraceIndex, UserTrace&&>);
static_assert(!std::is_constructible_v<TraceIndex, UserTrace&&, mem::Arena&,
                                       mem::LifetimeHandle>);

/// Two sessions, activities on both sides of every boundary.
UserTrace fixture() {
  UserTrace t;
  t.user = 7;
  t.num_days = 1;
  t.app_names = {"a", "b"};
  t.sessions = {{seconds(100), seconds(160)}, {seconds(300), seconds(400)}};
  t.usages = {{0, seconds(110), seconds(5)},
              {1, seconds(310), seconds(5)}};
  auto act = [](int app, TimeMs start, bool deferrable) {
    NetworkActivity n;
    n.app = static_cast<AppId>(app);
    n.start = start;
    n.duration = seconds(4);
    n.bytes_down = 1000;
    n.deferrable = deferrable;
    n.user_initiated = !deferrable;
    return n;
  };
  t.activities = {act(0, seconds(10), true),    // screen off, deferrable
                  act(0, seconds(100), true),   // session edge: screen on
                  act(1, seconds(120), false),  // foreground
                  act(0, seconds(160), true),   // end edge: screen off
                  act(1, seconds(350), true),   // inside 2nd session
                  act(0, seconds(500), true)};  // tail, screen off
  return t;
}

TEST(TraceIndex, InvariantsHoldOnFixtureAndSynthTraces) {
  const UserTrace t = fixture();
  TraceIndex(t).check_invariants();
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (int arch = 0; arch < 3; ++arch) {
      const UserTrace synth_trace = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), 1), 7,
          seed);
      TraceIndex(synth_trace).check_invariants();
    }
  }
}

TEST(TraceIndex, SessionLookupsMatchLinearScan) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  EXPECT_EQ(index.horizon(), t.trace_end());
  for (TimeMs probe :
       {TimeMs{0}, seconds(99), seconds(100), seconds(159), seconds(160),
        seconds(299), seconds(300), seconds(399), seconds(400),
        seconds(500)}) {
    EXPECT_EQ(index.screen_on_at(probe), t.screen_on_at(probe)) << probe;
  }
  // The first session at or after t, as the policies' replay cursors
  // find it over the index's begin column.
  SortedCursor<TimeMs, Seek::kFirstAtOrAfter> first_at_or_after(
      index.sessions().begins());
  EXPECT_EQ(first_at_or_after.seek(0), 0u);
  EXPECT_EQ(first_at_or_after.seek(seconds(100)), 0u);
  EXPECT_EQ(first_at_or_after.seek(seconds(101)), 1u);
  EXPECT_EQ(first_at_or_after.seek(seconds(300)), 1u);
  EXPECT_EQ(first_at_or_after.seek(seconds(301)), index.sessions().size());
  EXPECT_EQ(first_at_or_after.seek(seconds(100)), 0u);  // backwards
}

TEST(TraceIndex, ClassifiesEveryActivityExactlyOnce) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  // Ground truth via the policy-layer helper.
  std::size_t deferrable_count = 0;
  for (std::size_t i = 0; i < t.activities.size(); ++i) {
    EXPECT_EQ(index.is_deferrable_screen_off(i),
              policy::is_deferrable_screen_off(t, t.activities[i]))
        << "activity " << i;
    if (index.is_deferrable_screen_off(i)) ++deferrable_count;
  }
  // The ascending list is exactly the set of flagged indices.
  const std::span<const std::uint32_t> listed =
      index.deferrable_screen_off();
  ASSERT_EQ(listed.size(), deferrable_count);
  for (std::size_t k = 0; k < listed.size(); ++k) {
    EXPECT_TRUE(index.is_deferrable_screen_off(listed[k]));
    if (k > 0) {
      EXPECT_LT(listed[k - 1], listed[k]);
    }
  }
  // Expected classification: 0, 3, 5 deferrable screen-off; 1 arrives at
  // a session begin (screen on), 2 is foreground, 4 is inside a session.
  EXPECT_EQ(std::vector<std::uint32_t>(listed.begin(), listed.end()),
            (std::vector<std::uint32_t>{0, 3, 5}));
}

TEST(TraceIndex, HourBucketsMatchManualRecount) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  const TraceIndex::HourBucket& h0 = index.bucket(0, 0);
  // Both usages start in hour 0; screen-off net activities are the
  // deferrable-screen-off trio, all from app 0.
  EXPECT_EQ(h0.usage_count, 2);
  EXPECT_EQ(h0.net_count, 3);
  EXPECT_DOUBLE_EQ(h0.net_bytes, 3000.0);
  EXPECT_EQ(h0.distinct_net_apps, 1);
  for (int h = 1; h < kHoursPerDay; ++h) {
    EXPECT_EQ(index.bucket(0, h).usage_count, 0) << h;
    EXPECT_EQ(index.bucket(0, h).net_count, 0) << h;
  }
}

void expect_outcome_eq(const sim::PolicyOutcome& a,
                       const sim::PolicyOutcome& b) {
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].activity_index, b.transfers[i].activity_index);
    EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
    EXPECT_EQ(a.transfers[i].duration, b.transfers[i].duration);
  }
  EXPECT_EQ(a.blocked.intervals(), b.blocked.intervals());
  ASSERT_EQ(a.wakes.size(), b.wakes.size());
  for (std::size_t i = 0; i < a.wakes.size(); ++i) {
    EXPECT_EQ(a.wakes[i].time, b.wakes[i].time);
    EXPECT_EQ(a.wakes[i].window, b.wakes[i].window);
    EXPECT_EQ(a.wakes[i].productive, b.wakes[i].productive);
  }
  ASSERT_EQ(a.radio_allowed.has_value(), b.radio_allowed.has_value());
  if (a.radio_allowed) {
    EXPECT_EQ(a.radio_allowed->intervals(), b.radio_allowed->intervals());
  }
  EXPECT_EQ(a.interrupts, b.interrupts);
  EXPECT_EQ(a.duty_releases, b.duty_releases);
  EXPECT_EQ(a.deferral_latency_s, b.deferral_latency_s);
}

TEST(TraceIndex, PolicyOutcomesBitIdenticalViaSharedIndex) {
  for (const std::uint64_t seed : {3u, 42u}) {
    const synth::UserProfile profile =
        synth::make_user(synth::Archetype::kCommuter, 1);
    const UserTrace full = synth::generate_trace(profile, 14, seed);
    const UserTrace training = full.slice_days(0, 7);
    const UserTrace eval = full.slice_days(7, 7);
    const TraceIndex index(eval);

    const policy::NetMasterConfig nm_config;
    std::vector<std::unique_ptr<policy::Policy>> policies;
    policies.push_back(std::make_unique<policy::BaselinePolicy>());
    policies.push_back(std::make_unique<policy::DelayPolicy>(seconds(30)));
    policies.push_back(std::make_unique<policy::BatchPolicy>(3));
    policies.push_back(
        std::make_unique<policy::DelayBatchPolicy>(seconds(20)));
    policies.push_back(
        std::make_unique<policy::OraclePolicy>(nm_config.profit));
    policies.push_back(
        std::make_unique<policy::NetMasterPolicy>(training, nm_config));

    for (const auto& p : policies) {
      SCOPED_TRACE(p->name());
      expect_outcome_eq(p->run(eval), p->run(index));
    }

    // The mining fold and the online event loop agree across the two
    // entry points as well.
    const mining::HabitModel via_trace = mining::HabitModel::mine(eval);
    const mining::HabitModel via_index =
        mining::HabitModel::mine(TraceIndex(eval));
    for (const mining::DayKind kind :
         {mining::DayKind::kWeekday, mining::DayKind::kWeekend}) {
      for (int h = 0; h < kHoursPerDay; ++h) {
        EXPECT_DOUBLE_EQ(via_trace.pr_active(kind, h),
                         via_index.pr_active(kind, h));
      }
    }
    const service::OnlineSimResult online_trace =
        service::run_online(training, eval, nm_config);
    const service::OnlineSimResult online_index =
        service::run_online(training, index, nm_config);
    EXPECT_EQ(online_trace.events_processed, online_index.events_processed);
    EXPECT_EQ(online_trace.radio_switches, online_index.radio_switches);
    expect_outcome_eq(online_trace.outcome, online_index.outcome);
  }
}

TEST(TraceIndex, RetiredSourceLifetimeIsCaught) {
  // Regression: the index used to borrow the trace by raw reference,
  // so a moved-from or evicted source was silently read after free.
  // The generation handle turns that into a thrown Error while the
  // arena-backed columns keep replaying.
  const UserTrace t = fixture();
  mem::Arena arena;
  mem::Lifetime owner;
  TraceIndex index(t, arena, owner.handle());
  EXPECT_TRUE(index.source_alive());
  EXPECT_EQ(&index.trace(), &t);
  index.check_invariants();

  owner.retire();  // the owner evicted / moved the trace out
  EXPECT_FALSE(index.source_alive());
  EXPECT_THROW(index.trace(), Error);
  EXPECT_THROW(index.check_invariants(), Error);

  // The self-contained replay path is untouched.
  EXPECT_EQ(index.sessions().size(), t.sessions.size());
  EXPECT_EQ(index.activities().size(), t.activities.size());
  EXPECT_TRUE(index.screen_on_at(seconds(110)));
  EXPECT_EQ(index.deferrable_screen_off().size(), 3u);
  EXPECT_EQ(index.num_days(), t.num_days);
}

TEST(TraceIndex, MovedFromOwnerLifetimeIsCaught) {
  const UserTrace t = fixture();
  mem::Arena arena;
  auto owner = std::make_unique<mem::Lifetime>();
  const TraceIndex index(t, arena, owner->handle());
  EXPECT_TRUE(index.source_alive());
  owner.reset();  // destruction retires, like a store slot being freed
  EXPECT_FALSE(index.source_alive());
  EXPECT_THROW(index.trace(), Error);
}

// ---- Bucket fold vs the frozen binary-search fold. -------------------

/// The per-(day, hour) bucket loop as TraceIndex::build ran it before
/// the fold moved into TraceIndex::fold_hour_buckets: one binary search
/// over the session ends per activity. Frozen here as the oracle of the
/// cursor fold; do not "fix" it.
std::vector<TraceIndex::HourBucket> reference_buckets(const UserTrace& t) {
  const auto screen_on_at = [&t](TimeMs v) {
    const auto it = std::lower_bound(
        t.sessions.begin(), t.sessions.end(), v,
        [](const ScreenSession& s, TimeMs x) { return s.end <= x; });
    return it != t.sessions.end() && it->begin <= v && v < it->end;
  };
  const TimeMs horizon = t.trace_end();
  const int days = std::max(t.num_days, 0);
  std::vector<TraceIndex::HourBucket> buckets(
      static_cast<std::size_t>(days) * kHoursPerDay);
  const std::size_t num_apps = t.app_names.size();
  std::vector<bool> app_seen(buckets.size() * num_apps, false);
  for (const AppUsage& u : t.usages) {
    if (u.time < 0 || u.time >= horizon) continue;
    ++buckets[static_cast<std::size_t>(day_of(u.time)) * kHoursPerDay +
              static_cast<std::size_t>(hour_of(u.time))]
          .usage_count;
  }
  for (const NetworkActivity& a : t.activities) {
    if (a.start < 0 || a.start >= horizon) continue;
    if (screen_on_at(a.start)) continue;
    const std::size_t b =
        static_cast<std::size_t>(day_of(a.start)) * kHoursPerDay +
        static_cast<std::size_t>(hour_of(a.start));
    TraceIndex::HourBucket& bucket = buckets[b];
    ++bucket.net_count;
    bucket.net_bytes += static_cast<double>(a.bytes_down + a.bytes_up);
    if (a.app >= 0 && static_cast<std::size_t>(a.app) < num_apps) {
      const std::size_t bit = b * num_apps + static_cast<std::size_t>(a.app);
      if (!app_seen[bit]) {
        app_seen[bit] = true;
        ++bucket.distinct_net_apps;
      }
    }
  }
  return buckets;
}

void expect_buckets_eq(std::span<const TraceIndex::HourBucket> got,
                       const std::vector<TraceIndex::HourBucket>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t b = 0; b < want.size(); ++b) {
    ASSERT_EQ(got[b].usage_count, want[b].usage_count) << context << " " << b;
    ASSERT_EQ(got[b].net_count, want[b].net_count) << context << " " << b;
    // EQ, not NEAR: same additions in the same order.
    ASSERT_EQ(got[b].net_bytes, want[b].net_bytes) << context << " " << b;
    ASSERT_EQ(got[b].distinct_net_apps, want[b].distinct_net_apps)
        << context << " " << b;
  }
}

/// Sessions the index's invariant check accepts: non-empty, sorted,
/// disjoint, starting at or after 0.
bool sessions_well_formed(const UserTrace& t) {
  TimeMs prev_end = 0;
  for (const ScreenSession& s : t.sessions) {
    if (s.begin >= s.end || s.begin < prev_end) return false;
    prev_end = s.end;
  }
  return true;
}

/// The shapes the fuzz draws. Every shape mixes in out-of-horizon
/// events and bad app ids; they differ in how the sessions and the
/// activity starts are ordered, which decides the cursor's path.
enum class FuzzShape {
  kSorted,              ///< sorted disjoint sessions, sorted starts
  kBackwardStarts,      ///< sorted disjoint sessions, shuffled starts
  kOverlappingSorted,   ///< overlapping sessions, ends still sorted
  kUnsortedSessions,    ///< random sessions: ends unsorted
};

UserTrace fuzz_trace(Rng& rng, FuzzShape shape) {
  UserTrace t;
  t.user = 5;
  t.num_days = static_cast<int>(rng.uniform_int(0, 3));
  const auto num_apps = static_cast<int>(rng.uniform_int(0, 4));
  for (int a = 0; a < num_apps; ++a) {
    t.app_names.push_back("app" + std::to_string(a));
  }
  const TimeMs horizon = std::max<TimeMs>(t.trace_end(), kMsPerDay);
  const auto any_time = [&] {
    return rng.uniform_int(-kMsPerHour, horizon + kMsPerHour);
  };
  const auto any_app = [&]() -> AppId {
    if (rng.bernoulli(0.05)) return 1 << 30;
    return static_cast<AppId>(rng.uniform_int(-1, num_apps));
  };

  const auto num_sessions = rng.uniform_int(0, 40);
  if (shape == FuzzShape::kUnsortedSessions) {
    for (std::int64_t i = 0; i < num_sessions; ++i) {
      const TimeMs begin = any_time();
      t.sessions.push_back(
          {begin, begin + rng.uniform_int(-kMsPerMinute, 2 * kMsPerHour)});
    }
  } else {
    TimeMs at = rng.uniform_int(0, kMsPerHour);
    TimeMs prev_end = 0;
    for (std::int64_t i = 0; i < num_sessions && at < horizon; ++i) {
      const TimeMs end = std::max(at + rng.uniform_int(1, kMsPerHour),
                                  prev_end);
      t.sessions.push_back({at, end});
      prev_end = end;
      at = shape == FuzzShape::kOverlappingSorted
               ? at + rng.uniform_int(1, end - at)  // may start inside
               : end + rng.uniform_int(0, 2 * kMsPerHour);
    }
  }

  const auto num_usages = rng.uniform_int(0, 60);
  for (std::int64_t i = 0; i < num_usages; ++i) {
    t.usages.push_back({any_app(), any_time(), rng.uniform_int(0, 5000)});
  }
  const auto num_acts = rng.uniform_int(0, 200);
  for (std::int64_t i = 0; i < num_acts; ++i) {
    NetworkActivity n;
    n.app = any_app();
    // Some starts land exactly on a session edge.
    n.start = !t.sessions.empty() && rng.bernoulli(0.2)
                  ? t.sessions[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(
                                          t.sessions.size()) - 1))]
                        .end
                  : any_time();
    n.duration = rng.uniform_int(0, 60'000);
    n.bytes_down = rng.uniform_int(0, 1'000'000);
    n.bytes_up = rng.uniform_int(0, 1'000'000);
    n.deferrable = rng.bernoulli(0.7);
    t.activities.push_back(n);
  }
  if (shape != FuzzShape::kBackwardStarts) {
    std::stable_sort(t.activities.begin(), t.activities.end(),
                     [](const NetworkActivity& a, const NetworkActivity& b) {
                       return a.start < b.start;
                     });
  }
  return t;
}

TEST(TraceIndexFold, MatchesBinarySearchFoldOnSynthTraces) {
  for (int arch = 0; arch < 10; ++arch) {
    const UserTrace trace = synth::generate_trace(
        synth::make_user(static_cast<synth::Archetype>(arch), 1), 14, 11);
    const TraceIndex index(trace);
    expect_buckets_eq(index.buckets(), reference_buckets(trace),
                      "archetype " + std::to_string(arch));
    index.check_invariants();
  }
}

TEST(TraceIndexFold, FuzzMatchesBinarySearchFold) {
  Rng rng(20261017);
  for (const FuzzShape shape :
       {FuzzShape::kSorted, FuzzShape::kBackwardStarts,
        FuzzShape::kOverlappingSorted, FuzzShape::kUnsortedSessions}) {
    for (int iter = 0; iter < 250; ++iter) {
      const UserTrace t = fuzz_trace(rng, shape);
      const std::string context = "shape " +
                                  std::to_string(static_cast<int>(shape)) +
                                  " iter " + std::to_string(iter);
      const std::vector<TraceIndex::HourBucket> want = reference_buckets(t);

      const TraceIndex index(t);
      expect_buckets_eq(index.buckets(), want, context);

      // The standalone fold (the mining path) gives the same grid.
      std::vector<TraceIndex::HourBucket> direct(want.size());
      TraceIndex::fold_hour_buckets(t, direct);
      expect_buckets_eq(direct, want, context + " direct");

      // The invariant check holds wherever its session precondition
      // does, and catches the malformed sessions everywhere else.
      if (sessions_well_formed(t)) {
        EXPECT_NO_THROW(index.check_invariants()) << context;
      } else {
        EXPECT_THROW(index.check_invariants(), Error) << context;
      }
    }
  }
}

TEST(TraceIndexFold, RejectsMisSizedBucketSpan) {
  const UserTrace t = fixture();
  std::vector<TraceIndex::HourBucket> short_grid(kHoursPerDay - 1);
  EXPECT_THROW(TraceIndex::fold_hour_buckets(t, short_grid), Error);
}

TEST(TraceIndex, BucketAccessorRejectsOutOfRange) {
  const UserTrace t = fixture();
  const TraceIndex index(t);
  EXPECT_THROW(index.bucket(-1, 0), Error);
  EXPECT_THROW(index.bucket(0, kHoursPerDay), Error);
  EXPECT_THROW(index.bucket(1, 0), Error);
}

}  // namespace
}  // namespace netmaster::engine
