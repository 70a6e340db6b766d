// Tests for the synthetic workload generator and the preset
// populations (the paper's study/volunteer substitutes).
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "mining/pearson.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace netmaster::synth {
namespace {

TEST(Generator, DeterministicForSameSeed) {
  const UserProfile user = make_user(Archetype::kOfficeWorker, 1);
  const UserTrace a = generate_trace(user, 3, 99);
  const UserTrace b = generate_trace(user, 3, 99);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.usages, b.usages);
  EXPECT_EQ(a.activities, b.activities);
}

TEST(Generator, DifferentSeedsDiffer) {
  const UserProfile user = make_user(Archetype::kOfficeWorker, 1);
  const UserTrace a = generate_trace(user, 3, 1);
  const UserTrace b = generate_trace(user, 3, 2);
  EXPECT_NE(a.activities, b.activities);
}

TEST(Generator, ProducesValidTraces) {
  for (const UserProfile& user : study_population()) {
    const UserTrace t = generate_trace(user, 7, 7);
    EXPECT_NO_THROW(t.validate());
    EXPECT_FALSE(t.sessions.empty()) << user.name;
    EXPECT_FALSE(t.activities.empty()) << user.name;
  }
}

TEST(Generator, RejectsBadInputs) {
  UserProfile user = make_user(Archetype::kLightUser, 1);
  EXPECT_THROW(generate_trace(user, 0, 1), Error);
  user.apps.clear();
  EXPECT_THROW(generate_trace(user, 1, 1), Error);
}

TEST(Generator, GeneratedTraceSerializes) {
  const UserTrace t =
      generate_trace(make_user(Archetype::kStudent, 2), 2, 5);
  std::stringstream ss;
  write_trace(ss, t);
  const UserTrace back = read_trace(ss);
  EXPECT_EQ(back.activities, t.activities);
  EXPECT_EQ(back.sessions, t.sessions);
  EXPECT_EQ(back.usages, t.usages);
}

TEST(Presets, StandardPopulationHas23Apps) {
  const auto apps = standard_app_population();
  EXPECT_EQ(apps.size(), 23u);
  // The dominant messenger leads the weights.
  for (std::size_t i = 1; i < apps.size(); ++i) {
    EXPECT_GE(apps[0].usage_weight, apps[i].usage_weight);
  }
}

TEST(Presets, RejectsOutOfRangeArchetype) {
  EXPECT_THROW(make_user(static_cast<Archetype>(-1), 1), Error);
  EXPECT_THROW(make_user(static_cast<Archetype>(10), 1), Error);
  EXPECT_EQ(make_user(Archetype::kPodcastCommuter, 1).name,
            "podcast-commuter");
}

TEST(Presets, StudyPopulationIdsAndDistinctness) {
  const auto users = study_population();
  ASSERT_EQ(users.size(), 8u);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(users[i].id, static_cast<UserId>(i + 1));
    for (std::size_t j = i + 1; j < users.size(); ++j) {
      EXPECT_NE(users[i].name, users[j].name);
    }
  }
}

TEST(Presets, VolunteersAreThree) {
  EXPECT_EQ(volunteer_population().size(), 3u);
}

TEST(Presets, KeepOnlyZeroesWeightAndSync) {
  // The light user keeps only 5 apps; everything else must have no
  // launches and no background syncs.
  const UserProfile user = make_user(Archetype::kLightUser, 8);
  int active = 0;
  for (const AppProfile& app : user.apps) {
    if (app.usage_weight > 0.0) ++active;
    if (app.usage_weight == 0.0) {
      EXPECT_EQ(app.sync_style, SyncStyle::kNone) << app.name;
    }
  }
  EXPECT_EQ(active, 5);
}

TEST(PopulationStats, ScreenOffFractionInPaperBand) {
  // Fig. 1a target: ~41% of activities screen-off; accept a generous
  // band since this is a stochastic aggregate.
  const TraceSet traces =
      generate_population(study_population(), 14, 42);
  double sum = 0.0;
  for (const UserTrace& t : traces.users) {
    sum += traffic_split(t).screen_off_activity_fraction();
  }
  const double avg = sum / traces.users.size();
  EXPECT_GT(avg, 0.30);
  EXPECT_LT(avg, 0.60);
}

TEST(PopulationStats, TransferRatePercentilesMatchFig1b) {
  const TraceSet traces =
      generate_population(study_population(), 14, 42);
  std::vector<double> on, off;
  for (const UserTrace& t : traces.users) {
    const RateSamples s = transfer_rate_samples(t);
    on.insert(on.end(), s.screen_on_kbps.begin(), s.screen_on_kbps.end());
    off.insert(off.end(), s.screen_off_kbps.begin(),
               s.screen_off_kbps.end());
  }
  EXPECT_LT(percentile(off, 0.9), 1.2);  // paper: 90% below 1 kB/s
  EXPECT_LT(percentile(on, 0.9), 5.5);   // paper: 90% below 5 kB/s
  EXPECT_GT(percentile(on, 0.5), percentile(off, 0.5));
}

TEST(PopulationStats, ScreenUtilizationInPaperBand) {
  const TraceSet traces =
      generate_population(study_population(), 14, 42);
  double sum = 0.0;
  for (const UserTrace& t : traces.users) {
    sum += screen_utilization(t).radio_utilization;
  }
  const double avg = sum / traces.users.size();
  EXPECT_GT(avg, 0.25);  // paper: 45.14%
  EXPECT_LT(avg, 0.60);
}

TEST(PopulationStats, IntraUserBeatsCrossUserCorrelation) {
  // The paper's central motivation: per-user day-to-day correlation is
  // far higher than cross-user correlation.
  const TraceSet traces =
      generate_population(study_population(), 14, 42);
  const double cross =
      mining::cross_user_matrix(traces).off_diagonal_mean();
  double intra = 0.0;
  for (const UserTrace& t : traces.users) {
    intra += mining::cross_day_matrix(t, t.num_days).off_diagonal_mean();
  }
  intra /= traces.users.size();
  EXPECT_LT(cross, 0.30);
  EXPECT_GT(intra, 0.30);
  EXPECT_GT(intra, cross + 0.15);
}

TEST(PopulationStats, Fig5SubjectUsesEightApps) {
  const auto users = study_population();
  const UserTrace t = generate_trace(users[2], 7, 42);  // user 3
  EXPECT_EQ(active_networked_app_count(t), 8u);
  // Dominant messenger share near the paper's 59%.
  const auto counts = per_app_usage_counts(t);
  std::size_t total = 0;
  for (auto c : counts) total += c;
  const double share = static_cast<double>(counts[0]) / total;
  EXPECT_GT(share, 0.45);
  EXPECT_LT(share, 0.72);
}

TEST(Generator, BackgroundOnlyAppStillSyncs) {
  // An app with zero usage weight but a sync config emits background
  // traffic (installed-but-unused apps sync — the paper's motivation).
  UserProfile user = make_user(Archetype::kOfficeWorker, 1);
  for (auto& app : user.apps) {
    app.usage_weight = 0.0;
    app.sync_style = SyncStyle::kNone;
  }
  user.apps[0].usage_weight = 1.0;  // one launchable app keeps pick_app sane
  user.apps[7].sync_style = SyncStyle::kPeriodic;
  user.apps[7].sync_interval_ms = 30 * kMsPerMinute;
  const UserTrace t = generate_trace(user, 2, 3);
  bool saw_email = false;
  for (const NetworkActivity& n : t.activities) {
    if (n.app == 7) {
      saw_email = true;
      EXPECT_TRUE(n.deferrable);
      EXPECT_FALSE(n.user_initiated);
    }
  }
  EXPECT_TRUE(saw_email);
}

TEST(Generator, PresenceDropoutSpreadsHourlyProbability) {
  // With dropout, the fraction of days a mid-intensity hour is used
  // must sit strictly between 0 and 1 for a decent share of hours.
  UserProfile user = make_user(Archetype::kOfficeWorker, 1);
  const UserTrace t = generate_trace(user, 28, 11);
  int fractional_hours = 0;
  for (int hour = 0; hour < kHoursPerDay; ++hour) {
    int used_days = 0;
    std::vector<bool> day_used(t.num_days, false);
    for (const AppUsage& u : t.usages) {
      if (hour_of(u.time) == hour) day_used[day_of(u.time)] = true;
    }
    for (bool b : day_used) used_days += b ? 1 : 0;
    const double pr = static_cast<double>(used_days) / t.num_days;
    if (pr > 0.1 && pr < 0.9) ++fractional_hours;
  }
  EXPECT_GE(fractional_hours, 4);
}

}  // namespace
}  // namespace netmaster::synth
