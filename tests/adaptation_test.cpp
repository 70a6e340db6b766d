// Drift-adaptation controller suite: the online executive (run_online)
// and netmasterd's UserSession drive the same AdaptationController, so
// on the same user they must raise the same alarms and adopt the same
// refreshes; the controller's rate limit must saturate instead of
// overflowing at extreme (but valid) gap and backoff settings.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "daemon/loadgen.hpp"
#include "daemon/user_session.hpp"
#include "engine/trace_index.hpp"
#include "policy/netmaster.hpp"
#include "service/adaptation.hpp"
#include "service/online_sim.hpp"
#include "synth/drift.hpp"
#include "synth/presets.hpp"

namespace netmaster {
namespace {

constexpr int kTrainDays = 14;
constexpr int kEvalDays = 14;

UserTrace drifting_user(synth::Archetype archetype, synth::DriftKind kind,
                        std::uint64_t seed) {
  synth::DriftSpec spec;
  spec.kind = kind;
  spec.onset_day = kTrainDays;  // drift starts with the eval window
  return synth::generate_drifting_trace(synth::make_user(archetype, 1), spec,
                                        kTrainDays + kEvalDays, seed);
}

service::AdaptationConfig enabled() {
  service::AdaptationConfig adapt;
  adapt.enable = true;
  return adapt;
}

service::OnlineSimResult run_executive(
    const UserTrace& full, const policy::NetMasterConfig& config,
    const service::AdaptationConfig& adapt) {
  const UserTrace training = full.slice_days(0, kTrainDays);
  const UserTrace eval = full.slice_days(kTrainDays, kEvalDays);
  return service::run_online(training, engine::TraceIndex(eval), config,
                             adapt);
}

daemon::UserSessionStats run_session(const UserTrace& full,
                                     const policy::NetMasterConfig& config,
                                     const service::AdaptationConfig& adapt) {
  daemon::UserSessionConfig session_config;
  session_config.user = 1;
  session_config.train_days = kTrainDays;
  session_config.num_days = kTrainDays + kEvalDays;
  session_config.app_names = full.app_names;
  daemon::UserSession session(session_config, config, adapt);
  std::vector<daemon::LoadEvent> events;
  daemon::append_trace_events(full, 1, events);
  daemon::sort_events(events);
  for (const daemon::LoadEvent& e : events) session.ingest(e.record);
  session.finish();
  return session.stats();
}

TEST(AdaptationDifferential, ExecutiveAndDaemonAgreeOnAlarmsAndRefreshes) {
  // The daemon's finish() also folds the final evaluation day, which
  // the online loop never observes (no midnight follows it); on this
  // matrix that extra fold changes neither total, so totals compare.
  constexpr synth::Archetype kArchetypes[] = {
      synth::Archetype::kOfficeWorker,   synth::Archetype::kStudent,
      synth::Archetype::kNightOwl,       synth::Archetype::kCommuter,
      synth::Archetype::kRetiree,        synth::Archetype::kHeavyMessenger,
      synth::Archetype::kWeekendWarrior, synth::Archetype::kLightUser,
      synth::Archetype::kMediaStreamer,  synth::Archetype::kPodcastCommuter,
  };
  constexpr synth::DriftKind kKinds[] = {
      synth::DriftKind::kNone, synth::DriftKind::kAbrupt,
      synth::DriftKind::kGradual, synth::DriftKind::kSeasonal};
  const policy::NetMasterConfig config;
  const service::AdaptationConfig adapt = enabled();
  std::uint64_t alarms = 0;
  std::uint64_t refreshes = 0;
  for (const synth::Archetype archetype : kArchetypes) {
    for (const synth::DriftKind kind : kKinds) {
      for (const std::uint64_t seed : {1u, 7u, 42u}) {
        const UserTrace full = drifting_user(archetype, kind, seed);
        const service::OnlineSimResult online =
            run_executive(full, config, adapt);
        const daemon::UserSessionStats streamed =
            run_session(full, config, adapt);
        const std::string context =
            "archetype " + std::to_string(static_cast<int>(archetype)) +
            " kind " + std::to_string(static_cast<int>(kind)) + " seed " +
            std::to_string(seed);
        EXPECT_EQ(streamed.alarms, online.drift_alarms) << context;
        EXPECT_EQ(streamed.refreshes, online.model_refreshes) << context;
        alarms += online.drift_alarms;
        refreshes += online.model_refreshes;
      }
    }
  }
  // The matrix must exercise the loop, not just agree on zeros.
  EXPECT_GT(alarms, 0u);
  EXPECT_GT(refreshes, 0u);
}

TEST(AdaptationRateLimit, MaximalRefreshGapSaturates) {
  // next_refresh_day = day + gap at gap = INT_MAX: the first refresh
  // runs, and no later one is ever due.
  const UserTrace full = drifting_user(synth::Archetype::kOfficeWorker,
                                       synth::DriftKind::kAbrupt, 42);
  service::AdaptationConfig adapt = enabled();
  adapt.min_refresh_gap_days = INT_MAX;
  const policy::NetMasterConfig config;

  const service::OnlineSimResult online = run_executive(full, config, adapt);
  EXPECT_GE(online.drift_alarms, 1u);
  EXPECT_LE(online.model_refreshes, 1u);

  const daemon::UserSessionStats streamed = run_session(full, config, adapt);
  EXPECT_EQ(streamed.alarms, online.drift_alarms);
  EXPECT_EQ(streamed.refreshes, online.model_refreshes);
  EXPECT_EQ(streamed.refresh_attempts, 1u);
}

TEST(AdaptationRateLimit, MaximalBackoffSaturates) {
  // A gate no window can clear (at most kEvalDays mined days against a
  // 15-day minimum) rejects every refresh, so the gap is multiplied by
  // backoff_factor: at INT_MAX it saturates, and the rejected first
  // attempt is the only one.
  const UserTrace full = drifting_user(synth::Archetype::kOfficeWorker,
                                       synth::DriftKind::kAbrupt, 42);
  policy::NetMasterConfig config;
  config.robustness.min_training_days = kEvalDays + 1;
  service::AdaptationConfig adapt = enabled();

  // In range, a rejected refresh backs off and is retried.
  const daemon::UserSessionStats doubling = run_session(full, config, adapt);
  EXPECT_EQ(doubling.refreshes, 0u);
  EXPECT_GT(doubling.refresh_attempts, 1u);

  adapt.backoff_factor = INT_MAX;
  const service::OnlineSimResult online = run_executive(full, config, adapt);
  EXPECT_GE(online.drift_alarms, 1u);
  EXPECT_EQ(online.model_refreshes, 0u);

  const daemon::UserSessionStats streamed = run_session(full, config, adapt);
  EXPECT_EQ(streamed.alarms, online.drift_alarms);
  EXPECT_EQ(streamed.refreshes, 0u);
  EXPECT_EQ(streamed.refresh_attempts, 1u);
}

TEST(AdaptationConfig, BothCallersRejectInvalidConfig) {
  const UserTrace full = drifting_user(synth::Archetype::kLightUser,
                                       synth::DriftKind::kNone, 1);
  const policy::NetMasterConfig config;
  daemon::UserSessionConfig session_config;
  session_config.train_days = kTrainDays;
  session_config.num_days = kTrainDays + kEvalDays;
  session_config.app_names = full.app_names;
  for (int field = 0; field < 4; ++field) {
    service::AdaptationConfig bad = enabled();
    switch (field) {
      case 0: bad.window_days = 0; break;
      case 1: bad.min_refresh_gap_days = 0; break;
      case 2: bad.backoff_factor = 0; break;
      default: bad.confidence_ramp_days = 0; break;
    }
    EXPECT_THROW(bad.validate(), Error) << "field " << field;
    EXPECT_THROW(run_executive(full, config, bad), Error) << "field " << field;
    EXPECT_THROW((daemon::UserSession{session_config, config, bad}), Error)
        << "field " << field;
    // Disabled adaptation never reads the knobs.
    bad.enable = false;
    EXPECT_NO_THROW(service::AdaptationController{bad}) << "field " << field;
  }
}

}  // namespace
}  // namespace netmaster
