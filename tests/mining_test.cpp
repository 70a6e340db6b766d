// Tests for habit mining, slot prediction (Eqs. 2–3) and special apps,
// and the differential check of the one-pass mine(UserTrace) against
// the sanitize + re-index composition it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "eval/session.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::mining {
namespace {

/// 7-day hand-built trace (days 0–4 weekdays, 5–6 weekend under the
/// day-0-is-Monday convention): usage at hour 9 every weekday, hour 20
/// on 3 of 5 weekdays, hour 11 on weekends only; screen-off network
/// activity at hour 3 every day.
UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 7;
  t.app_names = {"im", "game"};
  for (int day = 0; day < 7; ++day) {
    const bool weekend = is_weekend(day);
    auto add_usage = [&](int hour, AppId app) {
      const TimeMs at = hour_start(day, hour) + 5 * kMsPerMinute;
      t.sessions.push_back({at, at + 30'000});
      t.usages.push_back({app, at, 10'000});
    };
    if (!weekend) {
      add_usage(9, 0);
      if (day < 3) add_usage(20, 0);
    } else {
      add_usage(11, 1);
    }
    // Screen-off network activity by app 0 at hour 3, every day.
    t.activities.push_back({0, hour_start(day, 3), 2000, 100, 10,
                            false, true});
  }
  return t;
}

TEST(HabitModel, PrActiveExactValues) {
  const HabitModel model = HabitModel::mine(fixture());
  const HourStats& wd = model.stats(DayKind::kWeekday);
  EXPECT_EQ(wd.days_observed, 5);
  EXPECT_DOUBLE_EQ(wd.pr_active[9], 1.0);
  EXPECT_DOUBLE_EQ(wd.pr_active[20], 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(wd.pr_active[11], 0.0);
  const HourStats& we = model.stats(DayKind::kWeekend);
  EXPECT_EQ(we.days_observed, 2);
  EXPECT_DOUBLE_EQ(we.pr_active[11], 1.0);
  EXPECT_DOUBLE_EQ(we.pr_active[9], 0.0);
}

TEST(HabitModel, ScreenOffNetworkStats) {
  const HabitModel model = HabitModel::mine(fixture());
  const HourStats& wd = model.stats(DayKind::kWeekday);
  // One of two apps active at hour 3 -> Eq. 3 value 0.5 per day.
  EXPECT_DOUBLE_EQ(wd.pr_net[3], 0.5);
  EXPECT_DOUBLE_EQ(wd.mean_net_count[3], 1.0);
  EXPECT_DOUBLE_EQ(wd.mean_net_bytes[3], 110.0);
  EXPECT_DOUBLE_EQ(wd.pr_net[9], 0.0);  // screen-on traffic excluded
}

TEST(HabitModel, PrActiveAtUsesDayRegime) {
  const HabitModel model = HabitModel::mine(fixture());
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(0, 9) + 5), 1.0);
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(5, 9) + 5), 0.0);
  EXPECT_DOUBLE_EQ(model.pr_active_at(hour_start(5, 11) + 5), 1.0);
  EXPECT_THROW(model.pr_active_at(-1), Error);
  EXPECT_THROW(model.pr_active(DayKind::kWeekday, 24), Error);
}

TEST(SlotPredictor, ThresholdSelectsSlots) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.5;
  cfg.delta_weekend = 0.5;
  const SlotPredictor pred(model, cfg);

  const DayPrediction day0 = pred.predict_day(0);  // weekday
  // Hours 9 (Pr=1) and 20 (Pr=0.6) exceed delta 0.5.
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 9) + 1));
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 20) + 1));
  EXPECT_FALSE(day0.active_slots.contains(hour_start(0, 11) + 1));
  // Hour 3 has screen-off traffic and is outside U -> net slot.
  EXPECT_TRUE(day0.net_slots.contains(hour_start(0, 3) + 1));
  EXPECT_FALSE(day0.net_slots.contains(hour_start(0, 9) + 1));
}

TEST(SlotPredictor, HigherDeltaShrinksSlots) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig strict;
  strict.delta_weekday = 0.8;  // excludes hour 20 (Pr = 0.6)
  strict.delta_weekend = 0.8;
  const SlotPredictor pred(model, strict);
  const DayPrediction day0 = pred.predict_day(0);
  EXPECT_TRUE(day0.active_slots.contains(hour_start(0, 9) + 1));
  EXPECT_FALSE(day0.active_slots.contains(hour_start(0, 20) + 1));
}

TEST(SlotPredictor, WeekdayWeekendDeltasIndependent) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.2;
  cfg.delta_weekend = 0.1;
  const SlotPredictor pred(model, cfg);
  EXPECT_DOUBLE_EQ(pred.delta_for_day(0), 0.2);
  EXPECT_DOUBLE_EQ(pred.delta_for_day(5), 0.1);
}

TEST(SlotPredictor, AdjacentHoursMergeIntoOneSlot) {
  UserTrace t = fixture();
  // Add usage at hour 10 every weekday so hours 9 and 10 both qualify.
  for (int day = 0; day < 5; ++day) {
    const TimeMs at = hour_start(day, 10) + kMsPerMinute;
    t.sessions.push_back({at, at + 5000});
    t.usages.push_back({0, at, 1000});
  }
  std::sort(t.sessions.begin(), t.sessions.end(),
            [](const ScreenSession& a, const ScreenSession& b) {
              return a.begin < b.begin;
            });
  std::sort(t.usages.begin(), t.usages.end(),
            [](const AppUsage& a, const AppUsage& b) {
              return a.time < b.time;
            });
  const SlotPredictor pred(HabitModel::mine(t), PredictorConfig{});
  const DayPrediction day0 = pred.predict_day(0);
  // Hours 9 and 10 merge into a single 2-hour slot.
  bool found = false;
  for (const Interval& iv : day0.active_slots.intervals()) {
    if (iv.begin == hour_start(0, 9) && iv.end == hour_start(0, 11)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SlotPredictor, ActiveProbabilityIntegral) {
  const HabitModel model = HabitModel::mine(fixture());
  const SlotPredictor pred(model, PredictorConfig{});
  // Over hour 9 of a weekday (Pr = 1): integral = 3600 prob-seconds.
  EXPECT_NEAR(pred.active_probability_integral(hour_start(0, 9),
                                               hour_start(0, 10)),
              3600.0, 1e-9);
  // Over hour 20 (Pr = 0.6): 2160.
  EXPECT_NEAR(pred.active_probability_integral(hour_start(0, 20),
                                               hour_start(0, 21)),
              2160.0, 1e-9);
  // Split across two hours uses per-hour values.
  const double mixed = pred.active_probability_integral(
      hour_start(0, 9) + 30 * kMsPerMinute,
      hour_start(0, 10) + 30 * kMsPerMinute);
  EXPECT_NEAR(mixed, 1800.0 * 1.0 + 1800.0 * 0.0, 1e-9);
  // Degenerate and invalid windows.
  EXPECT_DOUBLE_EQ(pred.active_probability_integral(100, 100), 0.0);
  EXPECT_THROW(pred.active_probability_integral(100, 50), Error);
}

TEST(SlotPredictor, RejectsBadDeltas) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig bad;
  bad.delta_weekday = 1.5;
  EXPECT_THROW(SlotPredictor(model, bad), Error);
  bad.delta_weekday = -0.1;
  EXPECT_THROW(SlotPredictor(model, bad), Error);
}

TEST(PredictionAccuracy, ExactOnFixture) {
  const HabitModel model = HabitModel::mine(fixture());
  PredictorConfig cfg;
  cfg.delta_weekday = 0.5;
  cfg.delta_weekend = 0.5;
  const SlotPredictor pred(model, cfg);
  // Evaluate on the training trace itself: weekday usages at hours 9
  // (5x) and 20 (3x) are inside U; weekend usages at hour 11 (2x) are
  // inside weekend U. All 10 usages covered.
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred, fixture()), 1.0);

  PredictorConfig strict;
  strict.delta_weekday = 0.8;
  strict.delta_weekend = 0.8;
  const SlotPredictor pred2(model, strict);
  // Hour-20 usages (3 of 10) now fall outside.
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred2, fixture()), 0.7);
}

TEST(PredictionAccuracy, EmptyEvalIsPerfect) {
  const SlotPredictor pred(HabitModel::mine(fixture()),
                           PredictorConfig{});
  UserTrace empty = fixture();
  empty.usages.clear();
  EXPECT_DOUBLE_EQ(prediction_accuracy(pred, empty), 1.0);
}

TEST(SpecialApps, DetectionRequiresUsageAndNetwork) {
  const SpecialApps special = SpecialApps::detect(fixture());
  EXPECT_TRUE(special.is_special(0));   // used + networked
  EXPECT_FALSE(special.is_special(1));  // used, never networked
  EXPECT_EQ(special.count(), 1u);
}

TEST(SpecialApps, UnseenAppsDefaultSpecial) {
  const SpecialApps special = SpecialApps::detect(fixture());
  EXPECT_TRUE(special.is_special(99));  // newly installed
  EXPECT_FALSE(special.is_special(-1));
}

// ---- mine(UserTrace) vs the sanitize + re-index composition. ---------

void expect_models_bitwise_equal(const HabitModel& a, const HabitModel& b,
                                 const std::string& context) {
  for (const DayKind kind : {DayKind::kWeekday, DayKind::kWeekend}) {
    const HourStats& sa = a.stats(kind);
    const HourStats& sb = b.stats(kind);
    ASSERT_EQ(sa.days_observed, sb.days_observed) << context;
    for (int h = 0; h < kHoursPerDay; ++h) {
      ASSERT_EQ(sa.pr_active[h], sb.pr_active[h]) << context << " h" << h;
      ASSERT_EQ(sa.pr_net[h], sb.pr_net[h]) << context << " h" << h;
      ASSERT_EQ(sa.mean_intensity[h], sb.mean_intensity[h])
          << context << " h" << h;
      ASSERT_EQ(sa.mean_net_count[h], sb.mean_net_count[h])
          << context << " h" << h;
      ASSERT_EQ(sa.mean_net_bytes[h], sb.mean_net_bytes[h])
          << context << " h" << h;
      ASSERT_EQ(sa.confidence[h], sb.confidence[h]) << context << " h" << h;
    }
  }
  ASSERT_EQ(a.data_quality(), b.data_quality()) << context;
}

/// What mine(UserTrace) computed before it learned to skip the copy:
/// sanitize every trace, index the repaired copy, mine the index, scale
/// by the repair ledger's quality.
HabitModel sanitize_index_mine(const UserTrace& t) {
  const fault::SanitizeResult repaired = fault::sanitize_trace(t);
  HabitModel model = HabitModel::mine(engine::TraceIndex(repaired.trace));
  model.scale_confidence(repaired.report.quality());
  return model;
}

/// Clean traces of every archetype, the chaos matrix's corrupted
/// training traces (every fault kind, rate and seed), and hand-built
/// edge cases.
std::vector<std::pair<std::string, UserTrace>> mining_corpus() {
  std::vector<std::pair<std::string, UserTrace>> corpus;
  for (int arch = 0; arch < 10; ++arch) {
    for (const std::uint64_t seed : {3u, 17u}) {
      corpus.emplace_back(
          "archetype " + std::to_string(arch) + " seed " +
              std::to_string(seed),
          synth::generate_trace(
              synth::make_user(static_cast<synth::Archetype>(arch), 1), 14,
              seed));
    }
  }

  eval::ExperimentConfig chaos;  // the chaos matrix's training window
  chaos.train_days = 7;
  chaos.eval_days = 3;
  chaos.seed = 42;
  const UserTrace training =
      eval::make_traces(
          synth::make_user(synth::Archetype::kOfficeWorker, 1), chaos)
          .training;
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const double rate : {0.05, 0.2, 0.5}) {
      for (const std::uint64_t seed : {1u, 7u, 31u}) {
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.with(kind, rate);
        corpus.emplace_back(std::string(fault::kind_name(kind)) + " rate " +
                                std::to_string(rate) + " seed " +
                                std::to_string(seed),
                            fault::inject_faults(training, plan).trace);
      }
    }
  }
  fault::FaultPlan stacked;
  stacked.seed = 99;
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    stacked.with(kind, 0.3);
  }
  corpus.emplace_back("all kinds stacked",
                      fault::inject_faults(training, stacked).trace);

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  UserTrace edge = fixture();
  edge.activities.front().duration = kMax;  // start + duration overflows
  corpus.emplace_back("huge duration", edge);
  edge = fixture();
  edge.activities.front().bytes_down = kMax;  // byte total overflows
  corpus.emplace_back("huge byte total", edge);
  edge = fixture();
  edge.num_days = 0;
  corpus.emplace_back("zero days", edge);
  edge = fixture();
  edge.activities.back().app = 2;  // unknown app
  corpus.emplace_back("unknown app", edge);
  return corpus;
}

TEST(HabitModel, MineTraceBitwiseEqualsSanitizeIndexMine) {
  for (const auto& [context, trace] : mining_corpus()) {
    expect_models_bitwise_equal(HabitModel::mine(trace),
                                sanitize_index_mine(trace), context);
  }
}

TEST(HabitModel, ValidateAcceptsExactlyTheTracesSanitizeLeavesClean) {
  std::size_t valid = 0;
  std::size_t dirty = 0;
  for (const auto& [context, trace] : mining_corpus()) {
    bool passes = true;
    try {
      trace.validate();
    } catch (const Error&) {
      passes = false;
    }
    EXPECT_EQ(passes, fault::sanitize_trace(trace).report.clean()) << context;
    ++(passes ? valid : dirty);
  }
  // The corpus exercises both sides of the equivalence.
  EXPECT_GT(valid, 20u);
  EXPECT_GT(dirty, 20u);
}

TEST(HabitModel, MiningAValidTraceSkipsTheSanitizer) {
  obs::Counter& calls =
      obs::Registry::global().counter("fault.sanitize.calls");
  const UserTrace clean = fixture();
  const std::uint64_t before = calls.value();
  static_cast<void>(HabitModel::mine(clean));
  EXPECT_EQ(calls.value(), before);

  UserTrace dirty = fixture();
  dirty.activities.front().bytes_up = -1;
  const HabitModel repaired = HabitModel::mine(dirty);
  EXPECT_EQ(calls.value(), before + 1);
  EXPECT_LT(repaired.data_quality(), 1.0);
}

// Property: raising delta never grows the active slot set.
class DeltaMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(DeltaMonotonicity, ActiveSlotsShrinkWithDelta) {
  const auto user = synth::make_user(synth::Archetype::kStudent, 2);
  const UserTrace trace = synth::generate_trace(user, 14, 17);
  const HabitModel model = HabitModel::mine(trace);

  const double delta = GetParam();
  PredictorConfig lo_cfg, hi_cfg;
  lo_cfg.delta_weekday = lo_cfg.delta_weekend = delta;
  hi_cfg.delta_weekday = hi_cfg.delta_weekend = delta + 0.15;
  const SlotPredictor lo(model, lo_cfg);
  const SlotPredictor hi(model, hi_cfg);
  for (int day = 0; day < 7; ++day) {
    const DurationMs lo_len =
        lo.predict_day(day).active_slots.total_length();
    const DurationMs hi_len =
        hi.predict_day(day).active_slots.total_length();
    EXPECT_GE(lo_len, hi_len) << "day " << day << " delta " << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaGrid, DeltaMonotonicity,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7));

}  // namespace
}  // namespace netmaster::mining
