#include "service/adaptation.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "common/error.hpp"

namespace netmaster::service {

void AdaptationConfig::validate() const {
  NM_REQUIRE(window_days > 0, "window_days must be positive");
  NM_REQUIRE(min_refresh_gap_days > 0,
             "min_refresh_gap_days must be positive");
  NM_REQUIRE(backoff_factor >= 1, "backoff_factor must be at least 1");
  NM_REQUIRE(confidence_ramp_days > 0,
             "confidence_ramp_days must be positive");
}

AdaptationController::AdaptationController(const AdaptationConfig& config)
    : config_(config),
      detector_(config.detector),
      refresh_gap_(config.min_refresh_gap_days) {
  if (config_.enable) config_.validate();
}

void AdaptationController::seed(const UserTrace& sanitized_training) {
  detector_.observe_index(engine::TraceIndex(sanitized_training));
  detector_.notify_adapted();
}

bool AdaptationController::observe_summary(int day,
                                           mining::DayContribution summary) {
  detector_.observe_summary(day, std::move(summary));
  if (!detector_.alarmed()) return false;
  if (!alarm_pending_) {
    alarm_pending_ = true;
    ++alarms_;
    if (first_alarm_day_ < 0) first_alarm_day_ = detector_.alarm_day();
  }
  return day + 1 >= next_refresh_day_;
}

std::optional<mining::HabitModel> AdaptationController::refresh(
    int day, const fault::SanitizeResult& seen,
    const policy::RobustnessConfig& gate) {
  // The detector's Page–Hinkley minimum estimates the drift onset, so
  // pre-drift days do not dilute the new model.
  const int changepoint = std::clamp(detector_.changepoint_day(), 0, day - 1);
  const int start = std::max(changepoint, day - config_.window_days);
  mining::HabitModel fresh =
      mining::HabitModel::mine(engine::TraceIndex(seen.trace), start, day);
  fresh.scale_confidence(seen.report.quality());
  fresh.scale_confidence(
      std::min(1.0, static_cast<double>(day - start) /
                        static_cast<double>(config_.confidence_ramp_days)));
  std::optional<mining::HabitModel> adopted;
  if (fresh.training_days() >= gate.min_training_days &&
      fresh.overall_confidence() >= gate.min_confidence) {
    detector_.notify_adapted();
    alarm_pending_ = false;
    refresh_gap_ = config_.min_refresh_gap_days;
    adopted = std::move(fresh);
  } else {
    refresh_gap_ = refresh_gap_ > INT_MAX / config_.backoff_factor
                       ? INT_MAX
                       : refresh_gap_ * config_.backoff_factor;
  }
  next_refresh_day_ =
      day > INT_MAX - refresh_gap_ ? INT_MAX : day + refresh_gap_;
  return adopted;
}

}  // namespace netmaster::service
