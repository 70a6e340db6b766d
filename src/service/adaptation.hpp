// Online drift adaptation: the one controller behind the continued §V
// mining loop (DESIGN.md §11.3 describes it). The online executive
// (service/online_sim.*) and netmasterd's UserSession
// (daemon/user_session.*) both drive an AdaptationController, which
// owns the detector, the alarm bookkeeping, the refresh rate limit and
// backoff, and the windowed re-mine with its confidence ramp and gate.
// Each caller keeps only its rebuild of the evaluation window and what
// adopting a model means to it.
//
// The one remaining difference between the callers lives in that
// rebuild: a screen session straddling the training/evaluation
// boundary reaches the executive clipped by UserTrace::slice_days,
// while the daemon re-opens it at the evaluation epoch and lets the
// reconstruction clamp close it — so that edge case skips the
// sanitizer ledger's clip penalty on the window quality.
#pragma once

#include <cstddef>
#include <optional>

#include "engine/trace_index.hpp"
#include "fault/sanitize.hpp"
#include "mining/drift.hpp"
#include "mining/habits.hpp"
#include "mining/incremental.hpp"
#include "policy/netmaster.hpp"
#include "trace/trace.hpp"

namespace netmaster::service {

/// Online drift adaptation (ROADMAP item 5). When enabled, the caller
/// keeps monitoring the evaluation stream: each completed day is
/// recorded and folded into a mining::DriftDetector at the midnight
/// tick. When the detector alarms, the mining component re-mines a
/// fresh model from the records' post-changepoint window and the
/// caller hot-swaps to it — rate-limited with exponential backoff, and
/// only when the re-mined model clears the robustness gate (its
/// confidence is ramped down until enough post-drift days accumulated,
/// so a one-day model never takes over).
struct AdaptationConfig {
  bool enable = false;
  mining::DriftConfig detector;
  /// Longest re-mine window: the refresh mines records from
  /// [max(changepoint, day − window_days), day).
  int window_days = 14;
  /// Days between refresh attempts (rate limit; grows by
  /// backoff_factor after a rejected refresh, resets on adoption).
  int min_refresh_gap_days = 2;
  int backoff_factor = 2;
  /// A freshly re-mined model's confidence is scaled by
  /// min(1, window_len / confidence_ramp_days): fewer post-drift days
  /// than this leave it partially trusted (possibly below the adoption
  /// gate — the next attempt sees more days).
  int confidence_ramp_days = 3;

  /// Throws netmaster::Error on a non-positive window, gap or ramp, or
  /// a backoff factor below 1.
  void validate() const;
};

/// One user's drift-adaptation loop; days count from the evaluation
/// epoch.
class AdaptationController {
 public:
  /// Validates `config` when it is enabled. A disabled controller is
  /// never seeded or fed.
  explicit AdaptationController(const AdaptationConfig& config);

  bool enabled() const { return config_.enable; }

  /// Seeds the detector with the sanitized training trace and
  /// re-anchors it on the deployed model's habits.
  void seed(const UserTrace& sanitized_training);

  /// Folds completed evaluation day `day`, already summarized, and
  /// books a newly standing alarm. True when a refresh is due at the
  /// midnight opening day + 1.
  bool observe_summary(int day, mining::DayContribution summary);

  /// Re-mines [max(changepoint, day − window_days), day) of `seen`, the
  /// caller's rebuild of evaluation days [0, day), and returns the
  /// model when its quality- and ramp-scaled confidence clears `gate`;
  /// nullopt backs the refresh gap off. Gap and next refresh day
  /// saturate at INT_MAX.
  std::optional<mining::HabitModel> refresh(
      int day, const fault::SanitizeResult& seen,
      const policy::RobustnessConfig& gate);

  double score() const { return detector_.score(); }
  /// Distinct alarms: one standing alarm counts once until adoption.
  std::size_t alarms() const { return alarms_; }
  /// Evaluation day the first alarm fired; -1 before any.
  int first_alarm_day() const { return first_alarm_day_; }

 private:
  AdaptationConfig config_;
  mining::DriftDetector detector_;
  bool alarm_pending_ = false;  ///< alarm raised, refresh not yet adopted
  int next_refresh_day_ = 0;
  int refresh_gap_ = 0;
  int first_alarm_day_ = -1;
  std::size_t alarms_ = 0;
};

}  // namespace netmaster::service
