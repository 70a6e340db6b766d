// Canonical builder for the radio on/off timeline.
//
// Policies that drive the data switch (NetMaster, the oracle, the
// online event loop) all need the same construction: the set of windows
// in which the radio may be non-IDLE — executed transfers extended by
// the dormancy-signalling grace, duty-cycle wake probes, predicted
// active slots. Each used to assemble that IntervalSet by hand;
// RadioTimeline is the one shared builder, clamping every window to
// [0, horizon) and keeping the set canonical, and the accountant
// (sim/accounting.cpp) consumes the same representation.
#pragma once

#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "duty/duty_cycle.hpp"
#include "power/radio_model.hpp"
#include "sim/outcome.hpp"

namespace netmaster::engine {

class RadioTimeline {
 public:
  explicit RadioTimeline(TimeMs horizon);

  TimeMs horizon() const { return horizon_; }

  /// Allows the radio inside [begin, end), clamped to [0, horizon).
  void allow(TimeMs begin, TimeMs end);
  void allow(const Interval& window) { allow(window.begin, window.end); }

  /// Union with an existing canonical set (clamped per interval).
  void allow(const IntervalSet& set);

  void allow_windows(const std::vector<Interval>& windows);

  /// Allows each executed transfer's interval, extended by `grace`
  /// (the release-signalling delay before the forced dormancy drop).
  /// Transfers assigned to a non-cellular radio are skipped: this
  /// timeline models the cellular data switch, and a Wi-Fi transfer
  /// does not hold the cellular radio open.
  void allow_transfers(const std::vector<sim::ExecutedTransfer>& transfers,
                       DurationMs grace = 0);

  /// Allows each duty-cycle probe window.
  void allow_wakes(const std::vector<duty::WakeEvent>& wakes);

  const IntervalSet& allowed() const { return allowed_; }
  IntervalSet build() const& { return allowed_; }
  IntervalSet build() && { return std::move(allowed_); }

 private:
  /// Unions a canonical batch of clamped windows into the timeline with
  /// one linear merge (or takes it whole when the timeline is empty).
  void merge(IntervalSet batch);

  TimeMs horizon_;
  IntervalSet allowed_;
};

/// RRC state-residency accounting over a canonical transfer set:
/// integrates the power model over the transfers, clipping the
/// trailing tail at `horizon_end` (end of the accounting window).
/// Transfers starting during a promotion or while the connected state
/// is active continue the connected period without a new promotion; the
/// model shifts each transfer's completion by its promotion delay, as
/// real radios do. A cold attach additionally pays the association cost
/// before the promotion when the model has one.
///
/// When `radio_allowed` is non-null it models a policy-controlled data
/// switch (NetMaster's `svc data disable`): inactivity tails survive
/// only while inside the allowed set and are cut — radio straight to
/// IDLE — at its boundaries. Every transfer must lie inside the allowed
/// set; a transfer arriving after a cut always pays a cold promotion.
/// Null means the stock radio: tails always run to completion.
///
/// `transfers` must be canonical (sorted, disjoint, non-empty — an
/// IntervalSet's own storage). The kernel reads the intervals in place
/// and makes a single branch-minimized pass: tail spans drain through
/// the tier chain with max/min clamps, promotion classes are
/// boolean-arithmetic selectors over the tier boundaries instead of a
/// branchy tier search, and the allowed-set lookups are two monotone
/// merge cursors instead of per-transfer binary searches (O(n + m)
/// total). Energy is derived once at the end from the integer
/// millisecond totals. radio_timeline_test fuzzes it bit for bit
/// against a branchy per-transfer reference over random 1–4-tier
/// models. Takes any RadioModel (RadioPowerParams converts implicitly).
RadioAccounting account_intervals(std::span<const Interval> transfers,
                                  const RadioModel& model,
                                  TimeMs horizon_end,
                                  const IntervalSet* radio_allowed = nullptr);

}  // namespace netmaster::engine
