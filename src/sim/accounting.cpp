#include "sim/accounting.hpp"

#include <algorithm>
#include <vector>

#include "common/cursor.hpp"
#include "common/error.hpp"
#include "engine/radio_timeline.hpp"

namespace netmaster::sim {

SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioModel& params) {
  for (const ExecutedTransfer& t : outcome.transfers) {
    NM_REQUIRE(t.radio == RadioId::kCellular,
               "single-radio accounting given a non-cellular transfer");
  }
  RadioSet radios;
  radios.cellular = params;
  return account(eval, outcome, radios);
}

TraceFacts trace_facts(const UserTrace& eval) {
  TraceFacts facts;
  facts.horizon_ms = eval.trace_end();
  for (const NetworkActivity& act : eval.activities) {
    facts.bytes_down += act.bytes_down;
    facts.bytes_up += act.bytes_up;
    // Peak rate is a channel property of individual transfers; policies
    // shift transfers in time but do not change their rate (the paper
    // makes the same observation about Fig. 7c).
    if (act.duration <= 0) continue;
    const double s = to_seconds(act.duration);
    facts.peak_down_rate_kbps =
        std::max(facts.peak_down_rate_kbps,
                 static_cast<double>(act.bytes_down) / 1000.0 / s);
    facts.peak_up_rate_kbps =
        std::max(facts.peak_up_rate_kbps,
                 static_cast<double>(act.bytes_up) / 1000.0 / s);
  }
  facts.total_usages = eval.usages.size();
  for (const ScreenSession& s : eval.sessions) {
    facts.screen_on_ms += s.length();
  }
  return facts;
}

SimReport account(const UserTrace& eval, const PolicyOutcome& outcome,
                  const RadioSet& radios) {
  return account(eval, trace_facts(eval), outcome, radios);
}

SimReport account(const UserTrace& eval, const TraceFacts& facts,
                  const PolicyOutcome& outcome, const RadioSet& radios) {
  radios.validate();
  SimReport report;
  report.policy_name = outcome.policy_name;
  report.horizon_ms = facts.horizon_ms;
  report.degraded = outcome.path == ExecutionPath::kDegradedFallback;
  report.degraded_reason = outcome.degraded_reason;
  report.drift_score = outcome.drift_score;

  // Consistency: every activity executed exactly once, inside the
  // horizon. Transfers are partitioned by their assigned radio — each
  // interface runs an independent state machine.
  NM_REQUIRE(outcome.transfers.size() == eval.activities.size(),
             "outcome must execute every activity exactly once");
  std::vector<bool> seen(eval.activities.size(), false);
  IntervalSet executed;       // cellular transfers
  IntervalSet executed_wifi;  // Wi-Fi offloads
  executed.reserve(outcome.transfers.size());
  for (const ExecutedTransfer& t : outcome.transfers) {
    NM_REQUIRE(t.activity_index < eval.activities.size(),
               "transfer references unknown activity");
    NM_REQUIRE(!seen[t.activity_index], "activity executed twice");
    seen[t.activity_index] = true;
    NM_REQUIRE(t.duration >= 0, "transfer with a negative duration");
    // Compared without forming start + duration, which overflows for
    // durations near INT64_MAX.
    NM_REQUIRE(t.start >= 0 && t.duration <= report.horizon_ms - t.start,
               "transfer outside the accounting horizon");
    if (t.radio == RadioId::kWifi) {
      executed_wifi.add(t.start, t.start + t.duration);
      ++report.wifi_transfer_count;
    } else {
      executed.add(t.start, t.start + t.duration);
    }
  }
  // Every activity ran exactly once, so the outcome moved exactly the
  // trace's bytes.
  report.bytes_down = facts.bytes_down;
  report.bytes_up = facts.bytes_up;

  // Cellular RRC energy over the executed schedule, under the policy's
  // data switch when it drives one, by the engine kernel.
  if (outcome.radio_allowed.has_value()) {
    // One canonical allowed-set construction: the policy's extra
    // windows, the executed cellular transfers themselves, and the
    // duty probes. Wi-Fi transfers do not extend the cellular switch.
    engine::RadioTimeline timeline(report.horizon_ms);
    timeline.allow(*outcome.radio_allowed);
    timeline.allow(executed);
    timeline.allow_wakes(outcome.wakes);
    const IntervalSet allowed = std::move(timeline).build();
    report.radio = engine::account_intervals(
        executed.intervals(), radios.cellular, report.horizon_ms, &allowed);
  } else {
    report.radio = engine::account_intervals(
        executed.intervals(), radios.cellular, report.horizon_ms);
  }

  // The Wi-Fi interface is not behind the cellular data switch: its
  // PSM tails always run to completion, and every cold attach pays the
  // scan/associate burst the model describes.
  if (!executed_wifi.intervals().empty()) {
    report.wifi = engine::account_intervals(
        executed_wifi.intervals(), radios.wifi, report.horizon_ms);
    report.wifi_energy_j = report.wifi.energy_j;
    report.wifi_on_ms = report.wifi.radio_on_ms;
  }
  report.transfer_energy_j = report.radio.energy_j + report.wifi_energy_j;

  // Duty-cycle wake overhead: probes run the cellular radio at
  // FACH-level power (network attach, no dedicated channel). Fruitful
  // wakes overlap transfers and are not double-charged: only the
  // non-overlap part of each probe window is added.
  for (const duty::WakeEvent& w : outcome.wakes) {
    const DurationMs overlap =
        executed.overlap_length(w.time, w.time + w.window);
    const DurationMs extra = w.window - overlap;
    report.duty_energy_j +=
        radios.cellular.probe_mw() * static_cast<double>(extra) * 1e-6;
    report.radio_on_ms += extra;
  }
  report.wake_count = outcome.wakes.size();
  report.radio_on_ms += report.radio.radio_on_ms + report.wifi_on_ms;
  report.energy_j = report.transfer_energy_j + report.duty_energy_j;

  // Bandwidth utilization: achieved bytes per radio-on second.
  const double on_s = to_seconds(report.radio_on_ms);
  if (on_s > 0.0) {
    report.avg_down_rate_kbps =
        static_cast<double>(report.bytes_down) / 1000.0 / on_s;
    report.avg_up_rate_kbps =
        static_cast<double>(report.bytes_up) / 1000.0 / on_s;
  }
  report.peak_down_rate_kbps = facts.peak_down_rate_kbps;
  report.peak_up_rate_kbps = facts.peak_up_rate_kbps;

  // User experience.
  report.total_usages = facts.total_usages;
  // Usages come in time order: one forward cursor over the blocked
  // windows answers IntervalSet::contains for each (common/cursor.hpp).
  if (!outcome.blocked.empty()) {
    CoverCursor<Interval> blocked(outcome.blocked.intervals());
    for (const AppUsage& u : eval.usages) {
      if (blocked.contains(u.time)) ++report.affected_usages;
    }
  }
  report.interrupts = outcome.interrupts;
  if (report.total_usages > 0) {
    report.affected_fraction =
        static_cast<double>(report.affected_usages + report.interrupts) /
        static_cast<double>(report.total_usages);
  }

  report.deferred_count = outcome.deferral_latency_s.size();
  if (report.deferred_count > 0) {
    double sum = 0.0;
    for (double v : outcome.deferral_latency_s) sum += v;
    report.mean_deferral_latency_s =
        sum / static_cast<double>(report.deferred_count);
  }

  report.screen_on_ms = facts.screen_on_ms;
  return report;
}

}  // namespace netmaster::sim
