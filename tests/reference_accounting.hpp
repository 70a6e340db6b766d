// Differential oracles for the accounting layer.
//
// account_transfers is a branchy per-transfer RRC accountant: the
// oracle for the engine::account_intervals kernel. It walks the
// canonical transfer set one interval at a time, finds each
// allowed-window end with a binary search, and classifies promotions
// with an early-exit tier search — the straightforward reading of the
// semantics documented on account_intervals. radio_timeline_test fuzzes
// the kernel against it bit for bit.
//
// account is a frozen copy of the straightforward sim::account: every
// trace fact (byte totals, peak rates, usage count, screen-on time) is
// recomputed inline on each call, the executed and allowed sets are
// built one add per interval, and the RRC energy comes from
// account_transfers. accounting_test and fleet_test require the
// production accountant to match it on every SimReport field, doubles
// by bit pattern (report_mismatch).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/interval.hpp"
#include "power/radio_model.hpp"
#include "sim/accounting.hpp"

namespace netmaster::reference {

/// mW * ms -> joules, the same expression the kernel uses.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

inline constexpr TimeMs kFar = std::numeric_limits<TimeMs>::max() / 4;

/// End of the allowed window containing t; t itself when t is not
/// covered (radio cut immediately); +inf-ish when unrestricted.
inline TimeMs allowed_until(const IntervalSet* allowed, TimeMs t) {
  if (allowed == nullptr) return kFar;
  const auto& ivs = allowed->intervals();
  const auto it = std::lower_bound(
      ivs.begin(), ivs.end(), t,
      [](const Interval& iv, TimeMs v) { return iv.end <= v; });
  if (it != ivs.end() && it->begin <= t) return it->end;
  return t;
}

inline RadioAccounting account_transfers(
    const IntervalSet& transfers, const RadioModel& model,
    TimeMs horizon_end, const IntervalSet* radio_allowed = nullptr) {
  model.validate();
  RadioAccounting acc;

  // `connected_until` is the end of the current connected period,
  // including the attach/promotion shift applied to each transfer. A
  // sentinel below any valid timestamp marks "never connected yet".
  constexpr TimeMs kNever = std::numeric_limits<TimeMs>::min();
  TimeMs connected_until = kNever;
  const DurationMs total_tail = model.total_tail_ms();

  // Charges the tail chain that ran from `from` until `stop`: the span
  // drains through the tiers in order, each bounded by its own timer.
  const auto charge_tail = [&](TimeMs from, TimeMs stop) {
    DurationMs span = std::max<DurationMs>(stop - from, 0);
    for (std::size_t i = 0; i < model.num_tails; ++i) {
      const DurationMs d = std::min(span, model.tails[i].duration_ms);
      acc.tail_tier_ms[i] += d;
      span -= d;
    }
  };

  for (const Interval& iv : transfers.intervals()) {
    NM_REQUIRE(iv.end <= horizon_end,
               "transfer extends beyond the accounting horizon");
    if (radio_allowed != nullptr) {
      NM_REQUIRE(radio_allowed->contains(iv.begin),
                 "transfer outside the radio-allowed set");
    }
    const DurationMs dur = iv.length();
    TimeMs active_begin = iv.begin;
    DurationMs promo = 0;
    bool cold = false;

    if (connected_until == kNever) {
      cold = true;
    } else if (iv.begin <= connected_until) {
      // Arrives while the connected state is still busy (possibly
      // during a promotion shift): the connected period simply extends.
      active_begin = connected_until;
    } else {
      // The radio was tailing after the previous transfer; the tail
      // survives until the allowed window closes (or forever when
      // unrestricted).
      const TimeMs cut = allowed_until(radio_allowed, connected_until);
      const TimeMs warm_end = connected_until + total_tail;
      const TimeMs tail_stop = std::min({iv.begin, cut, warm_end});
      charge_tail(connected_until, tail_stop);

      if (iv.begin <= cut && iv.begin < warm_end) {
        // Inside some surviving tier: pay that tier's re-promotion.
        TimeMs boundary = connected_until;
        for (std::size_t i = 0; i < model.num_tails; ++i) {
          boundary += model.tails[i].duration_ms;
          if (iv.begin < boundary) {
            promo = model.tails[i].promo_ms;
            break;
          }
        }
      } else {
        // The radio reached IDLE (tail expired or was cut).
        cold = true;
      }
    }

    DurationMs assoc = 0;
    if (cold) {
      promo = model.promo_idle_ms;
      assoc = model.assoc_ms;
      acc.assoc_ms += assoc;
      acc.associations += assoc > 0;
    }
    if (promo > 0) ++acc.promotions;
    acc.promo_ms += promo;
    acc.active_ms += dur;
    connected_until = active_begin + assoc + promo + dur;
  }

  // Trailing tail after the final transfer, clipped at the horizon and
  // the allowed window.
  if (connected_until != kNever && connected_until < horizon_end) {
    const TimeMs cut = allowed_until(radio_allowed, connected_until);
    const TimeMs stop =
        std::min({horizon_end, cut, connected_until + total_tail});
    charge_tail(connected_until, stop);
  }

  acc.radio_on_ms = acc.active_ms + acc.promo_ms + acc.assoc_ms;
  for (std::size_t i = 0; i < model.num_tails; ++i) {
    acc.radio_on_ms += acc.tail_tier_ms[i];
  }
  // Term order matters: active, then the tail chain in order, then
  // promotion, then association. The two-tail profile reproduces the
  // historical sum bit for bit (the association term contributes an
  // exact +0.0 there).
  acc.energy_j = energy_joules(model.active_mw, acc.active_ms);
  for (std::size_t i = 0; i < model.num_tails; ++i) {
    acc.energy_j += energy_joules(model.tails[i].power_mw,
                                  acc.tail_tier_ms[i]);
  }
  acc.energy_j += energy_joules(model.promo_mw, acc.promo_ms);
  acc.energy_j += energy_joules(model.assoc_mw, acc.assoc_ms);
  return acc;
}

/// Frozen straightforward accountant: recomputes the trace facts on
/// every call and makes sim::account's checks in the same order, except
/// the duration checks (a negative duration; one past the horizon,
/// tested without the overflowing start + duration sum), which it does
/// not make.
inline sim::SimReport account(const UserTrace& eval,
                              const sim::PolicyOutcome& outcome,
                              const RadioSet& radios) {
  radios.validate();
  sim::SimReport report;
  report.policy_name = outcome.policy_name;
  report.horizon_ms = eval.trace_end();
  report.degraded =
      outcome.path == sim::ExecutionPath::kDegradedFallback;
  report.degraded_reason = outcome.degraded_reason;
  report.drift_score = outcome.drift_score;

  NM_REQUIRE(outcome.transfers.size() == eval.activities.size(),
             "outcome must execute every activity exactly once");
  std::vector<bool> seen(eval.activities.size(), false);
  IntervalSet executed;
  IntervalSet executed_wifi;
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    NM_REQUIRE(t.activity_index < eval.activities.size(),
               "transfer references unknown activity");
    NM_REQUIRE(!seen[t.activity_index], "activity executed twice");
    seen[t.activity_index] = true;
    NM_REQUIRE(t.start >= 0 && t.start + t.duration <= report.horizon_ms,
               "transfer outside the accounting horizon");
    if (t.radio == RadioId::kWifi) {
      executed_wifi.add(t.start, t.start + t.duration);
      ++report.wifi_transfer_count;
    } else {
      executed.add(t.start, t.start + t.duration);
    }
    const NetworkActivity& act = eval.activities[t.activity_index];
    report.bytes_down += act.bytes_down;
    report.bytes_up += act.bytes_up;
  }

  if (outcome.radio_allowed.has_value()) {
    // Policy windows, executed cellular transfers and duty probes, each
    // clamped to [0, horizon).
    IntervalSet allowed;
    const auto allow = [&](TimeMs begin, TimeMs end) {
      allowed.add(std::max<TimeMs>(begin, 0),
                  std::min(end, report.horizon_ms));
    };
    for (const Interval& iv : outcome.radio_allowed->intervals()) {
      allow(iv.begin, iv.end);
    }
    for (const Interval& iv : executed.intervals()) allow(iv.begin, iv.end);
    for (const duty::WakeEvent& w : outcome.wakes) {
      allow(w.time, w.time + w.window);
    }
    report.radio = account_transfers(executed, radios.cellular,
                                     report.horizon_ms, &allowed);
  } else {
    report.radio =
        account_transfers(executed, radios.cellular, report.horizon_ms);
  }
  if (!executed_wifi.intervals().empty()) {
    report.wifi =
        account_transfers(executed_wifi, radios.wifi, report.horizon_ms);
    report.wifi_energy_j = report.wifi.energy_j;
    report.wifi_on_ms = report.wifi.radio_on_ms;
  }
  report.transfer_energy_j = report.radio.energy_j + report.wifi_energy_j;

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

  const double on_s = to_seconds(report.radio_on_ms);
  if (on_s > 0.0) {
    report.avg_down_rate_kbps =
        static_cast<double>(report.bytes_down) / 1000.0 / on_s;
    report.avg_up_rate_kbps =
        static_cast<double>(report.bytes_up) / 1000.0 / on_s;
  }
  for (const NetworkActivity& act : eval.activities) {
    if (act.duration <= 0) continue;
    const double s = to_seconds(act.duration);
    report.peak_down_rate_kbps =
        std::max(report.peak_down_rate_kbps,
                 static_cast<double>(act.bytes_down) / 1000.0 / s);
    report.peak_up_rate_kbps =
        std::max(report.peak_up_rate_kbps,
                 static_cast<double>(act.bytes_up) / 1000.0 / s);
  }

  report.total_usages = eval.usages.size();
  for (const AppUsage& u : eval.usages) {
    if (outcome.blocked.contains(u.time)) ++report.affected_usages;
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
  for (const ScreenSession& s : eval.sessions) {
    report.screen_on_ms += s.length();
  }
  return report;
}

/// True when the outcome holds a transfer the accountant must reject
/// although the frozen copy above accepts it: a negative duration, or a
/// start + duration that overflows.
inline bool has_impossible_transfer(const sim::PolicyOutcome& outcome,
                                    TimeMs horizon) {
  for (const sim::ExecutedTransfer& t : outcome.transfers) {
    if (t.duration < 0) return true;
    if (t.start >= 0 && t.duration > horizon - t.start) return true;
  }
  return false;
}

/// Names the first SimReport field on which `got` and `want` differ —
/// doubles compared by bit pattern — or returns "" when every field
/// is identical.
inline std::string report_mismatch(const sim::SimReport& got,
                                   const sim::SimReport& want) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto same_radio = [&](const RadioAccounting& a,
                              const RadioAccounting& b) {
    return same(a.energy_j, b.energy_j) && a.radio_on_ms == b.radio_on_ms &&
           a.active_ms == b.active_ms && a.tail_tier_ms == b.tail_tier_ms &&
           a.promo_ms == b.promo_ms && a.assoc_ms == b.assoc_ms &&
           a.promotions == b.promotions && a.associations == b.associations;
  };
  const std::pair<bool, const char*> fields[] = {
      {got.policy_name == want.policy_name, "policy_name"},
      {same(got.energy_j, want.energy_j), "energy_j"},
      {same(got.transfer_energy_j, want.transfer_energy_j),
       "transfer_energy_j"},
      {same(got.duty_energy_j, want.duty_energy_j), "duty_energy_j"},
      {got.radio_on_ms == want.radio_on_ms, "radio_on_ms"},
      {same_radio(got.radio, want.radio), "radio"},
      {got.wake_count == want.wake_count, "wake_count"},
      {same(got.wifi_energy_j, want.wifi_energy_j), "wifi_energy_j"},
      {got.wifi_on_ms == want.wifi_on_ms, "wifi_on_ms"},
      {same_radio(got.wifi, want.wifi), "wifi"},
      {got.wifi_transfer_count == want.wifi_transfer_count,
       "wifi_transfer_count"},
      {got.bytes_down == want.bytes_down, "bytes_down"},
      {got.bytes_up == want.bytes_up, "bytes_up"},
      {same(got.avg_down_rate_kbps, want.avg_down_rate_kbps),
       "avg_down_rate_kbps"},
      {same(got.avg_up_rate_kbps, want.avg_up_rate_kbps),
       "avg_up_rate_kbps"},
      {same(got.peak_down_rate_kbps, want.peak_down_rate_kbps),
       "peak_down_rate_kbps"},
      {same(got.peak_up_rate_kbps, want.peak_up_rate_kbps),
       "peak_up_rate_kbps"},
      {got.total_usages == want.total_usages, "total_usages"},
      {got.affected_usages == want.affected_usages, "affected_usages"},
      {got.interrupts == want.interrupts, "interrupts"},
      {same(got.affected_fraction, want.affected_fraction),
       "affected_fraction"},
      {same(got.mean_deferral_latency_s, want.mean_deferral_latency_s),
       "mean_deferral_latency_s"},
      {got.deferred_count == want.deferred_count, "deferred_count"},
      {got.horizon_ms == want.horizon_ms, "horizon_ms"},
      {got.screen_on_ms == want.screen_on_ms, "screen_on_ms"},
      {got.degraded == want.degraded, "degraded"},
      {got.degraded_reason == want.degraded_reason, "degraded_reason"},
      {same(got.drift_score, want.drift_score), "drift_score"},
  };
  for (const auto& [ok, name] : fields) {
    if (!ok) return name;
  }
  return "";
}

}  // namespace netmaster::reference
