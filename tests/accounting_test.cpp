// Tests for the accounting layer (PolicyOutcome -> SimReport): the
// metrics on hand-built outcomes, the per-user trace facts, the
// rejection of impossible transfers, and a differential check of every
// report field against the frozen accountant in
// tests/reference_accounting.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/sanitize.hpp"
#include "policy/delay.hpp"
#include "policy/netmaster.hpp"
#include "reference_accounting.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::sim {
namespace {

UserTrace fixture() {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  t.sessions = {{seconds(50), seconds(80)}};
  t.usages = {{0, seconds(55), seconds(5)}, {0, seconds(70), seconds(5)}};
  NetworkActivity n1;
  n1.app = 0;
  n1.start = seconds(10);
  n1.duration = seconds(4);
  n1.bytes_down = 8000;
  n1.bytes_up = 2000;
  n1.deferrable = true;
  NetworkActivity n2 = n1;
  n2.start = seconds(60);
  n2.bytes_down = 4000;
  n2.bytes_up = 0;
  n2.user_initiated = true;
  n2.deferrable = false;
  t.activities = {n1, n2};
  return t;
}

PolicyOutcome in_place_outcome(const UserTrace& t) {
  PolicyOutcome o;
  o.policy_name = "test";
  for (std::size_t i = 0; i < t.activities.size(); ++i) {
    o.transfers.push_back(
        {i, t.activities[i].start, t.activities[i].duration});
  }
  return o;
}

TEST(Accounting, BasicMetrics) {
  const UserTrace t = fixture();
  const SimReport r =
      account(t, in_place_outcome(t), RadioPowerParams::wcdma());
  EXPECT_EQ(r.policy_name, "test");
  EXPECT_EQ(r.bytes_down, 12'000);
  EXPECT_EQ(r.bytes_up, 2000);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.radio_on_ms, 0);
  EXPECT_EQ(r.total_usages, 2u);
  EXPECT_EQ(r.screen_on_ms, seconds(30));
  EXPECT_EQ(r.horizon_ms, kMsPerDay);
  // Two isolated transfers: two promotions.
  EXPECT_EQ(r.radio.promotions, 2);
  // Peak rates from single activities: n1 down 8kB/4s = 2 kB/s.
  EXPECT_DOUBLE_EQ(r.peak_down_rate_kbps, 2.0);
  EXPECT_DOUBLE_EQ(r.peak_up_rate_kbps, 0.5);
  // Avg rate = bytes / radio-on seconds.
  EXPECT_NEAR(r.avg_down_rate_kbps,
              12.0 / to_seconds(r.radio_on_ms), 1e-9);
}

TEST(Accounting, MissingTransferThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.pop_back();
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, DuplicateTransferThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().activity_index = 0;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, TransferBeyondHorizonThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().start = t.trace_end() - 1000;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, UnknownActivityIndexThrows) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().activity_index = 99;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, BlockedWindowsCountAffectedUsages) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.blocked.add(seconds(54), seconds(56));  // covers the first usage
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.affected_usages, 1u);
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.5);
}

TEST(Accounting, InterruptsAddToAffectedFraction) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.interrupts = 1;
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.5);
  EXPECT_EQ(r.interrupts, 1u);
}

TEST(Accounting, DutyWakesChargedAtFachPower) {
  const UserTrace t = fixture();
  PolicyOutcome quiet = in_place_outcome(t);
  const SimReport base = account(t, quiet, RadioPowerParams::wcdma());

  PolicyOutcome with_wakes = in_place_outcome(t);
  with_wakes.wakes.push_back({seconds(200), 2000, false});
  const SimReport r = account(t, with_wakes, RadioPowerParams::wcdma());
  EXPECT_EQ(r.wake_count, 1u);
  const double expected = 460.0 * 2000 * 1e-6;
  EXPECT_NEAR(r.duty_energy_j, expected, 1e-9);
  EXPECT_NEAR(r.energy_j, base.energy_j + expected, 1e-9);
  EXPECT_EQ(r.radio_on_ms, base.radio_on_ms + 2000);
}

TEST(Accounting, WakeOverlappingTransferNotDoubleCharged) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  // Probe entirely inside the first transfer: zero extra energy.
  o.wakes.push_back({seconds(11), 2000, true});
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.duty_energy_j, 0.0);
}

TEST(Accounting, RadioAllowedCutsEnergy) {
  const UserTrace t = fixture();
  PolicyOutcome stock = in_place_outcome(t);
  const SimReport full = account(t, stock, RadioPowerParams::wcdma());

  PolicyOutcome switched = in_place_outcome(t);
  switched.radio_allowed = IntervalSet{};  // transfers only, no tails
  const SimReport cut = account(t, switched, RadioPowerParams::wcdma());
  EXPECT_LT(cut.energy_j, full.energy_j);
  EXPECT_LT(cut.radio_on_ms, full.radio_on_ms);
}

TEST(Accounting, MeanDeferralLatency) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.deferral_latency_s = {10.0, 30.0};
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.deferred_count, 2u);
  EXPECT_DOUBLE_EQ(r.mean_deferral_latency_s, 20.0);
}

// ---- Multi-radio accountant (RadioSet overload) ----

TEST(Accounting, RadioSetAllCellularBitIdentical) {
  // Outcomes with no Wi-Fi transfers must reproduce the single-radio
  // report bit for bit through the RadioSet overload — this is what
  // lets the fleet layer route every run through one accountant.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.wakes.push_back({seconds(200), 2000, false});
  o.deferral_latency_s = {10.0};
  RadioSet radios;  // wcdma cellular + wifi defaults
  const SimReport single = account(t, o, RadioModel::wcdma());
  const SimReport multi = account(t, o, radios);
  EXPECT_EQ(multi.energy_j, single.energy_j);
  EXPECT_EQ(multi.transfer_energy_j, single.transfer_energy_j);
  EXPECT_EQ(multi.duty_energy_j, single.duty_energy_j);
  EXPECT_EQ(multi.radio_on_ms, single.radio_on_ms);
  EXPECT_EQ(multi.radio.energy_j, single.radio.energy_j);
  EXPECT_DOUBLE_EQ(multi.wifi_energy_j, 0.0);
  EXPECT_EQ(multi.wifi_on_ms, 0);
  EXPECT_EQ(multi.wifi_transfer_count, 0u);
  EXPECT_EQ(multi.wifi.associations, 0);
}

TEST(Accounting, WifiTransfersPartitionedOntoOwnMachine) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  RadioSet radios;
  const SimReport r = account(t, o, radios);
  EXPECT_EQ(r.wifi_transfer_count, 1u);
  EXPECT_GT(r.wifi_energy_j, 0.0);
  EXPECT_GT(r.wifi_on_ms, 0);
  EXPECT_EQ(r.wifi.associations, 1);
  // One isolated cellular transfer remains: a single promotion.
  EXPECT_EQ(r.radio.promotions, 1);
  // The two interfaces sum into the headline figures.
  EXPECT_DOUBLE_EQ(r.transfer_energy_j,
                   r.radio.energy_j + r.wifi_energy_j);
  EXPECT_EQ(r.radio_on_ms, r.radio.radio_on_ms + r.wifi_on_ms);
  // Bytes are radio-agnostic.
  EXPECT_EQ(r.bytes_down, 12'000);
}

TEST(Accounting, WifiNotBehindCellularDataSwitch) {
  // A data switch that blocks everything outside the transfer windows
  // cuts cellular tails but leaves the Wi-Fi machine free-running: the
  // AP association is not behind `svc data disable`.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  const RadioSet radios;
  const SimReport free_running = account(t, o, radios);
  o.radio_allowed = IntervalSet{};
  for (const ExecutedTransfer& tr : o.transfers) {
    if (tr.radio == RadioId::kCellular) {
      o.radio_allowed->add(tr.start, tr.start + tr.duration);
    }
  }
  const SimReport switched = account(t, o, radios);
  EXPECT_EQ(switched.wifi_energy_j, free_running.wifi_energy_j);
  EXPECT_LT(switched.radio.energy_j, free_running.radio.energy_j);
}

TEST(Accounting, SingleRadioOverloadRejectsWifiTransfers) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers[0].radio = RadioId::kWifi;
  EXPECT_THROW(account(t, o, RadioModel::wcdma()), Error);
}

// Usage and wake queries on the edges of the blocked and executed sets,
// in and out of time order.
TEST(Accounting, UsagesOnBlockedEdgesAndOutOfOrder) {
  const UserTrace base = fixture();
  PolicyOutcome o = in_place_outcome(base);
  o.blocked.add(seconds(100), seconds(200));
  o.blocked.add(seconds(300), seconds(400));
  UserTrace t = base;
  // begin, end - 1 and end of each blocked interval, then a query that
  // goes backwards into the first interval, then a duplicate.
  t.usages = {{0, seconds(100), 1},     {0, seconds(200) - 1, 1},
              {0, seconds(200), 1},     {0, seconds(300), 1},
              {0, seconds(400) - 1, 1}, {0, seconds(400), 1},
              {0, seconds(150), 1},     {0, seconds(150), 1}};
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.affected_usages, 6u);
}

TEST(Accounting, WakesOutOfOrderDuplicatedAndEmpty) {
  const UserTrace t = fixture();  // transfers [10 s, 14 s) and [60 s, 64 s)
  PolicyOutcome o = in_place_outcome(t);
  o.wakes = {{seconds(61), 2000, true},   // inside the second transfer
             {seconds(13), 2000, true},   // backwards: 1 s overlap
             {seconds(13), 2000, true},   // duplicate
             {seconds(12), 0, false},     // zero-length window
             {seconds(200), 1000, false}};
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_EQ(r.radio_on_ms - r.radio.radio_on_ms, 0 + 1000 + 1000 + 0 + 1000);
}

TEST(Accounting, EmptyTrace) {
  UserTrace t;
  t.user = 1;
  t.num_days = 1;
  t.app_names = {"a"};
  PolicyOutcome o;
  o.policy_name = "empty";
  const SimReport r = account(t, o, RadioPowerParams::wcdma());
  EXPECT_DOUBLE_EQ(r.energy_j, 0.0);
  EXPECT_EQ(r.radio_on_ms, 0);
  EXPECT_DOUBLE_EQ(r.affected_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.avg_down_rate_kbps, 0.0);
}

// ---- Trace facts ----

TEST(TraceFacts, EmptyTrace) {
  UserTrace t;
  t.num_days = 2;
  const TraceFacts f = trace_facts(t);
  EXPECT_EQ(f.horizon_ms, 2 * kMsPerDay);
  EXPECT_EQ(f.bytes_down, 0);
  EXPECT_EQ(f.bytes_up, 0);
  EXPECT_EQ(f.peak_down_rate_kbps, 0.0);
  EXPECT_EQ(f.peak_up_rate_kbps, 0.0);
  EXPECT_EQ(f.total_usages, 0u);
  EXPECT_EQ(f.screen_on_ms, 0);
}

TEST(TraceFacts, ZeroDurationActivitiesCountBytesButNoRate) {
  UserTrace t = fixture();
  NetworkActivity instant = t.activities.front();
  instant.start = seconds(30);
  instant.duration = 0;
  instant.bytes_down = 1'000'000;  // would dominate any finite rate
  instant.bytes_up = 1'000'000;
  t.activities.insert(t.activities.begin() + 1, instant);
  const TraceFacts f = trace_facts(t);
  EXPECT_EQ(f.bytes_down, 1'012'000);
  EXPECT_EQ(f.bytes_up, 1'002'000);
  EXPECT_DOUBLE_EQ(f.peak_down_rate_kbps, 2.0);
  EXPECT_DOUBLE_EQ(f.peak_up_rate_kbps, 0.5);

  // A zero-duration transfer is a valid outcome: it runs, adds no
  // radio time of its own, and the report matches the frozen copy.
  const PolicyOutcome o = in_place_outcome(t);
  const RadioSet radios;
  EXPECT_EQ(reference::report_mismatch(account(t, o, radios),
                                       reference::account(t, o, radios)),
            "");
}

TEST(TraceFacts, SingleActivity) {
  UserTrace t = fixture();
  t.activities.resize(1);
  t.activities[0].duration = 500;
  t.activities[0].bytes_down = 3000;
  t.activities[0].bytes_up = 1000;
  const TraceFacts f = trace_facts(t);
  EXPECT_EQ(f.bytes_down, 3000);
  EXPECT_EQ(f.bytes_up, 1000);
  EXPECT_DOUBLE_EQ(f.peak_down_rate_kbps, 6.0);
  EXPECT_DOUBLE_EQ(f.peak_up_rate_kbps, 2.0);
}

// ---- Impossible transfers ----

TEST(Accounting, NegativeDurationThrows) {
  // Unchecked, a negative transfer adds nothing to the executed set
  // and its activity's energy silently vanishes from the report.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().duration = -seconds(4);
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
  EXPECT_THROW(account(t, o, RadioSet{}), Error);
}

TEST(Accounting, DurationNearInt64MaxThrows) {
  // start + duration overflows; the check must not form that sum.
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().duration = std::numeric_limits<DurationMs>::max();
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
  o.transfers.back().duration =
      std::numeric_limits<DurationMs>::max() - o.transfers.back().start + 1;
  EXPECT_THROW(account(t, o, RadioPowerParams::wcdma()), Error);
}

TEST(Accounting, TransferEndingAtHorizonAccepted) {
  const UserTrace t = fixture();
  PolicyOutcome o = in_place_outcome(t);
  o.transfers.back().start = t.trace_end() - o.transfers.back().duration;
  EXPECT_NO_THROW(account(t, o, RadioPowerParams::wcdma()));
}

// ---- Differential check against the frozen accountant ----

/// Accounts `outcome` on both paths and requires bit-identical reports,
/// or — when either side rejects the outcome — that both do. Outcomes
/// with a negative or overflowing duration must be rejected by the
/// production path even though the frozen copy accepted them.
void expect_matches_frozen(const UserTrace& eval, const PolicyOutcome& outcome,
                           const RadioSet& radios,
                           const std::string& context) {
  if (reference::has_impossible_transfer(outcome, eval.trace_end())) {
    EXPECT_THROW(account(eval, outcome, radios), Error) << context;
    return;
  }
  SimReport want;
  try {
    want = reference::account(eval, outcome, radios);
  } catch (const Error&) {
    EXPECT_THROW(account(eval, outcome, radios), Error) << context;
    return;
  }
  const SimReport got = account(eval, trace_facts(eval), outcome, radios);
  EXPECT_EQ(reference::report_mismatch(got, want), "") << context;
}

eval::ExperimentConfig oracle_config(std::uint64_t seed) {
  eval::ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  cfg.seed = seed;
  return cfg;
}

RadioSet session_radios(const eval::ExperimentConfig& cfg) {
  RadioSet radios;
  radios.cellular = cfg.netmaster.profit.radio;
  radios.wifi = cfg.netmaster.profit.wifi;
  return radios;
}

TEST(AccountingOracle, EveryArchetypeAndPolicyMatchesFrozenCopy) {
  for (int arch = 0; arch < 10; ++arch) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const eval::ExperimentConfig cfg = oracle_config(seed);
      const eval::VolunteerTraces traces = eval::make_traces(
          synth::make_user(static_cast<synth::Archetype>(arch), 1), cfg);
      const RadioSet radios = session_radios(cfg);
      for (const eval::PolicySpec& spec :
           eval::standard_policy_suite(cfg.netmaster)) {
        const auto policy = spec.make(traces.training);
        expect_matches_frozen(traces.eval, policy->run(traces.eval), radios,
                              "archetype " + std::to_string(arch) +
                                  " seed " + std::to_string(seed) + " " +
                                  spec.name);
      }
    }
  }
}

/// The eval trace corrupted by every fault kind at every chaos rate and
/// seed, plus all kinds stacked.
std::vector<std::pair<std::string, UserTrace>> chaos_eval_corpus(
    const UserTrace& eval) {
  std::vector<std::pair<std::string, UserTrace>> corpus;
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    for (const double rate : {0.05, 0.2, 0.5}) {
      for (const std::uint64_t seed : {1u, 7u, 31u}) {
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.with(kind, rate);
        corpus.emplace_back(std::string(fault::kind_name(kind)) + " rate " +
                                std::to_string(rate) + " seed " +
                                std::to_string(seed),
                            fault::inject_faults(eval, plan).trace);
      }
    }
  }
  fault::FaultPlan stacked;
  stacked.seed = 99;
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    stacked.with(kind, 0.3);
  }
  corpus.emplace_back("all kinds stacked",
                      fault::inject_faults(eval, stacked).trace);
  return corpus;
}

TEST(AccountingOracle, ChaosCorpusMatchesFrozenCopy) {
  const eval::ExperimentConfig cfg = oracle_config(42);
  const eval::VolunteerTraces traces = eval::make_traces(
      synth::make_user(synth::Archetype::kOfficeWorker, 1), cfg);
  const RadioSet radios = session_radios(cfg);
  const auto suite = eval::standard_policy_suite(cfg.netmaster);
  for (const auto& [name, corrupt] : chaos_eval_corpus(traces.eval)) {
    // The raw corrupted trace, each activity executed where it lies
    // (unsorted, negative or out-of-horizon timings included), with and
    // without a data switch, blocked windows and duty probes.
    PolicyOutcome raw = in_place_outcome(corrupt);
    expect_matches_frozen(corrupt, raw, radios, name + " raw");
    raw.blocked.add(seconds(3600), seconds(7200));
    raw.wakes.push_back({seconds(5000), 2000, false});
    raw.radio_allowed = IntervalSet{};
    raw.radio_allowed->add(seconds(100), seconds(9000));
    expect_matches_frozen(corrupt, raw, radios, name + " raw switched");

    // The sanitized trace under the whole suite.
    const UserTrace repaired = fault::sanitize_trace(corrupt).trace;
    for (const eval::PolicySpec& spec : suite) {
      const auto policy = spec.make(traces.training);
      expect_matches_frozen(repaired, policy->run(repaired), radios,
                            name + " " + spec.name);
    }
  }
}

TEST(AccountingOracle, UnsortedUsagesMatchFrozenCopy) {
  // The affected-usage count walks the usages with a forward cursor
  // over the blocked windows; usages out of time order re-seek it.
  // Fixed-interval delays block windows that reach into screen
  // sessions, so usages land in them; every shuffle of
  // the usages must count what the frozen copy counts.
  const eval::ExperimentConfig cfg = oracle_config(5);
  const RadioSet radios = session_radios(cfg);
  Rng rng(5);
  for (const synth::Archetype arch :
       {synth::Archetype::kHeavyMessenger, synth::Archetype::kStudent}) {
    const eval::VolunteerTraces traces =
        eval::make_traces(synth::make_user(arch, 2), cfg);
    for (const DurationMs interval : {seconds(60), seconds(600)}) {
      const PolicyOutcome o = policy::DelayPolicy(interval).run(traces.eval);
      ASSERT_FALSE(o.blocked.empty());
      UserTrace eval = traces.eval;
      expect_matches_frozen(eval, o, radios, "sorted");
      ASSERT_GT(account(eval, o, radios).affected_usages, 0u);
      std::reverse(eval.usages.begin(), eval.usages.end());
      expect_matches_frozen(eval, o, radios, "reversed");
      for (int shuffle = 0; shuffle < 3; ++shuffle) {
        for (std::size_t i = eval.usages.size(); i > 1; --i) {
          std::swap(eval.usages[i - 1],
                    eval.usages[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(i) - 1))]);
        }
        expect_matches_frozen(eval, o, radios,
                              "shuffle " + std::to_string(shuffle));
      }
    }
  }
}

TEST(AccountingOracle, WifiCoScheduledOutcomeMatchesFrozenCopy) {
  const auto profile =
      synth::make_user(synth::Archetype::kPodcastCommuter, 3);
  const UserTrace full = synth::generate_trace(profile, 21, 42);
  const UserTrace training = full.slice_days(0, 14);
  const UserTrace eval = full.slice_days(14, 7);
  policy::NetMasterConfig cfg;
  cfg.enable_wifi_offload = true;
  const PolicyOutcome o = policy::NetMasterPolicy(training, cfg).run(eval);
  std::size_t wifi = 0;
  for (const ExecutedTransfer& t : o.transfers) {
    wifi += t.radio == RadioId::kWifi;
  }
  ASSERT_GT(wifi, 0u);
  expect_matches_frozen(eval, o, RadioSet{}, "wifi co-scheduled");
}

}  // namespace
}  // namespace netmaster::sim
