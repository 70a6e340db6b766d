// Tests for eval::run_fleet: grid shape and addressing, aggregate
// consistency with the cells, agreement with the per-volunteer
// comparison path and with per-call accounting, and thread-count
// determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/experiments.hpp"
#include "eval/fleet.hpp"
#include "reference_accounting.hpp"
#include "sim/accounting.hpp"
#include "synth/presets.hpp"

namespace netmaster::eval {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.train_days = 7;
  cfg.eval_days = 3;
  cfg.seed = 42;
  return cfg;
}

std::vector<synth::UserProfile> small_fleet() {
  return {synth::make_user(synth::Archetype::kOfficeWorker, 1),
          synth::make_user(synth::Archetype::kNightOwl, 2),
          synth::make_user(synth::Archetype::kLightUser, 3)};
}

TEST(Fleet, GridShapeAndBaselineReference) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  ASSERT_EQ(report.num_users, 3u);
  ASSERT_EQ(report.num_policies, suite.size());
  ASSERT_EQ(report.cells.size(), report.num_users * report.num_policies);
  ASSERT_EQ(report.aggregates.size(), suite.size());

  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < report.num_policies; ++p) {
      const FleetCell& cell = report.cell(u, p);
      EXPECT_EQ(cell.policy, suite[p].name);
      EXPECT_GT(cell.report.energy_j, 0.0);
    }
    // Policy 0 is the baseline: saving 0 against itself, radio-on
    // fraction exactly 1.
    const FleetCell& base = report.cell(u, 0);
    EXPECT_DOUBLE_EQ(base.energy_saving, 0.0);
    EXPECT_DOUBLE_EQ(base.radio_on_fraction, 1.0);
  }
}

TEST(Fleet, AggregatesFoldTheCells) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  for (std::size_t p = 0; p < report.num_policies; ++p) {
    const FleetAggregate& agg = report.aggregates[p];
    EXPECT_EQ(agg.policy, suite[p].name);
    EXPECT_EQ(agg.energy_saving.count(), report.num_users);
    double saving_sum = 0.0;
    double energy_sum = 0.0;
    for (std::size_t u = 0; u < report.num_users; ++u) {
      saving_sum += report.cell(u, p).energy_saving;
      energy_sum += report.cell(u, p).report.energy_j;
    }
    EXPECT_NEAR(agg.energy_saving.mean(),
                saving_sum / static_cast<double>(report.num_users), 1e-12);
    EXPECT_NEAR(agg.total_energy_j, energy_sum, 1e-9);
  }
}

TEST(Fleet, MatchesPerVolunteerComparison) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const FleetReport report = run_fleet(users, suite, cfg);

  // compare_policies runs the same suite in the same order (baseline,
  // oracle, netmaster, delay&batch 10/20/60) on the same traces.
  for (std::size_t u = 0; u < users.size(); ++u) {
    const VolunteerComparison comparison = compare_policies(users[u], cfg);
    ASSERT_EQ(comparison.rows.size(), suite.size());
    for (std::size_t p = 0; p < suite.size(); ++p) {
      EXPECT_DOUBLE_EQ(report.cell(u, p).report.energy_j,
                       comparison.rows[p].report.energy_j)
          << users[u].name << " / " << suite[p].name;
      EXPECT_DOUBLE_EQ(report.cell(u, p).energy_saving,
                       comparison.rows[p].energy_saving);
    }
  }
}

TEST(Fleet, CellReportsEqualPerCallAccounting) {
  // run_cell accounts with the session's per-user trace facts; the
  // per-call overload recomputes them. Every report field must agree,
  // doubles by bit pattern, and the session's baseline must equal the
  // baseline cell.
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const EvalSession session(small_fleet(), cfg);
  const FleetReport report = run_fleet(session, suite);
  RadioSet radios;
  radios.cellular = cfg.netmaster.profit.radio;
  radios.wifi = cfg.netmaster.profit.wifi;

  for (std::size_t u = 0; u < session.num_users(); ++u) {
    const UserStore::Pin traces = session.traces(u);
    const sim::TraceFacts facts = sim::trace_facts(traces.eval());
    EXPECT_EQ(session.facts(u).horizon_ms, facts.horizon_ms);
    EXPECT_EQ(session.facts(u).bytes_down, facts.bytes_down);
    EXPECT_EQ(session.facts(u).screen_on_ms, facts.screen_on_ms);
    for (std::size_t p = 0; p < suite.size(); ++p) {
      const auto policy = suite[p].make(traces.training());
      const sim::SimReport per_call = sim::account(
          traces.eval(), policy->run(session.index(u)), radios);
      EXPECT_EQ(reference::report_mismatch(report.cell(u, p).report,
                                           per_call),
                "")
          << "user " << u << " / " << suite[p].name;
    }
    EXPECT_EQ(reference::report_mismatch(session.baseline(u),
                                         report.cell(u, 0).report),
              "")
        << "baseline of user " << u;
  }
}

TEST(Fleet, DeterministicAcrossThreadCounts) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const FleetReport serial = run_fleet(users, suite, cfg, 1);
  const FleetReport threaded = run_fleet(users, suite, cfg, 4);

  ASSERT_EQ(serial.cells.size(), threaded.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    EXPECT_EQ(serial.cells[c].policy, threaded.cells[c].policy);
    EXPECT_EQ(serial.cells[c].report.energy_j,
              threaded.cells[c].report.energy_j);
    EXPECT_EQ(serial.cells[c].report.radio_on_ms,
              threaded.cells[c].report.radio_on_ms);
    EXPECT_EQ(serial.cells[c].energy_saving,
              threaded.cells[c].energy_saving);
  }
}

TEST(Fleet, FusedGraphMatchesStagedSessionAtEveryWorkerCount) {
  // The fused run_fleet path (one graph: trace_gen -> prepare -> cells
  // per user, no stage barrier) must be bit-identical to building the
  // session first and running the grid over it — at every worker count.
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const auto users = small_fleet();
  const EvalSession session(users, cfg, 1);
  const FleetReport staged = run_fleet(session, suite, 1);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const FleetReport fused = run_fleet(users, suite, cfg, threads);
    ASSERT_EQ(fused.cells.size(), staged.cells.size()) << threads;
    for (std::size_t c = 0; c < staged.cells.size(); ++c) {
      EXPECT_EQ(fused.cells[c].policy, staged.cells[c].policy);
      EXPECT_EQ(fused.cells[c].report.energy_j,
                staged.cells[c].report.energy_j)
          << "threads=" << threads << " cell=" << c;
      EXPECT_EQ(fused.cells[c].report.radio_on_ms,
                staged.cells[c].report.radio_on_ms);
      EXPECT_EQ(fused.cells[c].energy_saving,
                staged.cells[c].energy_saving);
      EXPECT_EQ(fused.cells[c].report.affected_usages,
                staged.cells[c].report.affected_usages);
    }
    ASSERT_EQ(fused.aggregates.size(), staged.aggregates.size());
    for (std::size_t p = 0; p < staged.aggregates.size(); ++p) {
      EXPECT_EQ(fused.aggregates[p].total_energy_j,
                staged.aggregates[p].total_energy_j);
    }
  }
}

TEST(Fleet, RejectsEmptyPolicySuite) {
  const ExperimentConfig cfg = small_config();
  EXPECT_THROW(run_fleet(small_fleet(), {}, cfg), Error);
}

TEST(Fleet, BoundsCheckedAtMatchesRawCell) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const FleetReport report = run_fleet(small_fleet(), suite, cfg);

  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < report.num_policies; ++p) {
      EXPECT_EQ(&report.at(u, p), &report.cell(u, p));
    }
  }
  EXPECT_THROW(report.at(report.num_users, 0), Error);
  EXPECT_THROW(report.at(0, report.num_policies), Error);

  // A truncated grid is caught even when the indexes look in-range.
  FleetReport truncated = report;
  truncated.cells.resize(truncated.cells.size() - 1);
  EXPECT_THROW(
      truncated.at(truncated.num_users - 1, truncated.num_policies - 1),
      Error);
}

TEST(Fleet, SessionIsReusableAcrossRuns) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const EvalSession session(small_fleet(), cfg);

  ASSERT_EQ(session.num_users(), 3u);
  EXPECT_EQ(session.num_ok(), 3u);
  for (std::size_t u = 0; u < session.num_users(); ++u) {
    EXPECT_TRUE(session.ok(u));
    EXPECT_GT(session.baseline(u).energy_j, 0.0);
    EXPECT_EQ(session.index(u).trace().user, session.user_id(u));
  }

  // Two runs over the same session agree with the throwaway-session
  // entry point bit for bit — the cache changes cost, not results.
  const FleetReport fresh = run_fleet(small_fleet(), suite, cfg);
  const FleetReport first = run_fleet(session, suite);
  const FleetReport second = run_fleet(session, suite);
  ASSERT_EQ(first.cells.size(), fresh.cells.size());
  for (std::size_t c = 0; c < fresh.cells.size(); ++c) {
    EXPECT_EQ(first.cells[c].report.energy_j, fresh.cells[c].report.energy_j);
    EXPECT_EQ(first.cells[c].report.energy_j,
              second.cells[c].report.energy_j);
    EXPECT_EQ(first.cells[c].energy_saving, second.cells[c].energy_saving);
  }
}

TEST(Fleet, SlicePoliciesExtractsColumns) {
  const ExperimentConfig cfg = small_config();
  const auto suite = standard_policy_suite(cfg.netmaster);
  const EvalSession session(small_fleet(), cfg);
  const FleetReport report = run_fleet(session, suite);

  const FleetReport slice = slice_policies(session, report, 1, 2);
  ASSERT_EQ(slice.num_users, report.num_users);
  ASSERT_EQ(slice.num_policies, 2u);
  ASSERT_EQ(slice.aggregates.size(), 2u);
  EXPECT_EQ(slice.aggregates[0].policy, suite[1].name);
  EXPECT_EQ(slice.aggregates[1].policy, suite[2].name);
  for (std::size_t u = 0; u < slice.num_users; ++u) {
    for (std::size_t p = 0; p < 2u; ++p) {
      EXPECT_EQ(slice.at(u, p).report.energy_j,
                report.at(u, p + 1).report.energy_j);
    }
  }
  // Aggregates of a slice fold exactly the sliced columns.
  EXPECT_NEAR(slice.aggregates[0].energy_saving.mean(),
              report.aggregates[1].energy_saving.mean(), 1e-12);
  EXPECT_THROW(slice_policies(session, report, 0, 0), Error);
  EXPECT_THROW(slice_policies(session, report, 5, 2), Error);
}


/// FNV-1a over every SimReport field of every cell (doubles by bit
/// pattern, strings byte by byte) plus the failure flag, user-major.
std::uint64_t full_report_hash(const FleetReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  auto mix_string = [&mix](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  };
  auto mix_radio = [&](const RadioAccounting& r) {
    mix_double(r.energy_j);
    mix(static_cast<std::uint64_t>(r.radio_on_ms));
    mix(static_cast<std::uint64_t>(r.active_ms));
    for (const DurationMs t : r.tail_tier_ms) {
      mix(static_cast<std::uint64_t>(t));
    }
    mix(static_cast<std::uint64_t>(r.promo_ms));
    mix(static_cast<std::uint64_t>(r.assoc_ms));
    mix(static_cast<std::uint64_t>(r.promotions));
    mix(static_cast<std::uint64_t>(r.associations));
  };
  for (const FleetCell& cell : report.cells) {
    mix(cell.failed ? 1 : 0);
    const sim::SimReport& r = cell.report;
    mix_string(r.policy_name);
    mix_double(r.energy_j);
    mix_double(r.transfer_energy_j);
    mix_double(r.duty_energy_j);
    mix(static_cast<std::uint64_t>(r.radio_on_ms));
    mix_radio(r.radio);
    mix(r.wake_count);
    mix_double(r.wifi_energy_j);
    mix(static_cast<std::uint64_t>(r.wifi_on_ms));
    mix_radio(r.wifi);
    mix(r.wifi_transfer_count);
    mix(static_cast<std::uint64_t>(r.bytes_down));
    mix(static_cast<std::uint64_t>(r.bytes_up));
    mix_double(r.avg_down_rate_kbps);
    mix_double(r.avg_up_rate_kbps);
    mix_double(r.peak_down_rate_kbps);
    mix_double(r.peak_up_rate_kbps);
    mix(r.total_usages);
    mix(r.affected_usages);
    mix(r.interrupts);
    mix_double(r.affected_fraction);
    mix_double(r.mean_deferral_latency_s);
    mix(r.deferred_count);
    mix(static_cast<std::uint64_t>(r.horizon_ms));
    mix(static_cast<std::uint64_t>(r.screen_on_ms));
    mix(r.degraded ? 1 : 0);
    mix_string(r.degraded_reason);
    mix_double(r.drift_score);
  }
  return h;
}

TEST(Fleet, FullReportGolden) {
  // Every SimReport field of the standard suite over two users of each
  // archetype (14 training + 7 evaluation days). The value was recorded
  // before the replay cursors replaced the per-element binary searches;
  // a change that moves any field — affected usages, interrupts,
  // deferral latencies, wakes, the radio breakdown — breaks it, even
  // when every energy stays put. Regenerate only for an intended
  // behaviour change.
  constexpr int kArchetypes = 10;
  std::vector<synth::UserProfile> users;
  for (int u = 0; u < 2 * kArchetypes; ++u) {
    users.push_back(
        synth::make_user(static_cast<synth::Archetype>(u % kArchetypes), u));
  }
  ExperimentConfig cfg;
  cfg.train_days = 14;
  cfg.eval_days = 7;
  cfg.seed = 7;
  const FleetReport report =
      run_fleet(users, standard_policy_suite(cfg.netmaster), cfg);
  ASSERT_EQ(report.cells.size(), 20u * 6u);
  EXPECT_EQ(report.failures.size(), 0u);
  EXPECT_EQ(full_report_hash(report), 0x4bdea62108977de7ULL);
}

}  // namespace
}  // namespace netmaster::eval
