#include "eval/fleet.hpp"

#include <utility>

#include "common/error.hpp"
#include "jobs/job_system.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "policy/baseline.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"

namespace netmaster::eval {

std::vector<PolicySpec> standard_policy_suite(
    const policy::NetMasterConfig& config) {
  std::vector<PolicySpec> suite;
  suite.push_back({"baseline",
                   [](const UserTrace&) {
                     return std::make_unique<policy::BaselinePolicy>();
                   },
                   {}});
  suite.push_back({"oracle",
                   [profit = config.profit](const UserTrace&) {
                     return std::make_unique<policy::OraclePolicy>(profit);
                   },
                   {}});
  suite.push_back({"netmaster",
                   [config](const UserTrace& training) {
                     return std::make_unique<policy::NetMasterPolicy>(
                         training, config);
                   },
                   {}});
  for (const double d : {10.0, 20.0, 60.0}) {
    suite.push_back({"delay&batch-" + std::to_string(static_cast<int>(d)) +
                         "s",
                     [d](const UserTrace&) {
                       return std::make_unique<policy::DelayBatchPolicy>(
                           seconds(d));
                     },
                     {}});
  }
  return suite;
}

std::vector<PolicySpec> solver_ablation_suite(
    const policy::NetMasterConfig& config, bool include_exact) {
  std::vector<sched::SolverChoice> backends = {sched::SolverChoice::kFptas,
                                               sched::SolverChoice::kGreedy,
                                               sched::SolverChoice::kAuto};
  if (include_exact) {
    backends.insert(backends.begin() + 1, sched::SolverChoice::kExact);
  }
  std::vector<PolicySpec> suite;
  for (const sched::SolverChoice backend : backends) {
    policy::NetMasterConfig variant = config;
    variant.solver = backend;
    suite.push_back(
        {std::string("netmaster[") + sched::to_string(backend) + "]",
         [variant](const UserTrace& training) {
           return std::make_unique<policy::NetMasterPolicy>(training,
                                                            variant);
         },
         {}});
  }
  return suite;
}

namespace {

/// Rebuilds the failure ledger and per-policy aggregates of `report`
/// from its cells, in deterministic (user, policy) order. `count_rows`
/// feeds the fleet.rows_failed counter — set only on fresh grids, not
/// when re-deriving a slice, so sweeps don't double-count.
void finalize_report(const EvalSession& session, FleetReport& report,
                     bool count_rows) {
  const std::size_t n = report.num_users;
  const std::size_t m = report.num_policies;

  report.failures.clear();
  for (std::size_t u = 0; u < n; ++u) {
    if (!session.ok(u)) {
      report.failures.push_back({session.user_id(u),
                                 session.profile_name(u), "",
                                 session.prep_error(u)});
      if (count_rows) {
        obs::Registry::global().counter("fleet.rows_failed").add(1);
      }
      continue;
    }
    for (std::size_t p = 0; p < m; ++p) {
      const FleetCell& cell = report.cell(u, p);
      if (cell.failed) {
        report.failures.push_back(
            {cell.user, cell.profile_name, cell.policy, cell.error});
      }
    }
  }

  // Per-policy aggregates, folded in fixed user order. Failed cells
  // are counted, not averaged.
  report.aggregates.assign(m, FleetAggregate{});
  for (std::size_t p = 0; p < m; ++p) {
    FleetAggregate& agg = report.aggregates[p];
    if (n > 0) agg.policy = report.cell(0, p).policy;
    for (std::size_t u = 0; u < n; ++u) {
      const FleetCell& cell = report.cell(u, p);
      if (cell.failed) {
        ++agg.failed_cells;
        continue;
      }
      if (cell.degraded) ++agg.degraded_cells;
      agg.energy_saving.add(cell.energy_saving);
      agg.radio_on_fraction.add(cell.radio_on_fraction);
      agg.affected_fraction.add(cell.report.affected_fraction);
      agg.deferral_latency_s.add(cell.report.mean_deferral_latency_s);
      agg.total_energy_j += cell.report.energy_j;
    }
  }
}

/// The body of one (user, policy) cell: mine, schedule, account. Writes
/// only its own pre-allocated cell — the deterministic result slot that
/// makes fleet output bit-identical regardless of worker count or steal
/// order. A throwing cell fails alone; a user whose preparation failed
/// poisons only its own row.
void run_cell(const EvalSession& session, const PolicySpec& spec,
              std::size_t u, FleetCell& cell) {
  cell.user = session.user_id(u);
  cell.profile_name = session.profile_name(u);
  cell.policy = spec.name;
  if (!session.ok(u)) {
    cell.failed = true;
    cell.error = session.prep_error(u);
    return;
  }
  const obs::SpanScope cell_span("fleet.cell");
  try {
    // One pin for the whole cell: rehydrates a spilled user at most
    // once and keeps the traces alive across mine/probe/account.
    const UserStore::Pin traces = session.traces(u);
    std::unique_ptr<policy::Policy> pol;
    {
      const obs::SpanScope mine_span("fleet.mine");
      pol = spec.make(traces.training());
    }
    if (spec.probe) {
      cell.probe_value = spec.probe(*pol, traces);
    }
    sim::PolicyOutcome outcome;
    {
      const obs::SpanScope schedule_span("fleet.schedule");
      outcome = pol->run(session.index(u));
    }
    const obs::SpanScope account_span("fleet.account");
    // Per-spec radio override, else the session's models. All-cellular
    // outcomes account bit-identically to the single-radio path.
    RadioSet radios;
    if (spec.radios) {
      radios = *spec.radios;
    } else {
      radios.cellular = session.config().netmaster.profit.radio;
      radios.wifi = session.config().netmaster.profit.wifi;
    }
    cell.report =
        sim::account(traces.eval(), session.facts(u), outcome, radios);
  } catch (const std::exception& e) {
    cell.failed = true;
    cell.error = e.what();
    obs::Registry::global().counter("fleet.cells_failed").add(1);
    return;
  }
  cell.degraded = cell.report.degraded;
  if (cell.degraded) {
    obs::Registry::global().counter("fleet.cells_degraded").add(1);
  }
  const sim::SimReport& baseline = session.baseline(u);
  if (baseline.energy_j > 0.0) {
    cell.energy_saving = 1.0 - cell.report.energy_j / baseline.energy_j;
  }
  if (baseline.radio_on_ms > 0) {
    cell.radio_on_fraction =
        static_cast<double>(cell.report.radio_on_ms) /
        static_cast<double>(baseline.radio_on_ms);
  }
}

/// Sizes `report` for the grid and appends one task per (user, policy)
/// cell to `graph`. When `prep_tasks` is non-null (the fused
/// build+evaluate path), each cell depends on its user's prepare task,
/// so user u's row starts replaying as soon as u is prepared — no
/// fleet-wide barrier between preparation and evaluation.
void schedule_cells(const EvalSession& session,
                    const std::vector<PolicySpec>& policies,
                    FleetReport& report, jobs::TaskGraph& graph,
                    const std::vector<jobs::TaskId>* prep_tasks) {
  NM_REQUIRE(!policies.empty(), "fleet needs at least one policy");
  const std::size_t n = session.num_users();
  const std::size_t m = policies.size();
  report.num_users = n;
  report.num_policies = m;
  report.cells.resize(n * m);
  for (std::size_t c = 0; c < n * m; ++c) {
    const std::size_t u = c / m;
    const std::size_t p = c % m;
    // The graph runs after this function returns, so the task resolves
    // the radio models through the (caller-kept-alive) session instead
    // of capturing a local reference.
    const jobs::TaskId cell =
        graph.add([&session, &policies, &report, u, p, c] {
          run_cell(session, policies[p], u, report.cells[c]);
        });
    if (prep_tasks != nullptr) {
      graph.add_dependency((*prep_tasks)[u], cell);
    }
  }
}

/// The N×M cell grid over an already-prepared session.
FleetReport run_grid(const EvalSession& session,
                     const std::vector<PolicySpec>& policies,
                     unsigned max_threads) {
  FleetReport report;
  jobs::TaskGraph graph;
  schedule_cells(session, policies, report, graph, nullptr);
  jobs::run_graph(graph, max_threads);
  finalize_report(session, report, /*count_rows=*/true);
  return report;
}

}  // namespace

FleetReport run_fleet(const EvalSession& session,
                      const std::vector<PolicySpec>& policies,
                      unsigned max_threads) {
  FleetReport report;
  {
    const obs::SpanScope span("eval.run_fleet");
    report = run_grid(session, policies, max_threads);
  }
  // Snapshot hook: a fleet run is the natural export boundary, so a
  // driver only has to set NETMASTER_METRICS_OUT to get telemetry.
  obs::maybe_export_env();
  return report;
}

FleetReport run_fleet(const std::vector<synth::UserProfile>& profiles,
                      const std::vector<PolicySpec>& policies,
                      const ExperimentConfig& config,
                      unsigned max_threads) {
  FleetReport report;
  {
    const obs::SpanScope span("eval.run_fleet");
    // Fused build+evaluate: one graph carries every user's
    // trace_gen -> prepare chain and, hanging off each prepare, that
    // user's M policy cells. User u's row replays while user v is
    // still synthesizing — the per-stage fleet-wide barriers of the
    // old parallel_for pipeline are gone. Cells of a prep-failed user
    // still run (they record the row failure from prep_error).
    jobs::TaskGraph graph;
    std::vector<jobs::TaskId> prep_tasks;
    const EvalSession session(DeferBuild{}, profiles, config, graph,
                              prep_tasks);
    schedule_cells(session, policies, report, graph, &prep_tasks);
    jobs::run_graph(graph, max_threads);
    finalize_report(session, report, /*count_rows=*/true);
  }
  obs::maybe_export_env();
  return report;
}

FleetReport run_fleet(const std::vector<VolunteerTraces>& volunteers,
                      const std::vector<PolicySpec>& policies,
                      const ExperimentConfig& config,
                      unsigned max_threads) {
  FleetReport report;
  {
    const obs::SpanScope span("eval.run_fleet");
    // Same fused graph as the profile overload, minus trace_gen tasks:
    // volunteer admission is inline (it consumes the traces), so each
    // user's chain is prepare -> M cells.
    jobs::TaskGraph graph;
    std::vector<jobs::TaskId> prep_tasks;
    const EvalSession session(DeferBuild{}, volunteers, config, graph,
                              prep_tasks);
    schedule_cells(session, policies, report, graph, &prep_tasks);
    jobs::run_graph(graph, max_threads);
    finalize_report(session, report, /*count_rows=*/true);
  }
  obs::maybe_export_env();
  return report;
}

FleetReport slice_policies(const EvalSession& session,
                           const FleetReport& report, std::size_t first,
                           std::size_t count) {
  NM_REQUIRE(session.num_users() == report.num_users,
             "slice_policies session does not match the report");
  NM_REQUIRE(count > 0 && first + count <= report.num_policies,
             "slice_policies column range out of bounds");
  FleetReport slice;
  slice.num_users = report.num_users;
  slice.num_policies = count;
  slice.cells.reserve(report.num_users * count);
  for (std::size_t u = 0; u < report.num_users; ++u) {
    for (std::size_t p = 0; p < count; ++p) {
      slice.cells.push_back(report.cell(u, first + p));
    }
  }
  finalize_report(session, slice, /*count_rows=*/false);
  return slice;
}

}  // namespace netmaster::eval
