// pipeline_bench — the repository benchmark.
//
// Runs one workload from inputs generated from --seed, checks the
// program's outputs, and prints one JSON result line as the last line
// of stdout. Both workloads are closed loops with one producer:
//
//   fleet_eval     eval::run_fleet of the §VI policy suite over a
//                  synthetic fleet cycling all ten synth archetypes
//                  (the batch pipeline; the scheduler does most work).
//   daemon_ingest  a daemon::build_load_plan stream fed line by line to
//                  Netmasterd::handle_line in-process, then drain()
//                  (writes only: parse, enqueue, day folds, mining).
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the
// workload with every request timed, then times each layer from
// outside through its public functions and reports per-layer metrics
// (perfbench/METRICS.md lists them and the end-to-end metric each one
// should move).
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.hpp"
#include "common/parallel.hpp"
#include "common/time.hpp"
#include "daemon/loadgen.hpp"
#include "daemon/netmasterd.hpp"
#include "engine/trace_index.hpp"
#include "eval/fleet.hpp"
#include "eval/session.hpp"
#include "jobs/threads.hpp"
#include "mining/habits.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "policy/netmaster.hpp"
#include "sched/instance.hpp"
#include "sched/solver.hpp"
#include "sim/accounting.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;
using Clock = std::chrono::steady_clock;

// ---- Workload sizes. ----------------------------------------------------
// A user's NetMaster cost depends on the habit model mined from its
// seeded training data, and varies by a factor of several between
// seeds; across seeds, fleet throughput spreads as 1/sqrt(users). 512
// users keep its quartile spread near 5% while a run (set-up, the
// measured window and the output checks) still ends within about 45 s
// on four cores at --seconds 20. The evaluation window is 7 days because the spread
// does not shrink with more days per user, only with more users.
constexpr int kTrainDays = 14;
constexpr int kFleetUsers = 512;
constexpr int kFleetEvalDays = 7;
constexpr int kDaemonUsers = 64;
constexpr int kDaemonEvalDays = 7;
/// Ingest latency is the wall time of each run of kIngestBatch
/// consecutive handle_line calls. A single round trip is a microsecond
/// or two, and its tail is whichever calls met a full shard queue, so
/// its p90 jumps between runs; a batch sums those waits over the whole
/// stream, and the untraced stream carries one clock read per batch.
constexpr std::size_t kIngestBatch = 64;
/// Set-up is repeated and its median reported.
constexpr int kSetupReps = 3;
/// Users the per-layer probe replays one call at a time.
constexpr int kLayerUsers = 16;
/// Calls per NetMaster run and per solve in the probe (fastest kept).
constexpr int kProbeReps = 3;
constexpr int kAllArchetypes = 10;     ///< synth::Archetype enumerators
constexpr int kLoadgenArchetypes = 8;  ///< the ones build_load_plan cycles

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sample.size())));
  return sample[k - 1];
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2]
                    : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ---- Result line. -------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "pipeline_bench: check failed: " << what << "\n";
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v =
          std::isfinite(metrics[i].second.first) ? metrics[i].second.first
                                                 : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(), v,
                  metrics[i].second.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// ---- Inputs. ------------------------------------------------------------

/// User u gets archetype u mod `archetypes` (enum order, which is also
/// the order daemon::build_load_plan cycles its eight).
std::vector<synth::UserProfile> cycle_profiles(int users, int archetypes) {
  std::vector<synth::UserProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    profiles.push_back(synth::make_user(
        static_cast<synth::Archetype>(u % archetypes), u));
  }
  return profiles;
}

eval::ExperimentConfig experiment(int eval_days, std::uint64_t seed) {
  eval::ExperimentConfig config;
  config.train_days = kTrainDays;
  config.eval_days = eval_days;
  config.seed = seed;
  return config;
}

/// Shards plus the producer thread stay within the CPUs available.
/// Drift adaptation is off: on these stationary streams its detector
/// still raises false alarms for some seeds, and the refreshed model
/// breaks the batch-equivalence check. Traced runs count those alarms
/// (daemon.stationary_drift_alarms) with the daemon's default config.
daemon::DaemonConfig daemon_config() {
  daemon::DaemonConfig config;
  config.num_shards = static_cast<int>(std::max(1u, nproc() - 1));
  config.adapt.enable = false;
  return config;
}

/// FNV-1a over every cell's energy bits and failure flag, user-major.
std::uint64_t fleet_hash(const eval::FleetReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const eval::FleetCell& cell : report.cells) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &cell.report.energy_j, sizeof(bits));
    mix(bits);
    mix(cell.failed ? 1 : 0);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Per-cell latency probe for the fleet. ------------------------------

/// Thread-safe sample sink shared by every cell of a fleet run.
class LatencySink {
 public:
  void add(double ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    ms_.push_back(ms);
  }
  std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(ms_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<double> ms_;
};

/// Forwards to the wrapped policy and records, when run() returns, the
/// time since the cell asked for the policy: policy construction (which
/// mines for NetMaster) plus the schedule — the latency of producing
/// one (user, policy) schedule. Traced runs also record the run() span
/// alone.
class TimedPolicy final : public policy::Policy {
 public:
  TimedPolicy(std::unique_ptr<policy::Policy> inner, Clock::time_point asked,
              LatencySink& cells, LatencySink* runs)
      : inner_(std::move(inner)), asked_(asked), cells_(cells), runs_(runs) {}

  using Policy::run;
  std::string name() const override { return inner_->name(); }
  sim::PolicyOutcome run(const engine::TraceIndex& eval) const override {
    const Clock::time_point start = Clock::now();
    sim::PolicyOutcome outcome = inner_->run(eval);
    if (runs_ != nullptr) runs_->add(ms_since(start));
    cells_.add(ms_since(asked_));
    return outcome;
  }

 private:
  std::unique_ptr<policy::Policy> inner_;
  Clock::time_point asked_;
  LatencySink& cells_;
  LatencySink* runs_;
};

std::vector<eval::PolicySpec> timed_suite(
    const std::vector<eval::PolicySpec>& suite, LatencySink& cells,
    LatencySink* runs) {
  std::vector<eval::PolicySpec> timed = suite;
  for (eval::PolicySpec& spec : timed) {
    spec.make = [make = spec.make, &cells, runs](const UserTrace& training)
        -> std::unique_ptr<policy::Policy> {
      const Clock::time_point asked = Clock::now();
      return std::make_unique<TimedPolicy>(make(training), asked, cells,
                                           runs);
    };
  }
  return timed;
}

// ---- Fleet passes. ------------------------------------------------------

struct FleetPass {
  std::vector<double> rates;     ///< cells/s per run_fleet call
  std::vector<double> seconds;   ///< wall time per run_fleet call
  std::vector<double> cell_ms;   ///< pooled per-cell latencies
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  std::uint64_t jobs_tasks = 0;
  std::uint64_t jobs_steals = 0;
};

/// Calls run_fleet until `budget_s` has passed (at least twice),
/// checking every call's energy hash against `hash` (set by the first
/// call when empty).
FleetPass fleet_pass(const eval::EvalSession& session,
                     const std::vector<eval::PolicySpec>& suite,
                     unsigned workers, double budget_s, bool traced,
                     std::optional<std::uint64_t>& hash, Result& res) {
  FleetPass pass;
  LatencySink cells;
  LatencySink runs;
  const std::vector<eval::PolicySpec> specs =
      timed_suite(suite, cells, traced ? &runs : nullptr);
  const std::uint64_t tasks0 = counter("jobs.tasks");
  const std::uint64_t steals0 = counter("jobs.steals");
  const Clock::time_point begin = Clock::now();
  while (pass.rates.size() < 2 || seconds_since(begin) < budget_s) {
    const Clock::time_point start = Clock::now();
    const eval::FleetReport report = eval::run_fleet(session, specs, workers);
    const double s = seconds_since(start);
    pass.seconds.push_back(s);
    pass.rates.push_back(static_cast<double>(report.cells.size()) / s);
    pass.cells += report.cells.size();
    for (const eval::FleetCell& cell : report.cells) pass.failed += cell.failed;
    const std::uint64_t h = fleet_hash(report);
    if (!hash) hash = h;
    res.check(h == *hash, "fleet energy hash differs between runs");
  }
  const double calls = static_cast<double>(pass.rates.size());
  pass.jobs_tasks = static_cast<std::uint64_t>(
      static_cast<double>(counter("jobs.tasks") - tasks0) / calls);
  pass.jobs_steals = static_cast<std::uint64_t>(
      static_cast<double>(counter("jobs.steals") - steals0) / calls);
  pass.cell_ms = cells.take();
  return pass;
}

// ---- Daemon stream passes. ----------------------------------------------

struct Stream {
  daemon::LoadPlan plan;
  std::vector<std::string> lines;  ///< daemon::plan_request_lines(plan)
};

struct StreamPass {
  std::vector<double> rates;      ///< lines/s per stream
  std::vector<double> drain_s;    ///< drain() wait per stream
  std::vector<double> batch_ms;   ///< untraced: every kIngestBatch lines
  std::vector<double> line_ns;    ///< traced: every line's round trip
  std::uint64_t lines = 0;
  std::uint64_t errors = 0;
  std::unique_ptr<daemon::Netmasterd> last;  ///< daemon of the last stream
};

/// Feeds the whole stream to fresh daemons until `budget_s` has passed
/// (at least twice). Throughput runs from the first line until drain()
/// returns; daemon start-up is outside it.
StreamPass stream_pass(const Stream& s, double budget_s, bool traced) {
  StreamPass pass;
  const Clock::time_point begin = Clock::now();
  while (pass.rates.size() < 2 || seconds_since(begin) < budget_s) {
    pass.last.reset();
    pass.last = std::make_unique<daemon::Netmasterd>(daemon_config());
    daemon::Netmasterd& d = *pass.last;
    if (traced) pass.line_ns.reserve(pass.line_ns.size() + s.lines.size());
    const Clock::time_point start = Clock::now();
    Clock::time_point batch_start = start;
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
      if (!traced) {
        pass.errors += d.handle_line(s.lines[i]).rfind("err", 0) == 0;
        if ((i + 1) % kIngestBatch == 0) {
          const Clock::time_point now = Clock::now();
          pass.batch_ms.push_back(
              std::chrono::duration<double, std::milli>(now - batch_start)
                  .count());
          batch_start = now;
        }
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      const std::string reply = d.handle_line(s.lines[i]);
      const Clock::time_point t1 = Clock::now();
      pass.errors += reply.rfind("err", 0) == 0;
      pass.line_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    const Clock::time_point drain_start = Clock::now();
    d.drain();
    pass.drain_s.push_back(seconds_since(drain_start));
    pass.rates.push_back(static_cast<double>(s.lines.size()) /
                         seconds_since(start));
    pass.lines += s.lines.size();
  }
  return pass;
}

bool outcomes_bitwise_equal(const sim::PolicyOutcome& a,
                            const sim::PolicyOutcome& b) {
  if (a.transfers.size() != b.transfers.size()) return false;
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const sim::ExecutedTransfer& x = a.transfers[i];
    const sim::ExecutedTransfer& y = b.transfers[i];
    if (x.activity_index != y.activity_index || x.start != y.start ||
        x.duration != y.duration || x.radio != y.radio) {
      return false;
    }
  }
  return a.interrupts == b.interrupts && a.duty_releases == b.duty_releases;
}

/// The equivalence anchor: after `finish`, every user's schedule equals
/// NetMasterPolicy(training).run(TraceIndex(eval)) bit for bit. A user
/// whose schedule throws on both paths matches, and counts as failed.
void check_daemon_schedules(daemon::Netmasterd& d,
                            const daemon::LoadPlan& plan, Result& res) {
  std::vector<std::optional<sim::PolicyOutcome>> expected(plan.users.size());
  const policy::NetMasterConfig config = d.config().policy;
  parallel_for(plan.users.size(), [&](std::size_t u) {
    try {
      const policy::NetMasterPolicy batch(plan.users[u].training, config);
      expected[u] = batch.run(engine::TraceIndex(plan.users[u].eval));
    } catch (const std::exception& e) {
      std::cerr << "pipeline_bench: batch schedule of user " << u
                << " failed: " << e.what() << "\n";
    }
  }, nproc());
  for (std::size_t u = 0; u < plan.users.size(); ++u) {
    std::optional<daemon::ScheduleResult> streamed;
    try {
      streamed = d.schedule(plan.users[u].session.user);
    } catch (const std::exception& e) {
      std::cerr << "pipeline_bench: daemon schedule of user " << u
                << " failed: " << e.what() << "\n";
    }
    if (!streamed || !expected[u]) {
      res.failed += !streamed;
      res.check(!streamed && !expected[u],
                "only one of the daemon and batch schedules of user " +
                    std::to_string(u) + " failed");
      continue;
    }
    res.check(streamed->model_version == 1 &&
                  outcomes_bitwise_equal(streamed->outcome, *expected[u]),
              "daemon schedule of user " + std::to_string(u) +
                  " differs from the batch policy (model version " +
                  std::to_string(streamed->model_version) + ")");
  }
}

// ---- Per-layer probe. ---------------------------------------------------

/// Times each batch layer from outside, one call at a time, over the
/// first kLayerUsers profiles: synth, index build, both mining entry
/// points, every policy's run, accounting, and the scheduler's instance
/// build and solve rebuilt from the NetMaster policy's own predictions.
void batch_layers(const std::vector<synth::UserProfile>& profiles,
                  const eval::ExperimentConfig& config, Result& res) {
  const std::vector<eval::PolicySpec> suite =
      eval::standard_policy_suite(config.netmaster);
  RadioSet radios;
  radios.cellular = config.netmaster.profit.radio;
  radios.wifi = config.netmaster.profit.wifi;
  sched::SolverOptions solver;
  solver.choice = config.netmaster.solver;
  solver.eps = config.netmaster.eps;

  double synth_ms = 0, index_ms = 0, mine_ms = 0, mine_index_ms = 0;
  double nm_run_ms = 0, other_run_ms = 0, account_ms = 0;
  double build_ms = 0, solve_ms = 0;
  std::uint64_t events = 0, nm_user_days = 0, other_cells = 0, cells = 0;
  std::uint64_t solve_runs = 0, items = 0, slots = 0, slack_slots = 0;
  std::uint64_t dp_cells = 0, slot_solves = 0;
  std::uint64_t policy_items = 0, policy_slots = 0, policy_solves = 0;

  const int users = std::min<int>(kLayerUsers, static_cast<int>(profiles.size()));
  for (int u = 0; u < users; ++u) {
    Clock::time_point t0 = Clock::now();
    const eval::VolunteerTraces vt = eval::make_traces(profiles[u], config);
    synth_ms += ms_since(t0);

    t0 = Clock::now();
    const engine::TraceIndex train_index(vt.training);
    const engine::TraceIndex eval_index(vt.eval);
    index_ms += ms_since(t0);
    for (const UserTrace* t : {&vt.training, &vt.eval}) {
      events += t->sessions.size() + t->usages.size() + t->activities.size();
    }

    t0 = Clock::now();
    static_cast<void>(mining::HabitModel::mine(vt.training));
    mine_ms += ms_since(t0);
    t0 = Clock::now();
    static_cast<void>(mining::HabitModel::mine(train_index));
    mine_index_ms += ms_since(t0);

    for (const eval::PolicySpec& spec : suite) {
      const std::unique_ptr<policy::Policy> pol = spec.make(vt.training);
      const auto* nm = dynamic_cast<const policy::NetMasterPolicy*>(pol.get());
      const std::uint64_t items0 = counter("sched.solver.items");
      const std::uint64_t slots0 = counter("sched.solver.slots");
      const std::uint64_t solves0 = counter("sched.solver.solves");
      t0 = Clock::now();
      sim::PolicyOutcome outcome;
      try {
        outcome = pol->run(eval_index);
      } catch (const std::exception& e) {
        std::cerr << "pipeline_bench: " << spec.name << " run of user " << u
                  << " failed: " << e.what() << "\n";
        ++res.failed;
        continue;
      }
      const double run_ms = ms_since(t0);
      t0 = Clock::now();
      const sim::SimReport report = sim::account(vt.eval, outcome, radios);
      account_ms += ms_since(t0);
      ++cells;
      res.check(std::isfinite(report.energy_j) && report.energy_j > 0.0,
                "layer probe: non-positive energy");
      if (nm == nullptr) {
        other_run_ms += run_ms;
        ++other_cells;
        continue;
      }
      policy_items += counter("sched.solver.items") - items0;
      policy_slots += counter("sched.solver.slots") - slots0;
      policy_solves += counter("sched.solver.solves") - solves0;
      // solve_share divides two single-call times: take each as the
      // fastest of kProbeReps calls so the ratio is not one call's noise.
      double best_run_ms = run_ms;
      for (int r = 1; r < kProbeReps; ++r) {
        t0 = Clock::now();
        pol->run(eval_index);
        best_run_ms = std::min(best_run_ms, ms_since(t0));
      }
      nm_run_ms += best_run_ms;
      nm_user_days += static_cast<std::uint64_t>(eval_index.num_days());

      // Rebuild the instance run() solved: the union of the predicted
      // active slots, and the deferrable screen-off activities outside
      // them as candidates.
      if (nm->degraded() || !nm->config().enable_prediction) continue;
      IntervalSet active;
      for (int day = 0; day < eval_index.num_days(); ++day) {
        active.add(nm->predictor().predict_day(day).active_slots);
      }
      std::vector<NetworkActivity> pending;
      const mem::ActivityColumns& acts = eval_index.activities();
      for (std::size_t i = 0; i < acts.size(); ++i) {
        const NetworkActivity act = acts[i];
        if (eval_index.is_deferrable_screen_off(i) &&
            !active.contains(act.start)) {
          pending.push_back(act);
        }
      }
      if (active.intervals().empty() || pending.empty()) continue;
      t0 = Clock::now();
      const sched::Instance inst = sched::build_instance(
          active.intervals(), pending, nm->predictor(), nm->config().profit);
      build_ms += ms_since(t0);
      sched::SolveStats stats;
      double best_solve_ms = 0.0;
      for (int r = 0; r < kProbeReps; ++r) {
        t0 = Clock::now();
        sched::solve_overlapped(inst.slots, inst.items, solver,
                                sched::thread_workspace(), &stats);
        const double ms = ms_since(t0);
        best_solve_ms = r == 0 ? ms : std::min(best_solve_ms, ms);
      }
      solve_ms += best_solve_ms;
      ++solve_runs;
      items += inst.items.size();
      slots += inst.slots.size();
      dp_cells += stats.dp_cells;
      slot_solves += stats.slot_solves_fptas + stats.slot_solves_exact +
                     stats.slot_solves_greedy;
      std::vector<std::int64_t> weight(inst.slots.size(), 0);
      for (const sched::OverlapItem& item : inst.items) {
        for (int s : {item.prev_slot, item.next_slot}) {
          if (s >= 0) weight[static_cast<std::size_t>(s)] += item.weight;
        }
      }
      for (std::size_t s = 0; s < inst.slots.size(); ++s) {
        slack_slots += weight[s] <= inst.slots[s].capacity;
      }
    }
  }
  res.check(items == policy_items && slots == policy_slots &&
                solve_runs == policy_solves,
            "rebuilt sched instances differ from the policy's solver counters");

  const double n = static_cast<double>(users);
  const double runs = static_cast<double>(std::max<std::uint64_t>(1, solve_runs));
  res.metric("synth.make_traces_ms_per_user", synth_ms / n, "ms");
  res.metric("engine.index_build_ns_per_event",
             index_ms * 1e6 / static_cast<double>(events), "ns");
  res.metric("mining.mine_ms_per_user", mine_ms / n, "ms");
  res.metric("mining.mine_index_ms_per_user", mine_index_ms / n, "ms");
  res.metric("policy.netmaster_run_ms_per_user_day",
             nm_run_ms / static_cast<double>(nm_user_days), "ms");
  res.metric("policy.other_run_ms_per_cell",
             other_run_ms / static_cast<double>(other_cells), "ms");
  res.metric("sim.account_ms_per_cell",
             account_ms / static_cast<double>(cells), "ms");
  res.metric("sched.build_instance_us_per_run", build_ms * 1e3 / runs, "us");
  res.metric("sched.solve_ms_per_run", solve_ms / runs, "ms");
  res.metric("sched.solve_share", solve_ms / nm_run_ms, "fraction");
  res.metric("sched.dp_cells", static_cast<double>(dp_cells) / runs,
             "count/run");
  res.metric("sched.slot_solves", static_cast<double>(slot_solves) / runs,
             "count/run");
  res.metric("sched.items", static_cast<double>(items) / runs, "count/run");
  res.metric("sched.slots", static_cast<double>(slots) / runs, "count/run");
  res.metric("sched.slack_slot_frac",
             static_cast<double>(slack_slots) /
                 static_cast<double>(std::max<std::uint64_t>(1, slots)),
             "fraction");
}

/// Daemon layers over a stream whose traced pass already ran: the wire
/// round trip per line and drain wait (from `traced`), the parser alone,
/// the direct-API replay, a post-drain schedule computation per user,
/// and the daemon's own counters.
void daemon_layers(const Stream& s, StreamPass& traced, Result& res) {
  res.metric("daemon.handle_line_ns_p50", quantile(traced.line_ns, 0.50), "ns");
  res.metric("daemon.handle_line_ns_p99", quantile(traced.line_ns, 0.99), "ns");
  res.metric("daemon.drain_wait_s", median(traced.drain_s), "s");

  check_daemon_schedules(*traced.last, s.plan, res);
  const daemon::DaemonStats stats = traced.last->stats();
  traced.last.reset();
  res.check(stats.totals.dropped_events == 0, "daemon dropped events");
  res.metric("daemon.days_folded", static_cast<double>(stats.totals.days_folded),
             "count");
  res.metric("daemon.models_mined",
             static_cast<double>(stats.totals.users_trained +
                                 stats.totals.refreshes),
             "count");
  res.metric("daemon.late_events", static_cast<double>(stats.totals.late_events),
             "count");
  res.metric("daemon.schedules", static_cast<double>(stats.totals.schedules),
             "count");

  {
    net::Request req;
    std::string error;
    std::uint64_t bad = 0;
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : s.lines) {
      bad += !net::parse_request(line, req, error);
    }
    const double ns = seconds_since(t0) * 1e9;
    res.check(bad == 0, "net::parse_request rejected a generated line");
    res.metric("net.parse_ns_per_line",
               ns / static_cast<double>(s.lines.size()), "ns");
  }

  daemon::Netmasterd direct(daemon_config());
  const Clock::time_point t0 = Clock::now();
  daemon::replay_plan(s.plan, direct);
  direct.drain();
  res.metric("daemon.direct_events_per_s",
             static_cast<double>(s.plan.events.size()) / seconds_since(t0),
             "1/s");
  // First query per user after drain(): nothing queued, nothing cached.
  std::vector<double> compute_ms;
  for (const daemon::LoadUser& user : s.plan.users) {
    net::Request req;
    req.kind = net::RequestKind::kGetSchedule;
    req.user = user.session.user;
    const std::string line = net::format_request(req);
    const Clock::time_point q0 = Clock::now();
    const std::string reply = direct.handle_line(line);
    compute_ms.push_back(ms_since(q0));
    res.failed += reply.rfind("ok", 0) != 0;
  }
  res.metric("daemon.schedule_compute_ms_p50", median(compute_ms), "ms");

  daemon::DaemonConfig adaptive = daemon_config();
  adaptive.adapt = daemon::DaemonConfig().adapt;
  daemon::Netmasterd watched(adaptive);
  daemon::replay_plan(s.plan, watched);
  watched.drain();
  res.metric("daemon.stationary_drift_alarms",
             static_cast<double>(watched.stats().totals.alarms), "count");
}

/// run_fleet wall time at one worker over `workers` workers, plus the
/// job graph's per-call task and steal counts.
void jobs_layers(double one_worker_s, const FleetPass& pass, Result& res) {
  res.metric("jobs.fleet_speedup_measured", one_worker_s / median(pass.seconds),
             "x");
  res.metric("jobs.tasks", static_cast<double>(pass.jobs_tasks), "count");
  res.metric("jobs.steals", static_cast<double>(pass.jobs_steals), "count");
}

// ---- Workloads. ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> expect_hash;
  bool print_hash = false;
};

/// One run_fleet at a single worker; its hash must match.
double one_worker_check(const eval::EvalSession& session,
                        const std::vector<eval::PolicySpec>& suite,
                        std::uint64_t hash, Result& res) {
  const Clock::time_point t0 = Clock::now();
  const eval::FleetReport report = eval::run_fleet(session, suite, 1);
  const double s = seconds_since(t0);
  res.check(fleet_hash(report) == hash,
            "fleet energy hash differs between 1 worker and " +
                std::to_string(nproc()) + " workers");
  return s;
}

void fleet_eval(const Args& args, Result& res) {
  const unsigned workers = nproc();
  const eval::ExperimentConfig config = experiment(kFleetEvalDays, args.seed);
  const std::vector<synth::UserProfile> profiles =
      cycle_profiles(kFleetUsers, kAllArchetypes);
  const std::vector<eval::PolicySpec> suite =
      eval::standard_policy_suite(config.netmaster);

  std::optional<eval::EvalSession> session;
  std::vector<double> setup_s;
  for (int r = 0; r < (args.trace || args.print_hash ? 1 : kSetupReps); ++r) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    session.emplace(profiles, config, workers);
    setup_s.push_back(seconds_since(t0));
  }
  res.check(session->num_ok() == profiles.size(), "a fleet user failed set-up");

  std::optional<std::uint64_t> hash;
  if (args.print_hash) {
    const eval::FleetReport report = eval::run_fleet(*session, suite, workers);
    std::printf("%s\n", hex(fleet_hash(report)).c_str());
    return;
  }

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const FleetPass pass =
      fleet_pass(*session, suite, workers, budget, false, hash, res);
  res.attempted += pass.cells;
  res.failed += pass.failed;
  if (args.expect_hash) {
    res.check(*hash == *args.expect_hash,
              "fleet energy hash " + hex(*hash) +
                  " differs from the value recorded for seed " +
                  std::to_string(args.seed));
  }
  const double one_worker_s = one_worker_check(*session, suite, *hash, res);

  if (!args.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("throughput_per_s", median(pass.rates), "1/s");
    res.metric("latency_p50_ms", quantile(pass.cell_ms, 0.50), "ms");
    res.metric("latency_p90_ms", quantile(pass.cell_ms, 0.90), "ms");
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const FleetPass traced =
      fleet_pass(*session, suite, workers, budget, true, hash, res);
  res.attempted += traced.cells;
  res.failed += traced.failed;
  res.metric("tracing_overhead_frac",
             median(pass.rates) / median(traced.rates) - 1.0, "fraction");
  jobs_layers(one_worker_s, pass, res);
  session.reset();

  batch_layers(profiles, config, res);
  daemon::LoadConfig load;
  load.users = kLayerUsers;
  load.train_days = kTrainDays;
  load.eval_days = kFleetEvalDays;
  load.seed = args.seed;
  daemon::LoadPlan plan = daemon::build_load_plan(load);
  std::vector<std::string> lines = daemon::plan_request_lines(plan);
  const Stream s{std::move(plan), std::move(lines)};
  StreamPass wire = stream_pass(s, 0.0, true);
  res.attempted += wire.lines;
  res.failed += wire.errors;
  daemon_layers(s, wire, res);
}

void daemon_ingest(const Args& args, Result& res) {
  daemon::LoadConfig load;
  load.users = kDaemonUsers;
  load.train_days = kTrainDays;
  load.eval_days = kDaemonEvalDays;
  load.seed = args.seed;

  // Set-up: build the plan, render its lines, start the daemon. The
  // streams below each start their own daemon.
  std::optional<Stream> stream;
  std::vector<double> setup_s;
  for (int r = 0; r < (args.trace ? 1 : kSetupReps); ++r) {
    stream.reset();
    const Clock::time_point t0 = Clock::now();
    daemon::LoadPlan plan = daemon::build_load_plan(load);
    std::vector<std::string> lines = daemon::plan_request_lines(plan);
    stream.emplace(Stream{std::move(plan), std::move(lines)});
    const daemon::Netmasterd started(daemon_config());
    setup_s.push_back(seconds_since(t0));
  }
  const Stream& s = *stream;

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  StreamPass pass = stream_pass(s, budget, false);
  res.attempted += pass.lines;
  res.failed += pass.errors;

  if (!args.trace) {
    check_daemon_schedules(*pass.last, s.plan, res);
    pass.last.reset();
    res.metric("setup_s", median(setup_s), "s");
    res.metric("throughput_per_s", median(pass.rates), "1/s");
    res.metric("latency_p50_ms", quantile(pass.batch_ms, 0.50), "ms");
    res.metric("latency_p90_ms", quantile(pass.batch_ms, 0.90), "ms");
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  pass.last.reset();
  StreamPass traced = stream_pass(s, budget, true);
  res.attempted += traced.lines;
  res.failed += traced.errors;
  res.metric("tracing_overhead_frac",
             median(pass.rates) / median(traced.rates) - 1.0, "fraction");
  daemon_layers(s, traced, res);

  // The jobs layer over the same users, as a batch fleet.
  const eval::ExperimentConfig config = experiment(kDaemonEvalDays, args.seed);
  std::vector<eval::VolunteerTraces> volunteers;
  for (const daemon::LoadUser& user : s.plan.users) {
    volunteers.push_back({user.training, user.eval});
  }
  const eval::EvalSession session(std::move(volunteers), config, nproc());
  const std::vector<eval::PolicySpec> suite =
      eval::standard_policy_suite(config.netmaster);
  std::optional<std::uint64_t> hash;
  const FleetPass fleet = fleet_pass(session, suite, nproc(), 0.0, false, hash, res);
  jobs_layers(one_worker_check(session, suite, *hash, res), fleet, res);

  batch_layers(cycle_profiles(kDaemonUsers, kLoadgenArchetypes), config, res);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-hash") {
      args.print_hash = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--expect-hash") {
        args.expect_hash = std::stoull(value, nullptr, 16);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: pipeline_bench --workload "
                 "fleet_eval|daemon_ingest --seed N --seconds S "
                 "--trace 0|1 [--expect-hash HEX] [--print-hash]\n";
    return 2;
  }
  set_default_max_threads(nproc());
  Result res;
  try {
    if (args.workload == "fleet_eval") {
      fleet_eval(args, res);
    } else if (args.workload == "daemon_ingest") {
      daemon_ingest(args, res);
    } else {
      std::cerr << "pipeline_bench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 1;
  }
  if (!args.print_hash) res.print();
  return 0;
}
