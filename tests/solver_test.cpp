// Tests for the pluggable scheduler-solver layer: a frozen copy of the
// pre-refactor (map-based, allocation-per-call) Algorithm 1 guards the
// default path bit for bit, a cross-backend equivalence suite checks
// the solver contracts on randomized instances, and workspace reuse is
// verified deterministic across a thousand solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/knapsack.hpp"
#include "sched/overlap.hpp"
#include "sched/solver.hpp"

namespace netmaster::sched {
namespace {

// ---------------------------------------------------------------------
// Frozen pre-refactor reference: the seed-era knapsack_fptas and
// solve_overlapped, verbatim (std::map id indexes, fresh DP tables and
// vector<vector<bool>> take matrices per call). The solver layer must
// reproduce this bit for bit under default options.
// ---------------------------------------------------------------------
namespace legacy {

KnapResult fptas(std::span<const KnapItem> items, std::int64_t capacity,
                 double eps) {
  KnapResult result;
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const KnapItem& item = items[i];
    if (item.profit <= 0.0 || item.weight > capacity) continue;
    if (item.weight == 0) {
      result.chosen.push_back(item.id);
      result.profit += item.profit;
    } else {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return result;

  double pmax = 0.0;
  for (std::size_t i : candidates) pmax = std::max(pmax, items[i].profit);
  const auto n = static_cast<double>(candidates.size());
  const double scale = eps * pmax / n;

  std::vector<std::int64_t> scaled(candidates.size());
  std::int64_t total_scaled = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    scaled[k] = static_cast<std::int64_t>(
        std::floor(items[candidates[k]].profit / scale));
    total_scaled += scaled[k];
  }

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> min_weight(
      static_cast<std::size_t>(total_scaled) + 1, kInf);
  min_weight[0] = 0;
  std::vector<std::vector<bool>> take(candidates.size());

  std::int64_t reach = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const KnapItem& item = items[candidates[k]];
    const std::int64_t sp = scaled[k];
    take[k].assign(static_cast<std::size_t>(total_scaled) + 1, false);
    if (sp == 0) continue;
    reach = std::min(reach + sp, total_scaled);
    for (std::int64_t s = reach; s >= sp; --s) {
      const std::int64_t base = min_weight[static_cast<std::size_t>(s - sp)];
      if (base == kInf) continue;
      const std::int64_t w = base + item.weight;
      if (w < min_weight[static_cast<std::size_t>(s)]) {
        min_weight[static_cast<std::size_t>(s)] = w;
        take[k][static_cast<std::size_t>(s)] = true;
      }
    }
  }

  std::int64_t best_s = 0;
  for (std::int64_t s = total_scaled; s > 0; --s) {
    if (min_weight[static_cast<std::size_t>(s)] <= capacity) {
      best_s = s;
      break;
    }
  }

  std::int64_t s = best_s;
  for (std::size_t k = candidates.size(); k-- > 0;) {
    if (s > 0 && take[k][static_cast<std::size_t>(s)]) {
      const KnapItem& item = items[candidates[k]];
      result.chosen.push_back(item.id);
      result.profit += item.profit;
      result.weight += item.weight;
      s -= scaled[k];
    }
  }
  return result;
}

OverlapSolution solve_overlapped(std::span<const OverlapSlot> slots,
                                 std::span<const OverlapItem> items,
                                 double eps) {
  std::map<int, const OverlapItem*> by_id;
  for (const OverlapItem& item : items) by_id[item.id] = &item;

  std::vector<std::vector<KnapItem>> slot_items(slots.size());
  for (const OverlapItem& item : items) {
    for (int s : {item.prev_slot, item.next_slot}) {
      if (s >= 0) {
        slot_items[static_cast<std::size_t>(s)].push_back(
            {item.id, item.profit, item.weight});
      }
    }
  }

  std::vector<std::vector<int>> chosen_per_slot(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    auto& list = slot_items[s];
    std::sort(list.begin(), list.end(),
              [](const KnapItem& a, const KnapItem& b) {
                if (a.weight == 0 || b.weight == 0) {
                  if (a.weight == 0 && b.weight == 0)
                    return a.profit > b.profit;
                  return a.weight == 0;
                }
                return a.profit * static_cast<double>(b.weight) >
                       b.profit * static_cast<double>(a.weight);
              });
    chosen_per_slot[s] = fptas(list, slots[s].capacity, eps).chosen;
  }

  std::map<int, std::vector<int>> slots_of_item;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (int id : chosen_per_slot[s]) {
      slots_of_item[id].push_back(static_cast<int>(s));
    }
  }

  OverlapSolution solution;
  solution.slot_used.assign(slots.size(), 0);
  std::map<int, bool> assigned;
  for (const auto& [id, cand] : slots_of_item) {
    const OverlapItem& item = *by_id.at(id);
    int slot = cand.front();
    if (cand.size() == 2) {
      const std::int64_t r0 =
          slots[static_cast<std::size_t>(cand[0])].capacity - item.weight;
      const std::int64_t r1 =
          slots[static_cast<std::size_t>(cand[1])].capacity - item.weight;
      slot = r0 <= r1 ? cand[0] : cand[1];
    }
    solution.assignments.push_back({id, slot});
    solution.slot_used[static_cast<std::size_t>(slot)] += item.weight;
    solution.total_profit += item.profit;
    assigned[id] = true;
  }

  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::int64_t residual = slots[s].capacity - solution.slot_used[s];
    for (const KnapItem& ki : slot_items[s]) {
      if (assigned.count(ki.id) || ki.profit <= 0.0) continue;
      if (ki.weight <= residual) {
        solution.assignments.push_back({ki.id, static_cast<int>(s)});
        solution.slot_used[s] += ki.weight;
        solution.total_profit += ki.profit;
        residual -= ki.weight;
        assigned[ki.id] = true;
      }
    }
  }
  return solution;
}

}  // namespace legacy

struct OverlapInstance {
  std::vector<OverlapSlot> slots;
  std::vector<OverlapItem> items;
};

/// Random instance with non-dense, shuffled item ids (the sorted flat
/// index must reproduce the ascending-id map iteration even when input
/// order and id values are arbitrary).
OverlapInstance random_instance(Rng& rng, int n_items, int n_slots,
                                std::int64_t max_capacity = 250) {
  OverlapInstance inst;
  for (int s = 0; s < n_slots; ++s) {
    inst.slots.push_back({s, rng.uniform_int(20, max_capacity)});
  }
  for (int i = 0; i < n_items; ++i) {
    const int prev = n_slots >= 2
                         ? static_cast<int>(rng.uniform_int(0, n_slots - 2))
                         : 0;
    const int id = i * 7 + static_cast<int>(rng.uniform_int(0, 3));
    inst.items.push_back({id, rng.uniform_int(1, 120),
                          rng.uniform(-5.0, 50.0), prev,
                          n_slots >= 2 ? prev + 1 : -1});
  }
  // Ensure ids stayed unique despite the jitter (stride 7 > jitter 3).
  for (std::size_t i = 1; i < inst.items.size(); ++i) {
    EXPECT_GT(inst.items[i].id, inst.items[i - 1].id);
  }
  // Shuffle input order so it differs from id order.
  for (std::size_t i = inst.items.size(); i > 1; --i) {
    std::swap(inst.items[i - 1],
              inst.items[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return inst;
}

void expect_same_solution(const OverlapSolution& a,
                          const OverlapSolution& b) {
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.slot_used, b.slot_used);
  EXPECT_EQ(a.total_profit, b.total_profit);  // bit-for-bit, no tolerance
}

TEST(FrozenLegacy, DefaultPathIsBitForBit) {
  Rng rng(1234);
  for (int run = 0; run < 100; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 8));
    const int n_items = static_cast<int>(rng.uniform_int(1, 40));
    const OverlapInstance inst = random_instance(rng, n_items, n_slots);
    const OverlapSolution want =
        legacy::solve_overlapped(inst.slots, inst.items, 0.1);

    // Legacy 3-arg API (thread workspace) and explicit workspace + stats
    // must both reproduce the frozen reference exactly.
    expect_same_solution(want,
                         solve_overlapped(inst.slots, inst.items, 0.1));
    SchedWorkspace ws;
    SolverOptions options;  // kFptas, eps = 0.1: the default config
    SolveStats stats;
    expect_same_solution(
        want,
        solve_overlapped(inst.slots, inst.items, options, ws, &stats));
    EXPECT_EQ(stats.slot_solves_fptas, inst.slots.size());
    EXPECT_EQ(stats.slot_solves_exact, 0u);
    EXPECT_EQ(stats.slot_solves_greedy, 0u);
  }
}

/// `inst` with its items relabelled: item i (in input order) gets
/// ids[i].
OverlapInstance relabelled(OverlapInstance inst, const std::vector<int>& ids) {
  for (std::size_t i = 0; i < inst.items.size(); ++i) {
    inst.items[i].id = ids[i];
  }
  return inst;
}

TEST(DenseIdIndex, EveryIdLayoutMatchesFrozenLegacy) {
  // build_instance emits dense ascending ids, which skip the id sort;
  // every other layout takes the sorted index. One workspace serves
  // all of them in turn, so a flag left over from the previous solve
  // would show.
  Rng rng(99);
  SchedWorkspace ws;
  const SolverOptions options;
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  for (int run = 0; run < 60; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 8));
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    const OverlapInstance base = random_instance(rng, n, n_slots);
    std::vector<std::vector<int>> layouts;
    for (const int first : {0, 1000, kMax - n + 1, kMin, -n / 2}) {
      std::vector<int> ids(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = first + i;
      layouts.push_back(ids);  // dense ascending
    }
    {  // dense ids, shuffled input order
      std::vector<int> ids = layouts.front();
      for (std::size_t i = ids.size(); i > 1; --i) {
        std::swap(ids[i - 1], ids[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
      }
      layouts.push_back(ids);
    }
    {  // one gap
      std::vector<int> ids = layouts.front();
      const auto gap = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      for (std::size_t i = gap; i < ids.size(); ++i) ++ids[i];
      layouts.push_back(ids);
    }
    {  // descending near INT_MAX
      std::vector<int> ids(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = kMax - i;
      layouts.push_back(ids);
    }
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      const OverlapInstance inst = relabelled(base, layouts[l]);
      const OverlapSolution want =
          legacy::solve_overlapped(inst.slots, inst.items, 0.1);
      SCOPED_TRACE("run " + std::to_string(run) + " layout " +
                   std::to_string(l));
      expect_same_solution(
          want, solve_overlapped(inst.slots, inst.items, options, ws));
      EXPECT_NO_THROW(check_feasible(inst.slots, inst.items, want));
    }
  }
}

TEST(DenseIdIndex, DuplicateIdsStillRejected) {
  const std::vector<OverlapSlot> slots = {{0, 100}, {1, 100}};
  auto item = [](int id) { return OverlapItem{id, 10, 1.0, 0, 1}; };
  SchedWorkspace ws;
  const SolverOptions options;
  // A dense prefix followed by a repeat, a repeat at the front, and a
  // repeat at INT_MAX.
  constexpr int kMax = std::numeric_limits<int>::max();
  for (const std::vector<OverlapItem>& items :
       {std::vector<OverlapItem>{item(0), item(1), item(2), item(2)},
        std::vector<OverlapItem>{item(5), item(5)},
        std::vector<OverlapItem>{item(kMax - 1), item(kMax), item(kMax)}}) {
    EXPECT_THROW(solve_overlapped(slots, items, options, ws), Error);
    EXPECT_THROW(
        check_feasible(slots, items, OverlapSolution{{}, 0.0, {0, 0}}),
        Error);
  }
  // A dense set still solves, and assignments to unknown ids are caught
  // on both sides of the dense range.
  const std::vector<OverlapItem> dense = {item(3), item(4), item(5)};
  EXPECT_NO_THROW(solve_overlapped(slots, dense, options, ws));
  for (const int stray : {2, 6, kMax, std::numeric_limits<int>::min()}) {
    EXPECT_THROW(check_feasible(slots, dense,
                                OverlapSolution{{{stray, 0}}, 1.0, {10, 0}}),
                 Error)
        << stray;
  }
}

TEST(SolverChoiceNames, RoundTrip) {
  for (const SolverChoice c :
       {SolverChoice::kFptas, SolverChoice::kExact, SolverChoice::kGreedy,
        SolverChoice::kAuto}) {
    EXPECT_EQ(parse_solver_choice(to_string(c)), c);
    EXPECT_EQ(solver_for(c).choice(), c);
    EXPECT_STREQ(solver_for(c).name(), to_string(c));
  }
  EXPECT_THROW(parse_solver_choice("simplex"), Error);
  EXPECT_THROW(parse_solver_choice(""), Error);
}

TEST(SolverOptionsValidation, RejectsOutOfRange) {
  SolverOptions options;
  EXPECT_NO_THROW(options.validate());
  options.eps = 0.0;
  EXPECT_THROW(options.validate(), Error);
  options.eps = 1.0;
  EXPECT_THROW(options.validate(), Error);
  options.eps = 0.1;
  options.auto_exact_cells = 0;
  EXPECT_THROW(options.validate(), Error);
  options.auto_exact_cells = 500'000'000;  // above the exact DP limit
  EXPECT_THROW(options.validate(), Error);
}

TEST(AutoResolve, PicksExactOnlyWhenCheapAndSmall) {
  const SinKnapSolver& auto_solver = solver_for(SolverChoice::kAuto);
  SolverOptions options;
  // Small capacity, enough items: the weight-indexed table beats the
  // profit-scaling estimate n^2 * ceil(n/eps).
  EXPECT_EQ(auto_solver.resolve(20, 100, options), SolverChoice::kExact);
  // Byte-scale capacity (a real slot): table over the ceiling -> FPTAS.
  EXPECT_EQ(auto_solver.resolve(20, 180'000'000, options),
            SolverChoice::kFptas);
  // Tiny ceiling forces FPTAS regardless of the cost comparison.
  options.auto_exact_cells = 1;
  EXPECT_EQ(auto_solver.resolve(20, 100, options), SolverChoice::kFptas);
  // Few items, big capacity: exact table n*(cap+1) dwarfs the FPTAS
  // estimate, so the FPTAS runs even under the ceiling.
  options.auto_exact_cells = 400'000'000;
  EXPECT_EQ(auto_solver.resolve(2, 1'000'000, options),
            SolverChoice::kFptas);
  // Concrete solvers resolve to themselves.
  EXPECT_EQ(solver_for(SolverChoice::kGreedy).resolve(20, 100, options),
            SolverChoice::kGreedy);
}

TEST(AutoResolve, SolveMatchesDelegateBitForBit) {
  Rng rng(77);
  const SinKnapSolver& auto_solver = solver_for(SolverChoice::kAuto);
  SolverOptions options;
  SchedWorkspace ws;
  bool saw_exact = false, saw_fptas = false;
  for (int run = 0; run < 200; ++run) {
    std::vector<KnapItem> items;
    const int n = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < n; ++i) {
      items.push_back({i, rng.uniform(0.5, 60.0), rng.uniform_int(1, 80)});
    }
    // Mix capacities around the auto threshold so both delegates fire.
    const std::int64_t cap = rng.uniform_int(10, 200'000);
    const SolverChoice resolved =
        auto_solver.resolve(items.size(), cap, options);
    (resolved == SolverChoice::kExact ? saw_exact : saw_fptas) = true;
    SolveStats stats_auto, stats_delegate;
    const KnapResult via_auto =
        auto_solver.solve(items, cap, options, ws, stats_auto);
    const KnapResult via_delegate =
        solver_for(resolved).solve(items, cap, options, ws,
                                   stats_delegate);
    EXPECT_EQ(via_auto.chosen, via_delegate.chosen);
    EXPECT_EQ(via_auto.profit, via_delegate.profit);
    EXPECT_EQ(via_auto.weight, via_delegate.weight);
    EXPECT_EQ(stats_auto.dp_cells, stats_delegate.dp_cells);
    EXPECT_EQ(stats_auto.slack_slots, stats_delegate.slack_slots);
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_fptas);
}

TEST(CrossBackend, ExactDominatesFptasWithinEps) {
  Rng rng(555);
  SchedWorkspace ws;
  for (const double eps : {0.05, 0.1, 0.5}) {
    for (int run = 0; run < 60; ++run) {
      std::vector<KnapItem> items;
      const int n = static_cast<int>(rng.uniform_int(1, 40));
      for (int i = 0; i < n; ++i) {
        items.push_back(
            {i, rng.uniform(0.5, 100.0), rng.uniform_int(1, 60)});
      }
      const std::int64_t cap = rng.uniform_int(30, 600);
      const double exact = knapsack_exact(items, cap, ws).profit;
      const double fptas = knapsack_fptas(items, cap, eps, ws).profit;
      const double greedy = knapsack_greedy(items, cap, ws).profit;
      EXPECT_LE(fptas, exact + 1e-9);
      EXPECT_GE(fptas, (1.0 - eps) * exact - 1e-9)
          << "n=" << n << " cap=" << cap << " eps=" << eps;
      EXPECT_LE(greedy, exact + 1e-9);
    }
  }
}

TEST(CrossBackend, EveryBackendFeasibleWithSaneStats) {
  Rng rng(31337);
  SchedWorkspace ws;
  for (const SolverChoice backend :
       {SolverChoice::kFptas, SolverChoice::kExact, SolverChoice::kGreedy,
        SolverChoice::kAuto}) {
    SolverOptions options;
    options.choice = backend;
    for (int run = 0; run < 40; ++run) {
      const int n_slots = static_cast<int>(rng.uniform_int(2, 6));
      const int n_items = static_cast<int>(rng.uniform_int(1, 25));
      // Small capacities keep the exact backend inside its DP limits.
      const OverlapInstance inst =
          random_instance(rng, n_items, n_slots, 200);
      SolveStats stats;
      // solve_overlapped runs check_feasible internally: not throwing
      // is the per-backend feasibility invariant.
      const OverlapSolution sol = solve_overlapped(
          inst.slots, inst.items, options, ws, &stats);

      EXPECT_EQ(stats.requested, backend);
      EXPECT_EQ(stats.items, inst.items.size());
      EXPECT_EQ(stats.slots, inst.slots.size());
      EXPECT_EQ(stats.slot_solves_fptas + stats.slot_solves_exact +
                    stats.slot_solves_greedy,
                inst.slots.size());
      if (backend != SolverChoice::kAuto) {
        const std::size_t taken =
            backend == SolverChoice::kFptas ? stats.slot_solves_fptas
            : backend == SolverChoice::kExact ? stats.slot_solves_exact
                                              : stats.slot_solves_greedy;
        EXPECT_EQ(taken, inst.slots.size());
      }
      EXPECT_GE(stats.upper_bound, stats.profit - 1e-9);
      EXPECT_GE(stats.gap, 0.0);
      EXPECT_LE(stats.gap, 1.0);
      EXPECT_EQ(stats.profit, sol.total_profit);
      if (backend == SolverChoice::kGreedy) {
        EXPECT_EQ(stats.dp_cells, 0u);
      }
      // Each assignment targets one of the item's candidate slots and
      // every item appears at most once (re-checked here on top of the
      // internal check_feasible).
      std::map<int, int> seen;
      for (const OverlapAssignment& a : sol.assignments) {
        EXPECT_EQ(++seen[a.item_id], 1);
      }
    }
  }
}

TEST(CrossBackend, ExactBackendNeverWorseThanGreedyBackend) {
  // Filtering/GreedyAdd are shared; the per-slot DP is what the backend
  // changes. The exact per-slot packing dominates the greedy per-slot
  // packing before filtering, and on single-slot instances (no overlap,
  // filtering is the identity) that dominance survives to the total.
  Rng rng(99);
  SchedWorkspace ws;
  for (int run = 0; run < 50; ++run) {
    OverlapInstance inst;
    inst.slots.push_back({0, rng.uniform_int(50, 300)});
    const int n_items = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < n_items; ++i) {
      inst.items.push_back(
          {i, rng.uniform_int(1, 100), rng.uniform(0.5, 40.0), 0, -1});
    }
    SolverOptions exact_options, greedy_options;
    exact_options.choice = SolverChoice::kExact;
    greedy_options.choice = SolverChoice::kGreedy;
    const double exact_profit =
        solve_overlapped(inst.slots, inst.items, exact_options, ws)
            .total_profit;
    const double greedy_profit =
        solve_overlapped(inst.slots, inst.items, greedy_options, ws)
            .total_profit;
    EXPECT_GE(exact_profit, greedy_profit - 1e-9);
  }
}

TEST(Workspace, ReuseIsDeterministicAcross1kSolves) {
  // One workspace carried through 1000 solves of varied instances must
  // produce exactly what a fresh workspace produces per solve — reused
  // scratch may never leak state between calls.
  SchedWorkspace shared;
  SolverOptions options;
  Rng rng(2024);
  for (int run = 0; run < 1000; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 6));
    const int n_items = static_cast<int>(rng.uniform_int(1, 25));
    const OverlapInstance inst = random_instance(rng, n_items, n_slots);
    // Rotate backends so the shared workspace also crosses kernels.
    options.choice = static_cast<SolverChoice>(run % 4);
    const OverlapSolution reused =
        solve_overlapped(inst.slots, inst.items, options, shared);
    SchedWorkspace fresh;
    const OverlapSolution pristine =
        solve_overlapped(inst.slots, inst.items, options, fresh);
    expect_same_solution(reused, pristine);
  }
  EXPECT_EQ(shared.solves(), 1000u);
}

TEST(Workspace, ThreadWorkspaceIsStableAndCounts) {
  SchedWorkspace& ws = thread_workspace();
  EXPECT_EQ(&ws, &thread_workspace());
  const std::uint64_t before = ws.solves();
  const std::vector<OverlapSlot> slots = {{0, 10}, {1, 10}};
  const std::vector<OverlapItem> items = {{0, 5, 2.0, 0, 1}};
  (void)solve_overlapped(slots, items, 0.1);  // legacy API rides it
  EXPECT_EQ(ws.solves(), before + 1);
}

TEST(SolveStats, ReportsBackendMixUnderAuto) {
  // Two slots on opposite sides of the auto threshold: one tiny
  // capacity (exact) and one byte-scale capacity (FPTAS).
  const std::vector<OverlapSlot> slots = {{0, 100}, {1, 50'000'000}};
  std::vector<OverlapItem> items;
  for (int i = 0; i < 12; ++i) {
    items.push_back({i, 10 + i, 5.0 + i, 0, 1});
  }
  SolverOptions options;
  options.choice = SolverChoice::kAuto;
  SchedWorkspace ws;
  SolveStats stats;
  (void)solve_overlapped(slots, items, options, ws, &stats);
  EXPECT_EQ(stats.slot_solves_exact, 1u);
  EXPECT_EQ(stats.slot_solves_fptas, 1u);
  EXPECT_GT(stats.dp_cells, 0u);
  EXPECT_EQ(stats.duplicated_items, 24u);
}

// ---------------------------------------------------------------------
// Take-all fast path: when a slot's candidates all fit, knapsack_fptas
// skips the DP. It must return exactly what the frozen legacy DP does.
// ---------------------------------------------------------------------

/// A knapsack whose profitable, fitting items (the FPTAS candidates)
/// weigh `fit_weight` in total, mixed with every item kind the
/// candidate partition filters or the scaling rounds to zero.
struct SlackKnapsack {
  std::vector<KnapItem> items;
  std::int64_t fit_weight = 0;
};

SlackKnapsack random_slack_knapsack(Rng& rng, double eps) {
  SlackKnapsack k;
  int id = 0;
  // pmax = 100 pins the scale eps·pmax/n at >= eps·100/n.
  const int n_fit = static_cast<int>(rng.uniform_int(2, 30));
  const int n_tiny = static_cast<int>(rng.uniform_int(0, 5));
  const int n_total = n_fit + n_tiny;
  for (int i = 0; i < n_fit; ++i) {
    const double profit = i == 0 ? 100.0 : rng.uniform(1.0, 100.0);
    const std::int64_t weight = rng.uniform_int(1, 60);
    k.items.push_back({id++, profit, weight});
    k.fit_weight += weight;
  }
  // 0 < profit < eps·pmax/n: a candidate whose scaled profit is 0.
  const double tiny_bound = eps * 100.0 / n_total;
  for (int i = 0; i < n_tiny; ++i) {
    const std::int64_t weight = rng.uniform_int(1, 20);
    k.items.push_back({id++, rng.uniform(0.01, 0.99) * tiny_bound, weight});
    k.fit_weight += weight;
  }
  // Zero-weight items (profitable ones are always taken) and
  // non-positive profits (never candidates, whatever their weight).
  for (int i = static_cast<int>(rng.uniform_int(0, 3)); i > 0; --i) {
    k.items.push_back({id++, rng.uniform(-5.0, 50.0), 0});
  }
  for (int i = static_cast<int>(rng.uniform_int(0, 3)); i > 0; --i) {
    k.items.push_back(
        {id++, i == 1 ? 0.0 : -rng.uniform(0.1, 9.0), rng.uniform_int(1, 80)});
  }
  // Shuffle so candidates interleave with the filtered items.
  for (std::size_t i = k.items.size(); i > 1; --i) {
    std::swap(k.items[i - 1],
              k.items[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return k;
}

/// Appends profitable items wider than `capacity` (never candidates).
void add_wide_items(Rng& rng, std::vector<KnapItem>& items,
                    std::int64_t capacity) {
  int id = 1000;
  for (int i = static_cast<int>(rng.uniform_int(0, 3)); i > 0; --i) {
    const auto at = rng.uniform_int(0, static_cast<std::int64_t>(items.size()));
    items.insert(items.begin() + at,
                 KnapItem{id++, rng.uniform(1.0, 200.0),
                          capacity + rng.uniform_int(1, 100)});
  }
}

void expect_same_knap(const KnapResult& got, const KnapResult& want) {
  EXPECT_EQ(got.chosen, want.chosen);
  EXPECT_EQ(got.profit, want.profit);  // bit-for-bit, no tolerance
  EXPECT_EQ(got.weight, want.weight);
}

TEST(TakeAllFastPath, MatchesLegacyDpOnRandomSlackInstances) {
  Rng rng(4242);
  SchedWorkspace ws;
  bool saw_sp_zero = false;
  for (const double eps : {0.05, 0.1, 0.5}) {
    for (int run = 0; run < 200; ++run) {
      SlackKnapsack k = random_slack_knapsack(rng, eps);
      // Exact fit on every fourth run, otherwise some slack.
      const std::int64_t capacity =
          k.fit_weight + (run % 4 == 0 ? 0 : rng.uniform_int(1, 500));
      add_wide_items(rng, k.items, capacity);
      const KnapResult want = legacy::fptas(k.items, capacity, eps);
      SolveStats stats;
      const KnapResult got = knapsack_fptas(k.items, capacity, eps, ws,
                                            &stats);
      expect_same_knap(got, want);
      EXPECT_EQ(stats.slack_slots, 1u) << "eps=" << eps << " run=" << run;
      EXPECT_EQ(stats.dp_cells, 0u);
      EXPECT_LE(got.weight, capacity);
      // A candidate the scaling rounds to zero is left out, as the DP
      // leaves it out.
      for (const KnapItem& item : k.items) {
        if (item.profit > 0.0 && item.weight > 0 &&
            item.weight <= capacity &&
            std::find(got.chosen.begin(), got.chosen.end(), item.id) ==
                got.chosen.end()) {
          saw_sp_zero = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_sp_zero);
}

TEST(TakeAllFastPath, OneByteOverCapacityRunsTheDp) {
  Rng rng(777);
  SchedWorkspace ws;
  for (int run = 0; run < 200; ++run) {
    const double eps = run % 2 == 0 ? 0.1 : 0.3;
    SlackKnapsack k = random_slack_knapsack(rng, eps);
    // Every candidate weighs at most 60 and there are at least two, so
    // each still fits alone and only the total overflows.
    const std::int64_t capacity = k.fit_weight - 1;
    add_wide_items(rng, k.items, capacity);
    const KnapResult want = legacy::fptas(k.items, capacity, eps);
    SolveStats stats;
    const KnapResult got = knapsack_fptas(k.items, capacity, eps, ws,
                                          &stats);
    expect_same_knap(got, want);
    EXPECT_EQ(stats.slack_slots, 0u) << "run=" << run;
    EXPECT_GT(stats.dp_cells, 0u);
  }
}

TEST(TakeAllFastPath, TableLimitStillRefusesSlackInstances) {
  // 200 equal-profit unit-weight items at eps = 0.01 scale to 20,000
  // each: the choice table is 200 * (4e6 + 1) > 4e8 cells. Every item
  // fits, but the limit is checked before the fast path.
  std::vector<KnapItem> items;
  for (int i = 0; i < 200; ++i) items.push_back({i, 5.0, 1});
  SchedWorkspace ws;
  SolveStats stats;
  EXPECT_THROW(knapsack_fptas(items, 1'000'000'000, 0.01, ws, &stats),
               Error);
  EXPECT_EQ(stats.slack_slots, 0u);
  // The same items at a coarser eps fit the table and take the fast path.
  EXPECT_EQ(knapsack_fptas(items, 1'000'000'000, 0.5, ws, &stats)
                .chosen.size(),
            items.size());
  EXPECT_EQ(stats.slack_slots, 1u);
}

/// Slots of `inst` whose FPTAS candidates (positive profit in that slot,
/// 0 < weight <= capacity) exist and all fit together.
std::size_t count_slack_slots(const OverlapInstance& inst) {
  std::size_t slack = 0;
  for (std::size_t s = 0; s < inst.slots.size(); ++s) {
    const std::int64_t cap = inst.slots[s].capacity;
    const int slot = static_cast<int>(s);
    std::int64_t weight = 0;
    bool any = false;
    for (const OverlapItem& item : inst.items) {
      if (item.prev_slot != slot && item.next_slot != slot) continue;
      if (item.profit_in(slot) <= 0.0 || item.weight == 0 ||
          item.weight > cap) {
        continue;
      }
      any = true;
      weight += item.weight;
    }
    slack += any && weight <= cap ? 1 : 0;
  }
  return slack;
}

TEST(TakeAllFastPath, SlackSlotsCountedOnSlackAndBindingInstances) {
  Rng rng(9001);
  SchedWorkspace ws;
  SolverOptions options;  // kFptas
  obs::Counter& counter =
      obs::Registry::global().counter("sched.solver.slack_slots");
  bool saw_slack = false, saw_binding = false;
  for (int run = 0; run < 200; ++run) {
    const int n_slots = static_cast<int>(rng.uniform_int(2, 6));
    const int n_items = static_cast<int>(rng.uniform_int(1, 30));
    // Alternate roomy slots (all slack) with tight ones (mostly binding).
    const std::int64_t max_cap = run % 2 == 0 ? 100'000 : 150;
    OverlapInstance inst = random_instance(rng, n_items, n_slots, max_cap);
    if (run % 2 == 0) {
      for (OverlapSlot& slot : inst.slots) slot.capacity += 50'000;
    }
    const std::size_t want = count_slack_slots(inst);
    const std::uint64_t before = counter.value();
    SolveStats stats;
    (void)solve_overlapped(inst.slots, inst.items, options, ws, &stats);
    EXPECT_EQ(stats.slack_slots, want) << "run=" << run;
    EXPECT_EQ(counter.value() - before, want);
    if (want == inst.slots.size()) {
      saw_slack = true;
      EXPECT_EQ(stats.dp_cells, 0u);
    }
    if (want < inst.slots.size()) saw_binding = true;
  }
  EXPECT_TRUE(saw_slack);
  EXPECT_TRUE(saw_binding);
}

TEST(TakeAllFastPath, OnlyTheFptasKernelTakesIt) {
  // The exact DP keeps its table on slack slots; the greedy has none.
  const std::vector<OverlapSlot> slots = {{0, 1'000}};
  std::vector<OverlapItem> items;
  for (int i = 0; i < 10; ++i) items.push_back({i, 10, 1.0 + i, 0, -1});
  SchedWorkspace ws;
  for (const SolverChoice backend :
       {SolverChoice::kExact, SolverChoice::kGreedy}) {
    SolverOptions options;
    options.choice = backend;
    SolveStats stats;
    (void)solve_overlapped(slots, items, options, ws, &stats);
    EXPECT_EQ(stats.slack_slots, 0u) << to_string(backend);
  }
}

}  // namespace
}  // namespace netmaster::sched
