#include "sched/solver.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace netmaster::sched {

const char* to_string(SolverChoice choice) {
  switch (choice) {
    case SolverChoice::kFptas:
      return "fptas";
    case SolverChoice::kExact:
      return "exact";
    case SolverChoice::kGreedy:
      return "greedy";
    case SolverChoice::kAuto:
      return "auto";
  }
  return "unknown";
}

SolverChoice parse_solver_choice(std::string_view name) {
  if (name == "fptas") return SolverChoice::kFptas;
  if (name == "exact") return SolverChoice::kExact;
  if (name == "greedy") return SolverChoice::kGreedy;
  if (name == "auto") return SolverChoice::kAuto;
  NM_REQUIRE(false, "unknown solver choice: " + std::string(name));
}

void SolverOptions::validate() const {
  NM_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
  NM_REQUIRE(auto_exact_cells > 0, "auto_exact_cells must be positive");
  // The auto backend trusts this ceiling to keep the exact kernel
  // within its hard limits (capacity <= 4e6, n*(cap+1) <= 4e8).
  NM_REQUIRE(auto_exact_cells <= 400'000'000,
             "auto_exact_cells exceeds the exact DP instance limit");
}

SchedWorkspace& thread_workspace() {
  thread_local SchedWorkspace workspace;
  return workspace;
}

namespace {

class FptasSolver final : public SinKnapSolver {
 public:
  SolverChoice choice() const override { return SolverChoice::kFptas; }
  KnapResult solve(std::span<const KnapItem> items, std::int64_t capacity,
                   const SolverOptions& options, SchedWorkspace& ws,
                   SolveStats& stats) const override {
    return knapsack_fptas(items, capacity, options.eps, ws, &stats);
  }
};

class ExactSolver final : public SinKnapSolver {
 public:
  SolverChoice choice() const override { return SolverChoice::kExact; }
  KnapResult solve(std::span<const KnapItem> items, std::int64_t capacity,
                   const SolverOptions& /*options*/, SchedWorkspace& ws,
                   SolveStats& stats) const override {
    return knapsack_exact(items, capacity, ws, &stats);
  }
};

class GreedySolver final : public SinKnapSolver {
 public:
  SolverChoice choice() const override { return SolverChoice::kGreedy; }
  KnapResult solve(std::span<const KnapItem> items, std::int64_t capacity,
                   const SolverOptions& /*options*/, SchedWorkspace& ws,
                   SolveStats& stats) const override {
    return knapsack_greedy(items, capacity, ws, &stats);
  }
};

class AutoSolver final : public SinKnapSolver {
 public:
  SolverChoice choice() const override { return SolverChoice::kAuto; }

  SolverChoice resolve(std::size_t n, std::int64_t capacity,
                       const SolverOptions& options) const override {
    if (n == 0 || capacity < 0) return SolverChoice::kFptas;
    // Weight-indexed exact table vs. the FPTAS worst case
    // O(n^2 * ceil(n/eps)); doubles sidestep overflow on huge
    // capacities (bytes can reach hundreds of MB per slot).
    const auto nd = static_cast<double>(n);
    const double exact_cells = nd * (static_cast<double>(capacity) + 1.0);
    const double fptas_cells = nd * nd * std::ceil(nd / options.eps);
    if (exact_cells <= static_cast<double>(options.auto_exact_cells) &&
        exact_cells <= fptas_cells) {
      return SolverChoice::kExact;
    }
    return SolverChoice::kFptas;
  }

  KnapResult solve(std::span<const KnapItem> items, std::int64_t capacity,
                   const SolverOptions& options, SchedWorkspace& ws,
                   SolveStats& stats) const override {
    return solver_for(resolve(items.size(), capacity, options))
        .solve(items, capacity, options, ws, stats);
  }
};

}  // namespace

const SinKnapSolver& solver_for(SolverChoice choice) {
  static const FptasSolver fptas;
  static const ExactSolver exact;
  static const GreedySolver greedy;
  static const AutoSolver auto_solver;
  switch (choice) {
    case SolverChoice::kFptas:
      return fptas;
    case SolverChoice::kExact:
      return exact;
    case SolverChoice::kGreedy:
      return greedy;
    case SolverChoice::kAuto:
      return auto_solver;
  }
  NM_REQUIRE(false, "unknown solver choice");
}

}  // namespace netmaster::sched
