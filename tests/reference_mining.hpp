// Differential oracle for habit mining.
//
// fold is a frozen copy of the straightforward batch miner: it walks
// days [first_day, last_day) of a day-major bucket grid, accumulates
// each regime's per-hour sums in place (usage occupancy for Pr[u],
// distinct screen-off apps over m for Pr[n], the workload counts and
// bytes), then divides every sum by the regime's day count k and
// derives the per-slot confidence. Production mining is instead the
// decay-0 IncrementalHabitMiner fold plus snapshot(); drift_test
// requires HabitModel::mine (both overloads, every window) and the
// incremental miner to match this fold on every HourStats field, by
// bit pattern (model_mismatch).
//
// mine(UserTrace) is the tolerant reading of the batch contract:
// always sanitize, index the repaired trace, fold all its days, and
// carry the repair ledger's quality score.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/time.hpp"
#include "engine/trace_index.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "trace/trace.hpp"

namespace netmaster::reference {

/// Per-regime statistics plus the data-quality factor — everything a
/// HabitModel exposes.
struct MinedHabits {
  std::array<mining::HourStats, 2> stats{};
  double data_quality = 1.0;
};

/// k/(k+1) shrunk by the binomial standard error of p, with the
/// single-day penalty of 0.4 for k <= 1.
inline double slot_confidence(double k, double p) {
  const double stderr_p = std::sqrt(p * (1.0 - p) / k);
  double c = std::clamp(k / (k + 1.0) * (1.0 - stderr_p), 0.0, 1.0);
  if (k <= 1.0) c *= 0.4;
  return c;
}

inline MinedHabits fold(
    std::span<const engine::TraceIndex::HourBucket> buckets,
    std::size_t num_apps, int first_day, int last_day) {
  MinedHabits model;
  for (int d = first_day; d < last_day; ++d) {
    auto& s = model.stats[static_cast<std::size_t>(mining::day_kind(d))];
    ++s.days_observed;
    for (int h = 0; h < kHoursPerDay; ++h) {
      const engine::TraceIndex::HourBucket& bucket =
          buckets[static_cast<std::size_t>(d) * kHoursPerDay +
                  static_cast<std::size_t>(h)];
      if (bucket.usage_count > 0) s.pr_active[h] += 1.0;
      s.mean_intensity[h] += bucket.usage_count;
      s.mean_net_count[h] += bucket.net_count;
      s.mean_net_bytes[h] += bucket.net_bytes;
      if (num_apps > 0) {
        s.pr_net[h] += static_cast<double>(bucket.distinct_net_apps) /
                       static_cast<double>(num_apps);
      }
    }
  }
  for (auto& s : model.stats) {
    if (s.days_observed == 0) continue;  // confidence stays all-zero
    const auto k = static_cast<double>(s.days_observed);
    for (int h = 0; h < kHoursPerDay; ++h) {
      s.pr_active[h] /= k;
      s.pr_net[h] /= k;
      s.mean_intensity[h] /= k;
      s.mean_net_count[h] /= k;
      s.mean_net_bytes[h] /= k;
      s.confidence[h] = slot_confidence(k, s.pr_active[h]);
    }
  }
  return model;
}

inline MinedHabits mine(const engine::TraceIndex& index, int first_day,
                        int last_day) {
  return fold(index.buckets(), index.num_apps(), first_day, last_day);
}

inline MinedHabits mine(const UserTrace& history) {
  const fault::SanitizeResult repaired = fault::sanitize_trace(history);
  const engine::TraceIndex index(repaired.trace);
  MinedHabits model = mine(index, 0, index.num_days());
  model.data_quality = repaired.report.quality();
  return model;
}

/// First field where `model` differs from `expected` by bit pattern,
/// or "" when they match exactly.
inline std::string model_mismatch(const mining::HabitModel& model,
                                  const MinedHabits& expected) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (bits(model.data_quality()) != bits(expected.data_quality)) {
    return "data_quality";
  }
  for (const mining::DayKind kind :
       {mining::DayKind::kWeekday, mining::DayKind::kWeekend}) {
    const mining::HourStats& got = model.stats(kind);
    const mining::HourStats& want =
        expected.stats[static_cast<std::size_t>(kind)];
    const std::string regime =
        kind == mining::DayKind::kWeekday ? "weekday " : "weekend ";
    if (got.days_observed != want.days_observed) {
      return regime + "days_observed";
    }
    for (int h = 0; h < kHoursPerDay; ++h) {
      const std::string at = " h" + std::to_string(h);
      if (bits(got.pr_active[h]) != bits(want.pr_active[h])) {
        return regime + "pr_active" + at;
      }
      if (bits(got.pr_net[h]) != bits(want.pr_net[h])) {
        return regime + "pr_net" + at;
      }
      if (bits(got.mean_intensity[h]) != bits(want.mean_intensity[h])) {
        return regime + "mean_intensity" + at;
      }
      if (bits(got.mean_net_count[h]) != bits(want.mean_net_count[h])) {
        return regime + "mean_net_count" + at;
      }
      if (bits(got.mean_net_bytes[h]) != bits(want.mean_net_bytes[h])) {
        return regime + "mean_net_bytes" + at;
      }
      if (bits(got.confidence[h]) != bits(want.confidence[h])) {
        return regime + "confidence" + at;
      }
    }
  }
  return "";
}

}  // namespace netmaster::reference
