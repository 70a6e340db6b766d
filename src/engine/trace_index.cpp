#include "engine/trace_index.hpp"

#include <algorithm>
#include <vector>

#include "common/cursor.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace netmaster::engine {

TraceIndex::TraceIndex(const UserTrace& trace)
    : trace_(&trace),
      source_(mem::Lifetime::immortal()),
      owned_arena_(std::make_unique<mem::Arena>()) {
  build(trace, *owned_arena_);
}

TraceIndex::TraceIndex(const UserTrace& trace, mem::Arena& arena,
                       mem::LifetimeHandle source)
    : trace_(&trace), source_(std::move(source)) {
  build(trace, arena);
}

void TraceIndex::build(const UserTrace& trace, mem::Arena& arena) {
  const obs::SpanScope span("engine.index_build");
  horizon_ = trace.trace_end();

  // SoA copies of the trace columns — after this the index never needs
  // the AoS trace again.
  columns_ = mem::TraceColumns::build(trace, arena);

  // Classification pass over the columns. One zeroed bit per activity,
  // plus the compact ascending index list (u32: a trace with > 4G
  // activities would have long blown the per-user budget).
  const mem::ActivityColumns& acts = columns_.activities;
  auto [flags, flag_words] = mem::BitSpan::build(acts.size(), arena);
  deferrable_flags_ = flags;
  std::vector<std::uint32_t> deferrable;
  CoverCursor<ScreenSession> screen(trace.sessions);
  for (std::size_t i = 0; i < acts.size(); ++i) {
    if (acts.deferrable_at(i) && !screen.contains(acts.start_at(i))) {
      mem::BitSpan::set(flag_words, i);
      deferrable.push_back(static_cast<std::uint32_t>(i));
    }
  }
  deferrable_ = arena.copy_array<std::uint32_t>(deferrable);

  // Per-(day, hour) buckets, folded from the AoS trace (the columns
  // are exact copies of it).
  const std::span<HourBucket> buckets = arena.alloc_zeroed<HourBucket>(
      static_cast<std::size_t>(std::max(columns_.num_days, 0)) *
      kHoursPerDay);
  fold_hour_buckets(trace, buckets);
  buckets_ = buckets;
}

void TraceIndex::fold_hour_buckets(const UserTrace& trace,
                                   std::span<HourBucket> buckets) {
  NM_REQUIRE(buckets.size() ==
                 static_cast<std::size_t>(std::max(trace.num_days, 0)) *
                     kHoursPerDay,
             "bucket span must hold num_days * kHoursPerDay buckets");
  // Events outside [0, horizon) are skipped so the fold stays total on
  // malformed traces (validate() still rejects them where strictness
  // matters).
  const TimeMs horizon = trace.trace_end();
  const std::size_t num_apps = trace.app_names.size();
  std::vector<bool> app_seen(buckets.size() * num_apps, false);
  for (const AppUsage& u : trace.usages) {
    if (u.time < 0 || u.time >= horizon) continue;
    ++buckets[static_cast<std::size_t>(day_of(u.time)) * kHoursPerDay +
              static_cast<std::size_t>(hour_of(u.time))]
          .usage_count;
  }
  CoverCursor<ScreenSession> screen(trace.sessions);
  for (const NetworkActivity& a : trace.activities) {
    if (a.start < 0 || a.start >= horizon) continue;
    if (screen.contains(a.start)) continue;  // screen-off only (Eq. 3)
    const std::size_t b =
        static_cast<std::size_t>(day_of(a.start)) * kHoursPerDay +
        static_cast<std::size_t>(hour_of(a.start));
    HourBucket& bucket = buckets[b];
    ++bucket.net_count;
    bucket.net_bytes += static_cast<double>(a.total_bytes());
    if (a.app >= 0 && static_cast<std::size_t>(a.app) < num_apps) {
      const std::size_t bit = b * num_apps + static_cast<std::size_t>(a.app);
      if (!app_seen[bit]) {
        app_seen[bit] = true;
        ++bucket.distinct_net_apps;
      }
    }
  }
}

const UserTrace& TraceIndex::trace() const {
  NM_REQUIRE(source_.alive(),
             "TraceIndex::trace — the source trace was evicted or moved "
             "from; replay must use the index's columnar accessors");
  return *trace_;
}

bool TraceIndex::screen_on_at(TimeMs t) const {
  const std::span<const TimeMs> ends = columns_.sessions.ends();
  const auto it = std::lower_bound(ends.begin(), ends.end(), t,
                                   [](TimeMs end, TimeMs v) {
                                     return end <= v;
                                   });
  if (it == ends.end()) return false;
  const std::size_t i = static_cast<std::size_t>(it - ends.begin());
  return columns_.sessions.begin_at(i) <= t && t < *it;
}

const TraceIndex::HourBucket& TraceIndex::bucket(int day, int hour) const {
  NM_REQUIRE(day >= 0 && day < columns_.num_days,
             "bucket day out of range");
  NM_REQUIRE(hour >= 0 && hour < kHoursPerDay, "bucket hour out of range");
  return buckets_[static_cast<std::size_t>(day) * kHoursPerDay +
                  static_cast<std::size_t>(hour)];
}

void TraceIndex::check_invariants() const {
  const UserTrace& source = trace();  // guarded: needs the source alive

  // The arena columns must mirror the source trace exactly.
  NM_REQUIRE(columns_.sessions.size() == source.sessions.size() &&
                 columns_.usages.size() == source.usages.size() &&
                 columns_.activities.size() == source.activities.size() &&
                 columns_.num_days == source.num_days,
             "index: column sizes drifted from the source trace");
  for (std::size_t i = 0; i < columns_.sessions.size(); ++i) {
    NM_REQUIRE(columns_.sessions[i] == source.sessions[i],
               "index: session column drifted from the source trace");
  }
  for (std::size_t i = 0; i < columns_.activities.size(); ++i) {
    NM_REQUIRE(columns_.activities[i] == source.activities[i],
               "index: activity column drifted from the source trace");
  }

  // Sessions sorted, disjoint, non-empty (mirrors UserTrace::validate
  // so a corrupted index is caught even on traces nobody validated).
  TimeMs prev_end = 0;
  for (const ScreenSession s : columns_.sessions) {
    NM_REQUIRE(s.begin < s.end, "index: empty screen session");
    NM_REQUIRE(s.begin >= prev_end, "index: sessions unsorted/overlapping");
    prev_end = s.end;
  }

  // Every activity classified exactly once, and exactly as the
  // canonical predicate does on the raw trace.
  NM_REQUIRE(deferrable_flags_.size() == source.activities.size(),
             "index: classification size mismatch");
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < source.activities.size(); ++i) {
    const NetworkActivity& act = source.activities[i];
    const bool expect = act.deferrable && !source.screen_on_at(act.start);
    NM_REQUIRE(deferrable_flags_.test(i) == expect,
               "index: classification disagrees with the trace");
    if (deferrable_flags_.test(i)) ++flagged;
  }
  NM_REQUIRE(deferrable_.size() == flagged,
             "index: deferrable list size mismatch");
  for (std::size_t k = 0; k < deferrable_.size(); ++k) {
    NM_REQUIRE(deferrable_[k] < deferrable_flags_.size() &&
                   deferrable_flags_.test(deferrable_[k]),
               "index: deferrable list references unflagged activity");
    NM_REQUIRE(k == 0 || deferrable_[k - 1] < deferrable_[k],
               "index: deferrable list not strictly ascending");
  }

  // Bucket totals match the in-range event counts.
  int usage_total = 0;
  int net_total = 0;
  for (const HourBucket& b : buckets_) {
    NM_REQUIRE(b.usage_count >= 0 && b.net_count >= 0 &&
                   b.net_bytes >= 0.0 && b.distinct_net_apps >= 0,
               "index: negative bucket counter");
    NM_REQUIRE(b.distinct_net_apps <= b.net_count,
               "index: more distinct apps than activities in bucket");
    usage_total += b.usage_count;
    net_total += b.net_count;
  }
  int usage_expected = 0;
  for (const AppUsage& u : source.usages) {
    if (u.time >= 0 && u.time < horizon_) ++usage_expected;
  }
  int net_expected = 0;
  for (const NetworkActivity& n : source.activities) {
    if (n.start >= 0 && n.start < horizon_ &&
        !source.screen_on_at(n.start)) {
      ++net_expected;
    }
  }
  NM_REQUIRE(usage_total == usage_expected,
             "index: usage bucket totals drifted from the trace");
  NM_REQUIRE(net_total == net_expected,
             "index: network bucket totals drifted from the trace");
}

}  // namespace netmaster::engine
