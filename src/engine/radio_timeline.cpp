#include "engine/radio_timeline.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace netmaster::engine {

namespace {

/// Clamps each item's window to [0, horizon) and collects the windows
/// into one canonical set. Windows arriving in time order take
/// IntervalSet::add's O(1) append path, so the batch builds in linear
/// time instead of inserting into the middle of the timeline.
template <typename Items, typename WindowOf>
IntervalSet clamped_batch(const Items& items, TimeMs horizon,
                          WindowOf window_of) {
  IntervalSet batch;
  for (const auto& item : items) {
    const Interval w = window_of(item);
    batch.add(std::max<TimeMs>(w.begin, 0), std::min(w.end, horizon));
  }
  return batch;
}

/// mW * ms -> joules. Same expression as power/radio_model.cpp so the
/// final doubles are bit-identical.
constexpr double energy_joules(double mw, DurationMs ms) {
  return mw * static_cast<double>(ms) * 1e-6;
}

constexpr TimeMs kFar = std::numeric_limits<TimeMs>::max() / 4;

}  // namespace

RadioTimeline::RadioTimeline(TimeMs horizon) : horizon_(horizon) {
  NM_REQUIRE(horizon >= 0, "timeline horizon must be non-negative");
}

void RadioTimeline::allow(TimeMs begin, TimeMs end) {
  begin = std::max<TimeMs>(begin, 0);
  end = std::min(end, horizon_);
  if (begin < end) allowed_.add(begin, end);
}

void RadioTimeline::merge(IntervalSet batch) {
  if (allowed_.empty()) {
    allowed_ = std::move(batch);
  } else {
    allowed_.add(batch);
  }
}

void RadioTimeline::allow(const IntervalSet& set) {
  allow_windows(set.intervals());
}

void RadioTimeline::allow_windows(const std::vector<Interval>& windows) {
  merge(clamped_batch(windows, horizon_,
                      [](const Interval& w) { return w; }));
}

void RadioTimeline::allow_transfers(
    const std::vector<sim::ExecutedTransfer>& transfers, DurationMs grace) {
  merge(clamped_batch(
      transfers, horizon_, [grace](const sim::ExecutedTransfer& t) {
        // A non-cellular transfer maps to an empty window: skipped.
        if (t.radio != RadioId::kCellular) return Interval{};
        return Interval{t.start, t.start + t.duration + grace};
      }));
}

void RadioTimeline::allow_wakes(const std::vector<duty::WakeEvent>& wakes) {
  merge(clamped_batch(wakes, horizon_, [](const duty::WakeEvent& w) {
    return Interval{w.time, w.time + w.window};
  }));
}

RadioAccounting account_intervals(std::span<const Interval> transfers,
                                  const RadioModel& model,
                                  TimeMs horizon_end,
                                  const IntervalSet* radio_allowed) {
  model.validate();
  const std::size_t n = transfers.size();

  const std::vector<Interval>* allowed =
      radio_allowed != nullptr ? &radio_allowed->intervals() : nullptr;

  // Validation pass, in index order so a doubly-invalid input raises
  // the same error the reference implementation would. The canonical
  // intervals are sorted, so the allowed-set membership check is one
  // monotone merge cursor instead of n binary searches.
  {
    std::size_t j = 0;
    for (const Interval& iv : transfers) {
      NM_REQUIRE(iv.end <= horizon_end,
                 "transfer extends beyond the accounting horizon");
      if (allowed != nullptr) {
        const TimeMs b = iv.begin;
        while (j < allowed->size() && (*allowed)[j].end <= b) ++j;
        NM_REQUIRE(j < allowed->size() && (*allowed)[j].begin <= b,
                   "transfer outside the radio-allowed set");
      }
    }
  }

  const std::size_t nt = model.num_tails;
  const DurationMs total_tail = model.total_tail_ms();
  DurationMs active_ms = 0;
  std::array<DurationMs, kMaxRadioTiers> tail_ms = {0, 0, 0, 0};
  DurationMs promo_ms = 0;
  DurationMs assoc_total = 0;
  int promotions = 0;
  int associations = 0;

  // End-of-allowed-window cursor. Query points (the running
  // connected_until) are non-decreasing, so one forward scan serves
  // every lookup including the trailing tail.
  std::size_t aj = 0;
  const auto allowed_until = [&](TimeMs t) -> TimeMs {
    if (allowed == nullptr) return kFar;
    while (aj < allowed->size() && (*allowed)[aj].end <= t) ++aj;
    if (aj < allowed->size() && (*allowed)[aj].begin <= t) {
      return (*allowed)[aj].end;
    }
    return t;
  };

  // Drains a tail span through the tier chain (clamped per tier).
  const auto charge_tail = [&](DurationMs span) {
    for (std::size_t i = 0; i < nt; ++i) {
      const DurationMs d = std::min(span, model.tails[i].duration_ms);
      tail_ms[i] += d;
      span -= d;
    }
  };

  TimeMs connected_until = 0;
  if (n > 0) {
    // Peel the first transfer: always a cold attach from IDLE
    // (association burst, if the model has one, then the promotion).
    const DurationMs promo0 = model.promo_idle_ms;
    promotions += promo0 > 0;
    promo_ms += promo0;
    assoc_total += model.assoc_ms;
    associations += model.assoc_ms > 0;
    const DurationMs dur0 = transfers[0].length();
    active_ms += dur0;
    connected_until = transfers[0].begin + model.assoc_ms + promo0 + dur0;

    for (std::size_t k = 1; k < n; ++k) {
      const TimeMs b = transfers[k].begin;
      const DurationMs dur = transfers[k].end - b;
      const TimeMs prev = connected_until;
      const TimeMs cut = allowed_until(prev);
      const TimeMs warm_end = prev + total_tail;

      // Inter-transfer tail: runs from prev to min(b, cut, tail
      // expiry). The no-gap case (b <= prev: the connected period
      // simply extends) clamps the span to zero — no branch.
      const TimeMs tail_stop = std::min({b, cut, warm_end});
      charge_tail(std::max<DurationMs>(tail_stop - prev, 0));

      // Promotion class by boolean arithmetic: a monotone scan over
      // the tier boundaries selects the surviving tier the transfer
      // lands in (paying that tier's re-promotion); a gap past the
      // chain — or past the allowed cut — is a cold attach.
      const bool gap = b > prev;
      const bool within = b <= cut;
      DurationMs promo = 0;
      bool matched = false;
      TimeMs boundary = prev;
      for (std::size_t i = 0; i < nt; ++i) {
        boundary += model.tails[i].duration_ms;
        const bool in_tier = gap & within & !matched & (b < boundary);
        promo += static_cast<DurationMs>(in_tier) * model.tails[i].promo_ms;
        matched |= in_tier;
      }
      const bool cold = gap & !matched;
      promo += static_cast<DurationMs>(cold) * model.promo_idle_ms;
      const DurationMs assoc =
          static_cast<DurationMs>(cold) * model.assoc_ms;
      assoc_total += assoc;
      associations += assoc > 0;
      promotions += promo > 0;
      promo_ms += promo;
      active_ms += dur;
      connected_until = std::max(b, prev) + assoc + promo + dur;
    }

    // Trailing tail after the final transfer, clipped at the horizon
    // and the allowed window.
    if (connected_until < horizon_end) {
      const TimeMs cut = allowed_until(connected_until);
      const TimeMs stop =
          std::min({horizon_end, cut, connected_until + total_tail});
      charge_tail(std::max<DurationMs>(stop - connected_until, 0));
    }
  }

  // Energy falls out of the integer totals exactly as in the
  // reference — same terms, same order, bit-identical doubles.
  RadioAccounting acc;
  acc.active_ms = active_ms;
  acc.tail_tier_ms = tail_ms;
  acc.promo_ms = promo_ms;
  acc.assoc_ms = assoc_total;
  acc.promotions = promotions;
  acc.associations = associations;
  acc.radio_on_ms = active_ms + promo_ms + assoc_total;
  for (std::size_t i = 0; i < nt; ++i) acc.radio_on_ms += tail_ms[i];
  acc.energy_j = energy_joules(model.active_mw, acc.active_ms);
  for (std::size_t i = 0; i < nt; ++i) {
    acc.energy_j += energy_joules(model.tails[i].power_mw, tail_ms[i]);
  }
  acc.energy_j += energy_joules(model.promo_mw, acc.promo_ms);
  acc.energy_j += energy_joules(model.assoc_mw, acc.assoc_ms);
  return acc;
}

}  // namespace netmaster::engine
