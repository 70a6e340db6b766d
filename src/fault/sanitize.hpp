// Graceful repair of corrupted traces — the degradation entry point.
//
// `sanitize_trace` accepts *any* UserTrace content (including the
// output of `fault::inject_faults` and raw RecordStore reconstructions
// from a faulty monitoring layer) and returns a trace that is
// guaranteed to satisfy UserTrace::validate(), plus a report of every
// repair made. Unrecoverable records (unknown app ids, timestamps
// outside the horizon) are dropped; recoverable ones are clamped
// (negative durations/bytes to zero, transfers clipped at the
// horizon, byte totals cut to fit int64); out-of-order streams are
// re-sorted; overlapping screen sessions are merged. A valid trace
// passes through bit-identically, but still as a full copy: validate()
// accepts a trace exactly when sanitize_trace would repair nothing, so
// a caller that can read its input in place (HabitModel::mine) checks
// validate() first and sanitizes only the traces it rejects.
//
// The report's `quality()` score feeds the mining layer's confidence
// model: heavily-repaired history lowers model confidence, which in
// turn trips NetMasterPolicy's safe fallback schedule.
#pragma once

#include <cstddef>

#include "trace/trace.hpp"

namespace netmaster::fault {

/// Ledger of repairs performed by sanitize_trace.
struct SanitizeReport {
  std::size_t total_events = 0;     ///< sessions + usages + activities in
  std::size_t dropped_events = 0;   ///< unrecoverable records removed
  std::size_t clamped_events = 0;   ///< fields clipped into valid range
  std::size_t merged_sessions = 0;  ///< overlapping sessions coalesced
  std::size_t resorted_streams = 0; ///< event streams re-sorted (0–3)
  bool day_count_repaired = false;  ///< num_days was < 1

  /// True when the input was already valid (no repair of any kind).
  bool clean() const {
    return dropped_events == 0 && clamped_events == 0 &&
           merged_sessions == 0 && resorted_streams == 0 &&
           !day_count_repaired;
  }

  /// Data-quality score in [0, 1]: the fraction of events that
  /// survived, with clamped events half-weighted. 1.0 for clean input.
  double quality() const {
    if (total_events == 0) return 1.0;
    const double penalty = static_cast<double>(dropped_events) +
                           0.5 * static_cast<double>(clamped_events);
    const double q =
        1.0 - penalty / static_cast<double>(total_events);
    return q < 0.0 ? 0.0 : q;
  }
};

/// A repaired trace plus its repair ledger.
struct SanitizeResult {
  UserTrace trace;  ///< always satisfies UserTrace::validate()
  SanitizeReport report;
};

/// Repairs `raw` as described above. Never throws on trace content.
SanitizeResult sanitize_trace(const UserTrace& raw);

}  // namespace netmaster::fault
