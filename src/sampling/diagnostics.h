// Result/diagnostics structs shared by all samplers, plus the unified
// GuardEvent channel every SamplerSession degradation/retry/guard event
// flows through (DESIGN.md §2 convention 12).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "parallel/pram.h"

namespace pardpp {

/// What a SamplerSession guard event reports.
enum class GuardEventKind {
  kDrawFailure,         ///< an attempt threw a typed error (detail = what())
  kRetry,               ///< re-attempting on the same ladder rung
  kDegradeUndistilled,  ///< ladder: distilled → full-n path
  kDegradeReference,    ///< ladder: commit → condition() reference
  kSpectralRefresh,     ///< a draw paid eigensolve fallbacks (detail = count)
  kStarvation,          ///< DistillationStarvation surfaced
};

/// Number of GuardEventKind values — sizes per-kind counter arrays (the
/// serving layer's stats surface). Keep in sync with the enum.
inline constexpr std::size_t kGuardEventKindCount =
    static_cast<std::size_t>(GuardEventKind::kStarvation) + 1;

[[nodiscard]] constexpr const char* guard_event_kind_name(
    GuardEventKind kind) noexcept {
  switch (kind) {
    case GuardEventKind::kDrawFailure:
      return "draw_failure";
    case GuardEventKind::kRetry:
      return "retry";
    case GuardEventKind::kDegradeUndistilled:
      return "degrade_undistilled";
    case GuardEventKind::kDegradeReference:
      return "degrade_reference";
    case GuardEventKind::kSpectralRefresh:
      return "spectral_refresh";
    case GuardEventKind::kStarvation:
      return "starvation";
  }
  return "unknown";
}

/// One recovery/degradation/guard event from a SamplerSession draw.
/// `draw_index` is the draw's stream index (draw_many position, or the
/// serial draw ordinal), `attempt` the 0-based recovery attempt it
/// happened on.
struct GuardEvent {
  GuardEventKind kind;
  std::size_t draw_index = 0;
  std::size_t attempt = 0;
  std::string detail;
};

/// Observer for GuardEvents. Invoked under a session-internal mutex
/// (events from concurrent draw_many chunks arrive serialized); keep it
/// cheap and do not re-enter the session from inside it.
using GuardEventSink = std::function<void(const GuardEvent&)>;

/// Counters describing one sampler execution.
struct SampleDiagnostics {
  std::size_t rounds = 0;             ///< batch rounds executed
  std::size_t proposals = 0;          ///< rejection proposals evaluated
  std::size_t accepted_batches = 0;   ///< proposals that were accepted
  std::size_t duplicate_rejects = 0;  ///< proposals containing a repeat
  std::size_t ratio_overflows = 0;    ///< proposals with ratio above the cap
                                      ///< (Algorithm 3 "bad events")
  std::size_t oracle_calls = 0;       ///< counting-oracle queries issued
  std::size_t wave_count = 0;         ///< batched query_many rounds issued
  std::size_t wave_queries = 0;       ///< queries answered in those rounds
  std::size_t spectral_refreshes = 0; ///< commit-path eigensolve fallbacks
                                      ///< paid during this draw (0 on the
                                      ///< factor-native fast path and on
                                      ///< the condition() reference)
  std::size_t recovery_retries = 0;   ///< extra attempts the session's
                                      ///< recovery ladder spent on this draw
                                      ///< (0 = first attempt succeeded)
  std::size_t degradation_level = 0;  ///< ladder rung that produced this
                                      ///< draw: 0 configured path, 1
                                      ///< undistilled, 2 condition()
                                      ///< reference
  PramStats pram;                     ///< PRAM depth/work/machines ledger

  /// Overall acceptance frequency of the rejection stages.
  [[nodiscard]] double acceptance_rate() const {
    return proposals == 0 ? 1.0
                          : static_cast<double>(accepted_batches) /
                                static_cast<double>(proposals);
  }

  /// Mean counting queries amortized onto one shared-prefix wave state —
  /// the speculative work the batch-query engine answers per conditional
  /// factorization round (1.0 = nothing amortized, serial behaviour).
  [[nodiscard]] double queries_per_wave() const {
    return wave_count == 0 ? 1.0
                           : static_cast<double>(wave_queries) /
                                 static_cast<double>(wave_count);
  }
};

/// A sample (original ground-set ids, sorted) plus its diagnostics.
struct SampleResult {
  std::vector<int> items;
  SampleDiagnostics diag;
};

}  // namespace pardpp
