#include "sampling/session.h"

#include <cstddef>
#include <exception>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "sampling/sequential.h"
#include "support/failpoint.h"

namespace pardpp {

namespace {

/// Source of SessionHealth::session_epoch: process-wide, monotone,
/// starting at 1 so 0 reads as "no session".
std::uint64_t next_session_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void RecoveryOptions::validate() const {
  if (!enabled) return;
  check_arg(max_retries != 0,
            "RecoveryOptions::max_retries: enabled recovery with a zero "
            "retry budget never retries (disable recovery instead — "
            "enabling it alone already changes the per-draw stream "
            "protocol)");
}

void SessionOptions::validate(std::size_t sample_size) const {
  check_arg(batched.machine_cap != 0,
            "BatchedOptions::machine_cap: must be positive");
  check_arg(batched.failure_prob > 0.0 && batched.failure_prob < 1.0,
            "BatchedOptions::failure_prob: must lie in (0, 1)");
  check_arg(entropic.machine_cap != 0,
            "EntropicOptions::machine_cap: must be positive");
  check_arg(entropic.failure_prob > 0.0 && entropic.failure_prob < 1.0,
            "EntropicOptions::failure_prob: must lie in (0, 1)");
  check_arg(entropic.c > 0.0, "EntropicOptions::c: must be positive");
  check_arg(entropic.alpha > 0.0,
            "EntropicOptions::alpha: must be positive");
  recovery.validate();
  if (distill.enabled) distill.validate(sample_size);
}

SamplerSession::SamplerSession(const CountingOracle& base,
                               SessionOptions options)
    : base_(&base),
      options_(std::move(options)),
      epoch_(next_session_epoch()) {
  options_.validate(base.sample_size());
  if (options_.distill.enabled) {
    // The distillation plan is the whole point of the front end: an O(n)
    // pass over the ensemble diagonal instead of the full-n spectral
    // preprocessing, which is infeasible at the ground sizes this path
    // serves. The base oracle's caches stay cold (until a recovery rung
    // degrades to the undistilled path, which primes them lazily).
    plan_ = std::make_unique<DistillationPlan>(base, options_.distill);
    return;
  }
  ensure_base_primed();
}

void SamplerSession::ensure_base_primed() const {
  std::call_once(base_primed_, [this] { base_->prepare_concurrent(); });
}

std::unique_ptr<CommittedOracle> SamplerSession::make_state() const {
  return options_.use_commit ? base_->make_committed()
                             : make_condition_reference(*base_);
}

SampleResult SamplerSession::run(CommittedOracle& state,
                                 RandomStream& rng) const {
  // Draws dispatched onto pool workers must not fan out again (and the
  // nesting guard would degenerate them anyway): the round loops run on a
  // serial context, cross-sample concurrency being the session's axis.
  const ExecutionContext serial = ExecutionContext::serial();
  switch (options_.kind) {
    case SamplerKind::kBatched:
      return sample_batched_on(state, rng, serial, options_.batched);
    case SamplerKind::kEntropic:
      return sample_entropic_on(state, rng, serial, options_.entropic);
    case SamplerKind::kSequential:
      return sample_sequential_on(state, rng);
  }
  return {};
}

SampleResult SamplerSession::draw_distilled(RandomStream& rng) const {
  // Fresh inner state per accepted pool: the restricted oracle lives only
  // for this draw, and use_commit picks the same commit-vs-reference
  // dispatch as the full-n path — with identical per-family protocols,
  // so the distilled bit-identity contract carries over.
  try {
    return plan_->draw(rng, [this](const CountingOracle& restricted,
                                   RandomStream& inner_rng) {
      const auto state = options_.use_commit
                             ? restricted.make_committed()
                             : make_condition_reference(restricted);
      return run(*state, inner_rng);
    });
  } catch (const DistillationStarvation& starved) {
    // Re-throw with the session context attached; the diagnostics struct
    // (attempts-at-failure in .proposals, duplicate_rejects) rides along
    // unchanged for the caller's forensics.
    throw DistillationStarvation(
        std::string(starved.what()) + " [session: family " + base_->name() +
            ", kind " + sampler_kind_name(options_.kind) +
            (options_.use_commit ? ", commit path" : ", condition() reference") +
            "]",
        starved.diag);
  }
}

SampleResult SamplerSession::run_rung(Rung rung,
                                      std::unique_ptr<CommittedOracle>& slot,
                                      RandomStream& rng) const {
  switch (rung) {
    case Rung::kConfigured:
      if (plan_ != nullptr) return draw_distilled(rng);
      if (slot == nullptr) {
        slot = make_state();
      } else {
        slot->reset();
      }
      return run(*slot, rng);
    case Rung::kUndistilled: {
      ensure_base_primed();
      const auto state = make_state();
      return run(*state, rng);
    }
    case Rung::kReference: {
      ensure_base_primed();
      const auto state = make_condition_reference(*base_);
      return run(*state, rng);
    }
  }
  throw Error("SamplerSession: invalid recovery rung");
}

SamplerSession::Rung SamplerSession::next_rung(Rung rung) const {
  const auto available = [&](Rung r) {
    switch (r) {
      case Rung::kConfigured:
        return true;
      case Rung::kUndistilled:
        return plan_ != nullptr;
      case Rung::kReference:
        // Only a real degradation when the session runs the commit path;
        // with use_commit = false the undistilled rung (or, undistilled
        // sessions, the configured path) already IS the reference.
        return options_.use_commit;
    }
    return false;
  };
  for (int r = static_cast<int>(rung) + 1;
       r <= static_cast<int>(Rung::kReference); ++r) {
    if (available(static_cast<Rung>(r))) return static_cast<Rung>(r);
  }
  return rung;  // ladder exhausted: remaining attempts retry in place
}

void SamplerSession::emit(GuardEventKind kind, std::size_t index,
                          std::size_t attempt, std::string detail) const {
  if (!options_.guard_events) return;
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  options_.guard_events(
      GuardEvent{kind, index, attempt, std::move(detail)});
}

void SamplerSession::note_success(SampleResult& result, Rung rung,
                                  std::size_t attempt, std::size_t index) {
  result.diag.recovery_retries = attempt;
  result.diag.degradation_level = static_cast<std::size_t>(rung);
  if (result.diag.spectral_refreshes > 0) {
    spectral_refreshes_.fetch_add(result.diag.spectral_refreshes,
                                  std::memory_order_relaxed);
    emit(GuardEventKind::kSpectralRefresh, index, attempt,
         std::to_string(result.diag.spectral_refreshes) + " refresh(es)");
  }
  switch (rung) {
    case Rung::kConfigured:
      break;
    case Rung::kUndistilled:
      degraded_undistilled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Rung::kReference:
      degraded_reference_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void SamplerSession::note_failure(std::size_t index, std::size_t attempt,
                                  const std::exception_ptr& error,
                                  bool final_failure) {
  try {
    std::rethrow_exception(error);
  } catch (const DistillationStarvation& starved) {
    starvations_.fetch_add(1, std::memory_order_relaxed);
    emit(GuardEventKind::kStarvation, index, attempt, starved.what());
  } catch (const std::exception& error_obj) {
    emit(GuardEventKind::kDrawFailure, index, attempt, error_obj.what());
  } catch (...) {
    emit(GuardEventKind::kDrawFailure, index, attempt, "unknown exception");
  }
  if (final_failure) failures_.fetch_add(1, std::memory_order_relaxed);
}

SampleResult SamplerSession::draw_indexed(
    std::size_t index, RandomStream& rng,
    std::unique_ptr<CommittedOracle>& slot) {
  draws_.fetch_add(1, std::memory_order_relaxed);
  // One deterministic-firing scope per draw, keyed by the draw's stream
  // index: an armed failpoint schedule fires as a function of the index
  // alone — never of the pool size or the chunk layout — which is what
  // keeps the bit-identity contracts testable with faults injected.
  // Constructed only when armed, so the inactive cost stays one load.
  std::optional<FailpointScope> scope;
  if (FailpointRegistry::armed())
    scope.emplace(static_cast<std::uint64_t>(index));

  if (!options_.recovery.enabled) {
    try {
      SampleResult result = run_rung(Rung::kConfigured, slot, rng);
      note_success(result, Rung::kConfigured, 0, index);
      return result;
    } catch (...) {
      // Failure atomicity: the chunk state may be mid-run; discard it so
      // the next draw rebuilds from the shared caches.
      slot.reset();
      note_failure(index, 0, std::current_exception(),
                   /*final_failure=*/true);
      throw;
    }
  }

  // Recovery: attempt a consumes the stream forked from the draw's
  // stream by attempt index — the same per-index protocol draw_many uses
  // one level up — so a recovered draw is a function of (seed, index,
  // attempt sequence) and reproduces bit-identically at every pool size.
  const MachineStreams attempts(rng);
  Rung rung = Rung::kConfigured;
  const std::size_t budget = options_.recovery.max_retries;
  std::exception_ptr last;
  for (std::size_t attempt = 0; attempt <= budget; ++attempt) {
    RandomStream attempt_rng = attempts.stream(attempt);
    try {
      SampleResult result = run_rung(rung, slot, attempt_rng);
      note_success(result, rung, attempt, index);
      return result;
    } catch (const Error&) {
      slot.reset();
      last = std::current_exception();
      const bool more = attempt < budget;
      note_failure(index, attempt, last, /*final_failure=*/!more);
      if (!more) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
      const Rung next = next_rung(rung);
      if (next != rung) {
        rung = next;
        GuardEventKind kind = GuardEventKind::kRetry;
        switch (rung) {
          case Rung::kUndistilled:
            kind = GuardEventKind::kDegradeUndistilled;
            break;
          case Rung::kReference:
            kind = GuardEventKind::kDegradeReference;
            break;
          case Rung::kConfigured:
            break;
        }
        emit(kind, index, attempt + 1, "");
      } else {
        emit(GuardEventKind::kRetry, index, attempt + 1, "");
      }
    } catch (...) {
      // Non-pardpp exceptions (std::bad_alloc & co.) never consume the
      // retry budget: the ladder is for the library's typed failure
      // model, not for conditions recovery cannot reason about.
      slot.reset();
      note_failure(index, attempt, std::current_exception(),
                   /*final_failure=*/true);
      throw;
    }
  }
  std::rethrow_exception(last);
}

SampleResult SamplerSession::draw(RandomStream& rng) {
  std::unique_ptr<CommittedOracle>& slot = serial_state_;
  return draw_indexed(
      serial_index_.fetch_add(1, std::memory_order_relaxed), rng, slot);
}

std::vector<SampleResult> SamplerSession::draw_many(
    std::size_t count, RandomStream& rng, const ExecutionContext& ctx) {
  std::vector<SampleResult> out(count);
  const MachineStreams streams(rng);
  ctx.for_each_chunk(
      0, count,
      [&](std::size_t lo, std::size_t hi) {
        // One committed state per chunk, built lazily by the first
        // non-distilled configured-rung draw and discarded on failure.
        std::unique_ptr<CommittedOracle> state;
        for (std::size_t i = lo; i < hi; ++i) {
          RandomStream stream = streams.stream(i);
          out[i] = draw_indexed(i, stream, state);
        }
      },
      /*grain=*/1);
  return out;
}

std::vector<DrawBatchOutcome> SamplerSession::draw_many_batched(
    const std::vector<DrawBatchRequest>& requests,
    const ExecutionContext& ctx) {
  // Per-request stream forks, each consuming exactly what a standalone
  // `RandomStream rng(seed); draw_many(count, rng, ctx)` would consume
  // (one split of the seeded root stream) — the whole determinism
  // contract lives here.
  std::vector<MachineStreams> streams;
  streams.reserve(requests.size());
  std::size_t total = 0;
  for (const DrawBatchRequest& request : requests) {
    RandomStream root(request.seed);
    streams.emplace_back(root);
    total += request.count;
  }
  // Flat index → (request, request-local draw index). The local index is
  // what draw_indexed keys streams, failpoint scopes, and guard events
  // on, so a coalesced draw is indistinguishable from its standalone
  // counterpart.
  std::vector<std::size_t> request_of(total);
  std::vector<std::size_t> local_of(total);
  {
    std::size_t flat = 0;
    for (std::size_t r = 0; r < requests.size(); ++r) {
      for (std::size_t i = 0; i < requests[r].count; ++i, ++flat) {
        request_of[flat] = r;
        local_of[flat] = i;
      }
    }
  }

  std::vector<SampleResult> flat_results(total);
  std::vector<std::exception_ptr> flat_errors(total);
  ctx.for_each_chunk(
      0, total,
      [&](std::size_t lo, std::size_t hi) {
        // One committed state per chunk, exactly as draw_many: the state
        // is reset between draws, so sharing it across request
        // boundaries never leaks one request's conditioning into the
        // next. Unlike draw_many, a throwing draw is captured per flat
        // index instead of aborting the chunk — failures must be
        // isolated to the request that owns them.
        std::unique_ptr<CommittedOracle> state;
        for (std::size_t i = lo; i < hi; ++i) {
          RandomStream stream = streams[request_of[i]].stream(local_of[i]);
          try {
            flat_results[i] = draw_indexed(local_of[i], stream, state);
          } catch (...) {
            flat_errors[i] = std::current_exception();
          }
        }
      },
      /*grain=*/1);

  std::vector<DrawBatchOutcome> outcomes(requests.size());
  std::size_t flat = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    DrawBatchOutcome& outcome = outcomes[r];
    for (std::size_t i = 0; i < requests[r].count; ++i, ++flat) {
      if (outcome.error == nullptr && flat_errors[flat] != nullptr)
        outcome.error = flat_errors[flat];
    }
    if (outcome.error == nullptr) {
      const std::size_t base = flat - requests[r].count;
      outcome.results.assign(
          std::make_move_iterator(flat_results.begin() +
                                  static_cast<std::ptrdiff_t>(base)),
          std::make_move_iterator(flat_results.begin() +
                                  static_cast<std::ptrdiff_t>(flat)));
    }
  }
  return outcomes;
}

SessionHealth SamplerSession::health() const {
  SessionHealth health;
  health.draws = draws_.load(std::memory_order_relaxed);
  health.failures = failures_.load(std::memory_order_relaxed);
  health.retries = retries_.load(std::memory_order_relaxed);
  health.degraded_undistilled =
      degraded_undistilled_.load(std::memory_order_relaxed);
  health.degraded_reference =
      degraded_reference_.load(std::memory_order_relaxed);
  health.spectral_refreshes =
      spectral_refreshes_.load(std::memory_order_relaxed);
  health.starvations = starvations_.load(std::memory_order_relaxed);
  health.session_epoch = epoch_;
  return health;
}

}  // namespace pardpp
