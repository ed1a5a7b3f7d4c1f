// Unified configuration façade for the serving layer (DESIGN.md §2
// convention 13).
//
// One config representation flows from wire request to primed session:
// `SessionConfig` wraps the sampling-side `SessionOptions` POD surface
// and gives it the three things serving needs — `validate()` (typed
// InvalidArgument naming the offending field), and a canonical text
// round-trip (`to_string`/`parse`) shared by the CLI flags, the daemon
// protocol, and the kernel fingerprint. `ServingConfig` does the same
// for the server's own knobs (pool size, admission control, registry
// budget).
//
// Canonical form: every field, in a fixed order, as `key=value` pairs
// joined by commas — so equal configs produce byte-equal strings and a
// parsed config re-serializes to the canonical spelling regardless of
// the input's field order or float formatting. Doubles print with %.17g
// (bit-exact round trip); booleans as 0/1; the sampler kind by its
// sampler_kind_name. `parse` accepts any subset of keys over defaults
// and throws InvalidArgument naming an unknown key or unparsable value.
// The one non-POD SessionOptions member, the guard_events sink, is
// process-local and deliberately outside the text surface.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "sampling/session.h"

namespace pardpp::serving {

/// SessionOptions plus the serialization/validation surface. The wrapped
/// options are the single source of truth — callers hand `.session` to
/// SamplerSession unchanged.
struct SessionConfig {
  SessionOptions session;

  /// Delegates to SessionOptions::validate (typed InvalidArgument naming
  /// the field); `sample_size` enables the k-relative checks when known.
  void validate(std::size_t sample_size = 0) const {
    session.validate(sample_size);
  }

  /// Canonical text form (see file comment). parse(to_string(c)) == c.
  [[nodiscard]] std::string to_string() const;

  /// Parses `key=value,...` over defaults. Throws InvalidArgument naming
  /// an unknown key, a malformed pair, or an unparsable value. An empty
  /// (or all-whitespace) string yields the defaults.
  [[nodiscard]] static SessionConfig parse(std::string_view text);
};

/// Server-side knobs: worker pool, registry budget, admission control.
struct ServingConfig {
  /// Threads of the shared ExecutionContext's pool, the dispatcher
  /// included (0 = physical concurrency). One pool serves every session
  /// — coalesced batches fan out across it.
  std::size_t pool_threads = 0;
  /// Registry LRU budget: least-recently-used sessions are evicted once
  /// the sum of resident-byte estimates exceeds this.
  std::size_t max_resident_bytes = std::size_t{256} << 20;
  /// Admission control: submissions beyond this queue depth are rejected
  /// with Overloaded instead of stalling.
  std::size_t max_queue_depth = 1024;
  /// Admission control: per-tenant in-flight cap, so one tenant cannot
  /// monopolize the queue.
  std::size_t max_inflight_per_tenant = 64;
  /// Largest draw count a single request may ask for.
  std::size_t max_draws_per_request = 4096;

  /// Throws InvalidArgument naming the offending field (every cap must
  /// be positive; pool_threads may be 0 = auto).
  void validate() const;

  /// Canonical text form; parse(to_string(c)) == c.
  [[nodiscard]] std::string to_string() const;

  /// Parses `key=value,...` over defaults; same error contract as
  /// SessionConfig::parse.
  [[nodiscard]] static ServingConfig parse(std::string_view text);
};

}  // namespace pardpp::serving
