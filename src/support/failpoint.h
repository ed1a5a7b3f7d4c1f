// Deterministic fault injection — named, compiled-in failpoints.
//
// Robustness of the serving stack (recovery ladders, typed failure
// propagation) is only testable if the failures themselves are
// injectable on demand and *reproducible*: a flaky fault schedule makes a
// recovery test as untrustworthy as the bug it hunts. Every guard site in
// the library that can fail in production carries a named failpoint:
//
//   if (failpoint("linalg.cholesky.pivot"))
//     throw NumericalError("injected pivot failure ...");
//
// When the registry is inactive (the default), `failpoint()` is a single
// relaxed atomic load — cheap enough for round-loop hot paths, and the
// bench_throughput gate pins that it stays that way. Arming happens
// either programmatically (tests) or from the `PARDPP_FAILPOINTS`
// environment variable (the CI fault-injection leg):
//
//   PARDPP_FAILPOINTS="site=trigger[;site=trigger...]"
//   trigger items (comma-separated):
//     count:N    fire the next N hits (after `skip`), then stop
//     prob:P     fire each hit independently with probability P
//     skip:K     ignore the first K hits before the trigger applies
//     seed:S     seed of the probability hash (default 0)
//     scoped     fire only inside a FailpointScope (session draws)
//     off        parse-and-disable (placeholder in canned schedules)
//
// Determinism: a probability trigger never consults a global RNG. Each
// hit's decision is a pure hash of (spec seed, scope token, hit ordinal),
// so a schedule replays bit-identically from its seed. Hit ordinals are
// counted per (scope, site) when a FailpointScope is active — the scope
// SamplerSession installs per draw, with the draw's stream index as the
// token — so the firing pattern seen by draw i is a function of i alone,
// never of the pool size, the chunk layout, or what other draws did
// concurrently. Without a scope, ordinals fall back to a global per-site
// counter (deterministic for single-threaded use; thread-interleaving-
// dependent under concurrency, which is why session-side schedules say
// `scoped`).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.h"

namespace pardpp {

/// One failpoint's trigger. Default-constructed = disabled.
struct FailpointSpec {
  enum class Trigger { kOff, kCount, kProbability };
  Trigger trigger = Trigger::kOff;
  std::uint64_t skip = 0;         ///< hits ignored before the trigger applies
  std::uint64_t count = 0;        ///< kCount: hits that fire after `skip`
  double probability = 0.0;       ///< kProbability: per-hit firing chance
  std::uint64_t seed = 0;         ///< seed of the probability hash
  bool scoped_only = false;       ///< fire only inside a FailpointScope
};

/// RAII deterministic-firing scope: while alive on a thread, hit ordinals
/// for that thread are counted per (scope, site) and the probability hash
/// mixes in `token` — so the decisions made inside the scope are a pure
/// function of (spec, token, within-scope hit sequence). SamplerSession
/// installs one per draw with the draw's stream index as the token.
/// Scopes nest (the innermost wins) and are movable-from never — one per
/// stack frame.
class FailpointScope {
 public:
  explicit FailpointScope(std::uint64_t token) noexcept;
  ~FailpointScope();
  FailpointScope(const FailpointScope&) = delete;
  FailpointScope& operator=(const FailpointScope&) = delete;

  /// The scope active on the calling thread (innermost), or nullptr.
  [[nodiscard]] static FailpointScope* current() noexcept;
  /// Makes `scope` the calling thread's innermost scope and returns the
  /// one it replaces. ThreadPool::run detaches the scope (nullptr) around
  /// the bodies a thread runs, so no body inherits its runner's scope.
  static FailpointScope* exchange_current(FailpointScope* scope) noexcept;

  [[nodiscard]] std::uint64_t token() const noexcept { return token_; }
  /// Increments and returns this scope's 1-based hit ordinal for `site`
  /// (an opaque per-site key owned by the registry).
  [[nodiscard]] std::uint64_t next_hit(const void* site);

 private:
  std::uint64_t token_;
  FailpointScope* previous_;
  std::vector<std::pair<const void*, std::uint64_t>> hits_;
};

/// Process-wide registry of armed failpoints. All members are
/// thread-safe; `armed()` is the lock-free fast gate every `failpoint()`
/// call checks first.
class FailpointRegistry {
 public:
  [[nodiscard]] static FailpointRegistry& instance();

  /// True when at least one site is armed. Relaxed load — the only cost
  /// an inactive failpoint pays.
  [[nodiscard]] static bool armed() noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Arms (or re-arms, resetting counters) one site.
  void arm(std::string site, FailpointSpec spec);
  /// Parses a PARDPP_FAILPOINTS-format schedule and arms every site in
  /// it; returns the number of sites armed. Throws InvalidArgument on a
  /// malformed schedule (unknown item, bad number).
  std::size_t arm_from_spec(std::string_view text);
  void disarm(std::string_view site);
  void disarm_all();

  /// The decision point behind `failpoint()`: counts the hit and applies
  /// the site's trigger. False for unarmed sites.
  [[nodiscard]] bool should_fire(std::string_view site);

  /// Lifetime counters since the site was (re-)armed.
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;

 private:
  struct Site {
    std::string name;
    FailpointSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::uint64_t unscoped_hits = 0;
  };

  FailpointRegistry();
  [[nodiscard]] Site* find(std::string_view site);
  [[nodiscard]] const Site* find(std::string_view site) const;
  void refresh_armed_locked();

  mutable std::mutex mutex_;
  // unique_ptr keeps Site addresses stable across arm() — FailpointScope
  // keys its per-scope hit counters by the Site pointer.
  std::vector<std::unique_ptr<Site>> sites_;

  static std::atomic<bool> armed_;
};

/// The guard-site probe: true when the named failpoint is armed and its
/// trigger fires on this hit. A single relaxed atomic load when the
/// registry is inactive.
[[nodiscard]] inline bool failpoint(std::string_view site) {
  if (!FailpointRegistry::armed()) return false;
  return FailpointRegistry::instance().should_fire(site);
}

}  // namespace pardpp
