#include "support/failpoint.h"

#include <cstdlib>
#include <cstdio>

namespace pardpp {

namespace {

thread_local FailpointScope* tls_scope = nullptr;

/// splitmix64 finalizer — the same mixer random.h seeds streams with, so
/// a failpoint schedule's decisions are as well-distributed as the
/// sampler's own stream forks.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view site) {
  std::uint64_t value = 0;
  if (text.empty())
    throw InvalidArgument("failpoint spec '" + std::string(site) +
                          "': empty number");
  for (const char c : text) {
    check_arg(c >= '0' && c <= '9',
              "failpoint spec: malformed number '" + std::string(text) + "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

[[nodiscard]] double parse_prob(std::string_view text, std::string_view site) {
  try {
    const double p = std::stod(std::string(text));
    check_arg(p >= 0.0 && p <= 1.0,
              "failpoint spec '" + std::string(site) +
                  "': prob must be in [0, 1]");
    return p;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("failpoint spec '" + std::string(site) +
                          "': malformed probability '" + std::string(text) +
                          "'");
  }
}

}  // namespace

// ---- FailpointScope ----

FailpointScope::FailpointScope(std::uint64_t token) noexcept
    : token_(token), previous_(tls_scope) {
  tls_scope = this;
}

FailpointScope::~FailpointScope() { tls_scope = previous_; }

FailpointScope* FailpointScope::current() noexcept { return tls_scope; }

FailpointScope* FailpointScope::exchange_current(
    FailpointScope* scope) noexcept {
  return std::exchange(tls_scope, scope);
}

std::uint64_t FailpointScope::next_hit(const void* site) {
  for (auto& [key, count] : hits_)
    if (key == site) return ++count;
  hits_.emplace_back(site, 1);
  return 1;
}

// ---- FailpointRegistry ----

std::atomic<bool> FailpointRegistry::armed_{false};

FailpointRegistry& FailpointRegistry::instance() {
  static FailpointRegistry registry;
  return registry;
}

FailpointRegistry::FailpointRegistry() {
  // Env arming happens here so any translation unit's first failpoint()
  // probe — or the eager reference below — activates a canned schedule
  // without programmatic setup. A malformed schedule must not throw out
  // of a static initializer; report and run clean instead.
  const char* env = std::getenv("PARDPP_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  try {
    const std::size_t armed = arm_from_spec(env);
    if (armed > 0)
      std::fprintf(stderr, "pardpp: PARDPP_FAILPOINTS armed %zu site(s)\n",
                   armed);
  } catch (const Error& error) {
    std::fprintf(stderr, "pardpp: ignoring PARDPP_FAILPOINTS: %s\n",
                 error.what());
    disarm_all();
  }
}

FailpointRegistry::Site* FailpointRegistry::find(std::string_view site) {
  for (const auto& s : sites_)
    if (s->name == site) return s.get();
  return nullptr;
}

const FailpointRegistry::Site* FailpointRegistry::find(
    std::string_view site) const {
  for (const auto& s : sites_)
    if (s->name == site) return s.get();
  return nullptr;
}

void FailpointRegistry::refresh_armed_locked() {
  bool any = false;
  for (const auto& s : sites_)
    any = any || s->spec.trigger != FailpointSpec::Trigger::kOff;
  armed_.store(any, std::memory_order_relaxed);
}

void FailpointRegistry::arm(std::string site, FailpointSpec spec) {
  check_arg(!site.empty(), "failpoint: empty site name");
  check_arg(spec.trigger != FailpointSpec::Trigger::kProbability ||
                (spec.probability >= 0.0 && spec.probability <= 1.0),
            "failpoint: probability must be in [0, 1]");
  const std::lock_guard<std::mutex> lock(mutex_);
  Site* existing = find(site);
  if (existing == nullptr) {
    sites_.push_back(std::make_unique<Site>());
    existing = sites_.back().get();
    existing->name = std::move(site);
  }
  existing->spec = spec;
  existing->hits = 0;
  existing->fires = 0;
  existing->unscoped_hits = 0;
  refresh_armed_locked();
}

std::size_t FailpointRegistry::arm_from_spec(std::string_view text) {
  std::size_t armed = 0;
  while (!text.empty()) {
    const auto semi = text.find(';');
    const std::string_view entry = trim(text.substr(0, semi));
    text = semi == std::string_view::npos ? std::string_view{}
                                          : text.substr(semi + 1);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    check_arg(eq != std::string_view::npos && eq > 0,
              "failpoint spec: expected 'site=trigger', got '" +
                  std::string(entry) + "'");
    const std::string_view site = trim(entry.substr(0, eq));
    std::string_view items = entry.substr(eq + 1);
    FailpointSpec spec;
    while (!items.empty()) {
      const auto comma = items.find(',');
      const std::string_view item = trim(items.substr(0, comma));
      items = comma == std::string_view::npos ? std::string_view{}
                                              : items.substr(comma + 1);
      if (item.empty()) continue;
      const auto colon = item.find(':');
      const std::string_view key = item.substr(0, colon);
      const std::string_view value =
          colon == std::string_view::npos ? std::string_view{}
                                          : item.substr(colon + 1);
      if (key == "count") {
        spec.trigger = FailpointSpec::Trigger::kCount;
        spec.count = parse_u64(value, site);
      } else if (key == "prob") {
        spec.trigger = FailpointSpec::Trigger::kProbability;
        spec.probability = parse_prob(value, site);
      } else if (key == "skip") {
        spec.skip = parse_u64(value, site);
      } else if (key == "seed") {
        spec.seed = parse_u64(value, site);
      } else if (key == "scoped") {
        spec.scoped_only = true;
      } else if (key == "off") {
        spec.trigger = FailpointSpec::Trigger::kOff;
      } else {
        throw InvalidArgument("failpoint spec '" + std::string(site) +
                              "': unknown item '" + std::string(item) + "'");
      }
    }
    arm(std::string(site), spec);
    ++armed;
  }
  return armed;
}

void FailpointRegistry::disarm(std::string_view site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Site* s = find(site); s != nullptr)
    s->spec.trigger = FailpointSpec::Trigger::kOff;
  refresh_armed_locked();
}

void FailpointRegistry::disarm_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

bool FailpointRegistry::should_fire(std::string_view site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Site* s = find(site);
  if (s == nullptr || s->spec.trigger == FailpointSpec::Trigger::kOff)
    return false;
  FailpointScope* scope = FailpointScope::current();
  if (s->spec.scoped_only && scope == nullptr) return false;
  ++s->hits;
  // The hit ordinal the trigger sees: per (scope, site) inside a scope —
  // making the decision sequence a pure function of the scope token —
  // else the global per-site counter.
  std::uint64_t ordinal;
  std::uint64_t token = 0;
  if (scope != nullptr) {
    ordinal = scope->next_hit(s);
    token = scope->token();
  } else {
    ordinal = ++s->unscoped_hits;
  }
  bool fire = false;
  if (ordinal > s->spec.skip) {
    switch (s->spec.trigger) {
      case FailpointSpec::Trigger::kCount:
        fire = ordinal <= s->spec.skip + s->spec.count;
        break;
      case FailpointSpec::Trigger::kProbability: {
        const std::uint64_t h =
            mix64(mix64(s->spec.seed ^ mix64(token)) ^ ordinal);
        const double u =
            static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
        fire = u < s->spec.probability;
        break;
      }
      case FailpointSpec::Trigger::kOff:
        break;
    }
  }
  if (fire) ++s->fires;
  return fire;
}

std::uint64_t FailpointRegistry::hits(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Site* s = find(site);
  return s == nullptr ? 0 : s->hits;
}

std::uint64_t FailpointRegistry::fires(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Site* s = find(site);
  return s == nullptr ? 0 : s->fires;
}

namespace {
// Eagerly constructs the registry so a PARDPP_FAILPOINTS schedule arms
// at load time, not at the first probe.
[[maybe_unused]] const bool kFailpointsLoaded =
    (static_cast<void>(FailpointRegistry::instance()), true);
}  // namespace

}  // namespace pardpp
