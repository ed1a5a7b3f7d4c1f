#include "serving/config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "support/error.h"

namespace pardpp::serving {

namespace {

// %.17g is the shortest fixed format guaranteed to round-trip every
// finite double bit-exactly; strtod parses "nan"/"inf" spellings back.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format_bool(bool value) { return value ? "1" : "0"; }

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            std::string_view expected) {
  throw InvalidArgument("config: key '" + std::string(key) +
                        "': cannot parse '" + std::string(value) + "' as " +
                        std::string(expected));
}

double parse_double(std::string_view key, std::string_view value) {
  const std::string text(value);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    bad_value(key, value, "a double");
  return parsed;
}

std::size_t parse_size(std::string_view key, std::string_view value) {
  const std::string text(value);
  if (text.empty() || text[0] == '-')
    bad_value(key, value, "a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    bad_value(key, value, "a non-negative integer");
  return static_cast<std::size_t>(parsed);
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  bad_value(key, value, "a boolean (0/1/true/false)");
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

/// Splits `key=value,...`, trims each pair, and hands it to `apply`
/// (which throws InvalidArgument on an unknown key). Shared by both
/// config parsers so the grammar cannot drift between them.
template <typename Apply>
void parse_pairs(std::string_view text, const Apply& apply) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    std::string_view pair = trim(text.substr(0, comma));
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (pair.empty()) continue;  // tolerate stray/trailing commas
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw InvalidArgument("config: malformed pair '" + std::string(pair) +
                            "' (expected key=value)");
    apply(trim(pair.substr(0, eq)), trim(pair.substr(eq + 1)));
  }
}

std::string list_sampler_kinds() {
  std::string kinds;
  for (const SamplerKind kind : kAllSamplerKinds) {
    if (!kinds.empty()) kinds += ", ";
    kinds += sampler_kind_name(kind);
  }
  return kinds;
}

}  // namespace

std::string SessionConfig::to_string() const {
  const SessionOptions& s = session;
  std::string out;
  const auto field = [&out](std::string_view key, std::string value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  field("kind", sampler_kind_name(s.kind));
  field("use_commit", format_bool(s.use_commit));
  field("distill.enabled", format_bool(s.distill.enabled));
  field("distill.candidate_budget", std::to_string(s.distill.candidate_budget));
  field("distill.max_attempts", std::to_string(s.distill.max_attempts));
  field("batched.failure_prob", format_double(s.batched.failure_prob));
  field("batched.extra_log_cap", format_double(s.batched.extra_log_cap));
  field("batched.max_batch", std::to_string(s.batched.max_batch));
  field("batched.machine_cap", std::to_string(s.batched.machine_cap));
  field("entropic.c", format_double(s.entropic.c));
  field("entropic.alpha", format_double(s.entropic.alpha));
  field("entropic.cap_multiplier", format_double(s.entropic.cap_multiplier));
  field("entropic.cap_slack", format_double(s.entropic.cap_slack));
  field("entropic.log_ratio_cap", format_double(s.entropic.log_ratio_cap));
  field("entropic.failure_prob", format_double(s.entropic.failure_prob));
  field("entropic.subdivide", format_bool(s.entropic.subdivide));
  field("entropic.beta", format_double(s.entropic.beta));
  field("entropic.max_batch", std::to_string(s.entropic.max_batch));
  field("entropic.machine_cap", std::to_string(s.entropic.machine_cap));
  field("recovery.enabled", format_bool(s.recovery.enabled));
  field("recovery.max_retries", std::to_string(s.recovery.max_retries));
  return out;
}

SessionConfig SessionConfig::parse(std::string_view text) {
  SessionConfig config;
  SessionOptions& s = config.session;
  parse_pairs(text, [&s](std::string_view key, std::string_view value) {
    if (key == "kind") {
      const auto kind = sampler_kind_from_name(value);
      if (!kind.has_value())
        throw InvalidArgument("config: key 'kind': unknown sampler '" +
                              std::string(value) + "' (expected one of: " +
                              list_sampler_kinds() + ")");
      s.kind = *kind;
    } else if (key == "use_commit") {
      s.use_commit = parse_bool(key, value);
    } else if (key == "distill.enabled") {
      s.distill.enabled = parse_bool(key, value);
    } else if (key == "distill.candidate_budget") {
      s.distill.candidate_budget = parse_size(key, value);
    } else if (key == "distill.max_attempts") {
      s.distill.max_attempts = parse_size(key, value);
    } else if (key == "batched.failure_prob") {
      s.batched.failure_prob = parse_double(key, value);
    } else if (key == "batched.extra_log_cap") {
      s.batched.extra_log_cap = parse_double(key, value);
    } else if (key == "batched.max_batch") {
      s.batched.max_batch = parse_size(key, value);
    } else if (key == "batched.machine_cap") {
      s.batched.machine_cap = parse_size(key, value);
    } else if (key == "entropic.c") {
      s.entropic.c = parse_double(key, value);
    } else if (key == "entropic.alpha") {
      s.entropic.alpha = parse_double(key, value);
    } else if (key == "entropic.cap_multiplier") {
      s.entropic.cap_multiplier = parse_double(key, value);
    } else if (key == "entropic.cap_slack") {
      s.entropic.cap_slack = parse_double(key, value);
    } else if (key == "entropic.log_ratio_cap") {
      s.entropic.log_ratio_cap = parse_double(key, value);
    } else if (key == "entropic.failure_prob") {
      s.entropic.failure_prob = parse_double(key, value);
    } else if (key == "entropic.subdivide") {
      s.entropic.subdivide = parse_bool(key, value);
    } else if (key == "entropic.beta") {
      s.entropic.beta = parse_double(key, value);
    } else if (key == "entropic.max_batch") {
      s.entropic.max_batch = parse_size(key, value);
    } else if (key == "entropic.machine_cap") {
      s.entropic.machine_cap = parse_size(key, value);
    } else if (key == "recovery.enabled") {
      s.recovery.enabled = parse_bool(key, value);
    } else if (key == "recovery.max_retries") {
      s.recovery.max_retries = parse_size(key, value);
    } else {
      throw InvalidArgument("config: unknown session key '" +
                            std::string(key) + "'");
    }
  });
  return config;
}

void ServingConfig::validate() const {
  check_arg(max_resident_bytes != 0,
            "ServingConfig::max_resident_bytes: must be positive");
  check_arg(max_queue_depth != 0,
            "ServingConfig::max_queue_depth: must be positive");
  check_arg(max_inflight_per_tenant != 0,
            "ServingConfig::max_inflight_per_tenant: must be positive");
  check_arg(max_draws_per_request != 0,
            "ServingConfig::max_draws_per_request: must be positive");
}

std::string ServingConfig::to_string() const {
  std::string out;
  const auto field = [&out](std::string_view key, std::string value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  field("pool_threads", std::to_string(pool_threads));
  field("max_resident_bytes", std::to_string(max_resident_bytes));
  field("max_queue_depth", std::to_string(max_queue_depth));
  field("max_inflight_per_tenant", std::to_string(max_inflight_per_tenant));
  field("max_draws_per_request", std::to_string(max_draws_per_request));
  return out;
}

ServingConfig ServingConfig::parse(std::string_view text) {
  ServingConfig config;
  parse_pairs(text, [&config](std::string_view key, std::string_view value) {
    if (key == "pool_threads") {
      config.pool_threads = parse_size(key, value);
    } else if (key == "max_resident_bytes") {
      config.max_resident_bytes = parse_size(key, value);
    } else if (key == "max_queue_depth") {
      config.max_queue_depth = parse_size(key, value);
    } else if (key == "max_inflight_per_tenant") {
      config.max_inflight_per_tenant = parse_size(key, value);
    } else if (key == "max_draws_per_request") {
      config.max_draws_per_request = parse_size(key, value);
    } else {
      throw InvalidArgument("config: unknown serving key '" +
                            std::string(key) + "'");
    }
  });
  return config;
}

}  // namespace pardpp::serving
