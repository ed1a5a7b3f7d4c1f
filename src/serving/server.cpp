#include "serving/server.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace pardpp::serving {

SamplingServer::SamplingServer(ServingConfig config)
    : config_(std::move(config)),
      pool_(config_.pool_threads != 0 ? config_.pool_threads
                                      : physical_concurrency()),
      ctx_(&pool_, nullptr),
      registry_(RegistryOptions{config_.max_resident_bytes}) {
  config_.validate();
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SamplingServer::~SamplingServer() { shutdown(); }

std::future<std::vector<SampleResult>> SamplingServer::submit(
    ServerRequest request) {
  check_arg(request.count != 0, "ServerRequest::count: must be positive");
  check_arg(request.count <= config_.max_draws_per_request,
            "ServerRequest::count: " + std::to_string(request.count) +
                " exceeds max_draws_per_request " +
                std::to_string(config_.max_draws_per_request));
  check_arg(static_cast<bool>(request.make_oracle),
            "ServerRequest::make_oracle: missing oracle factory");

  std::future<std::vector<SampleResult>> future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw Overloaded("SamplingServer: shutting down, not admitting");
    if (queue_.size() >= config_.max_queue_depth) {
      ++stats_.rejected_queue_full;
      throw Overloaded("SamplingServer: queue full (depth " +
                       std::to_string(queue_.size()) + " >= max " +
                       std::to_string(config_.max_queue_depth) +
                       "); back off and retry");
    }
    std::size_t& inflight = inflight_[request.tenant];
    if (inflight >= config_.max_inflight_per_tenant) {
      ++stats_.rejected_tenant_cap;
      throw Overloaded("SamplingServer: tenant '" + request.tenant +
                       "' at in-flight cap " +
                       std::to_string(config_.max_inflight_per_tenant));
    }
    ++inflight;
    ++stats_.submitted;
    queue_.push_back(Pending{std::move(request), {}});
    future = queue_.back().promise.get_future();
    stats_.queue_peak = std::max(stats_.queue_peak, queue_.size());
  }
  cv_.notify_one();
  return future;
}

// Callers must finish() BEFORE resolving the request's promise: the
// counters have to be published first so a client that has already seen
// its response can never read a stats snapshot that is missing it.
void SamplingServer::finish(Pending& pending, bool failed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failed) {
    ++stats_.failed;
  } else {
    ++stats_.completed;
  }
  const auto found = inflight_.find(pending.request.tenant);
  if (found != inflight_.end() && found->second > 0) {
    if (--found->second == 0) inflight_.erase(found);
  }
}

void SamplingServer::run_group(std::vector<Pending>& group) {
  std::shared_ptr<ServingSession> session;
  try {
    const ServerRequest& first = group.front().request;
    session = registry_.acquire(first.fingerprint, first.session_options,
                                first.resident_bytes, first.make_oracle);
    std::vector<DrawBatchRequest> batch;
    batch.reserve(group.size());
    for (const Pending& pending : group)
      batch.push_back(
          DrawBatchRequest{pending.request.count, pending.request.seed});
    std::vector<DrawBatchOutcome> outcomes =
        session->session().draw_many_batched(batch, ctx_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.batches;
      stats_.coalesced_requests += group.size();
      stats_.max_coalesced = std::max<std::uint64_t>(stats_.max_coalesced,
                                                     group.size());
    }
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (outcomes[i].error != nullptr) {
        finish(group[i], /*failed=*/true);
        group[i].promise.set_exception(outcomes[i].error);
      } else {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          stats_.draws += outcomes[i].results.size();
        }
        finish(group[i], /*failed=*/false);
        group[i].promise.set_value(std::move(outcomes[i].results));
      }
    }
  } catch (...) {
    // Group-level failure: session build/validate threw. Every request
    // in the group gets the same typed exception.
    const std::exception_ptr error = std::current_exception();
    for (Pending& pending : group) {
      finish(pending, /*failed=*/true);
      pending.promise.set_exception(error);
    }
  }
}

void SamplingServer::dispatch_loop() {
  for (;;) {
    std::deque<Pending> drained;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // shutdown() fails whatever is queued
      drained.swap(queue_);
    }
    // Group the drained batch by fingerprint, preserving arrival order
    // within and across groups (first-arrived group dispatches first).
    std::vector<std::vector<Pending>> groups;
    std::unordered_map<KernelFingerprint, std::size_t,
                       KernelFingerprintHasher>
        group_of;
    for (Pending& pending : drained) {
      const auto found = group_of.find(pending.request.fingerprint);
      if (found == group_of.end()) {
        group_of.emplace(pending.request.fingerprint, groups.size());
        groups.emplace_back();
        groups.back().push_back(std::move(pending));
      } else {
        groups[found->second].push_back(std::move(pending));
      }
    }
    for (std::vector<Pending>& group : groups) run_group(group);
  }
}

ServerStats SamplingServer::stats() const {
  ServerStats out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  out.registry = registry_.stats();
  return out;
}

void SamplingServer::shutdown() {
  std::deque<Pending> orphaned;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (Pending& pending : orphaned) {
    finish(pending, /*failed=*/true);
    pending.promise.set_exception(std::make_exception_ptr(
        Overloaded("SamplingServer: shut down before dispatch")));
  }
}

}  // namespace pardpp::serving
