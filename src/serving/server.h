// SamplingServer: the async serving front end (DESIGN.md §2
// convention 13).
//
// submit() enqueues a draw request and returns a future; a dispatcher
// thread drains the queue in arrival order, groups the drained batch by
// kernel fingerprint, acquires each group's session from the registry
// (building or replacing it as needed), and issues ONE coalesced
// SamplerSession::draw_many_batched per group on the shared
// ExecutionContext — the amortization that turns per-request session
// priming into a once-per-kernel cost.
//
// Determinism contract: coalescing is invisible in the results. A
// request's draws are a function of its own seed alone (see
// draw_many_batched), so the response never depends on which requests
// happened to share a batch, the queue depth, or the pool size.
//
// Admission control degrades gracefully instead of stalling: a full
// queue or a tenant at its in-flight cap rejects the submit with a typed
// Overloaded synchronously — the caller can back off and retry — and
// per-request failures inside a batch fail only that request's future.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/diagnostics.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/fingerprint.h"
#include "serving/registry.h"
#include "support/error.h"

namespace pardpp::serving {

/// Typed admission-control rejection: the queue is full, the tenant is
/// at its in-flight cap, or the server is shutting down. Distinct from
/// InvalidArgument (the request itself is fine — resubmit later).
class Overloaded : public Error {
 public:
  using Error::Error;
};

/// One draw request. The fingerprint must be computed over the same
/// kernel + canonical config the factory/options describe (the daemon
/// derives all three from one wire request; direct API users carry the
/// same obligation — the registry trusts the key).
struct ServerRequest {
  std::string tenant = "default";
  KernelFingerprint fingerprint;
  SessionOptions session_options;
  /// Resident-bytes estimate charged against the registry budget when
  /// this request builds the session.
  std::size_t resident_bytes = 0;
  /// Builds the oracle on a registry miss.
  SessionRegistry::OracleFactory make_oracle;
  std::size_t count = 1;
  std::uint64_t seed = 0;
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_cap = 0;
  std::uint64_t completed = 0;  ///< futures resolved with samples
  std::uint64_t failed = 0;     ///< futures resolved with an exception
  std::uint64_t batches = 0;    ///< coalesced dispatches issued
  std::uint64_t coalesced_requests = 0;  ///< requests served by those
  std::uint64_t max_coalesced = 0;  ///< largest single batch
  std::uint64_t draws = 0;          ///< samples produced
  std::size_t queue_peak = 0;
  RegistryStats registry;
};

class SamplingServer {
 public:
  /// Validates the config, spins up the worker pool (pool_threads, 0 =
  /// physical concurrency) and the dispatcher thread.
  explicit SamplingServer(ServingConfig config = {});

  /// shutdown(), then joins.
  ~SamplingServer();

  SamplingServer(const SamplingServer&) = delete;
  SamplingServer& operator=(const SamplingServer&) = delete;

  /// Enqueues; the future resolves with the request's samples or its
  /// typed failure. Throws Overloaded synchronously when admission
  /// control rejects (queue depth, tenant cap, shutting down) and
  /// InvalidArgument for a malformed request (zero/oversized count,
  /// missing oracle factory).
  [[nodiscard]] std::future<std::vector<SampleResult>> submit(
      ServerRequest request);

  /// Counters + a registry snapshot. Thread-safe.
  [[nodiscard]] ServerStats stats() const;

  [[nodiscard]] SessionRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const ServingConfig& config() const noexcept {
    return config_;
  }

  /// Stops admitting, fails every queued request with Overloaded, and
  /// joins the dispatcher. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Pending {
    ServerRequest request;
    std::promise<std::vector<SampleResult>> promise;
  };

  void dispatch_loop();
  /// Runs one coalesced group (shared fingerprint) end to end.
  void run_group(std::vector<Pending>& group);
  void finish(Pending& pending, bool failed);

  ServingConfig config_;
  ThreadPool pool_;
  ExecutionContext ctx_;
  SessionRegistry registry_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::unordered_map<std::string, std::size_t> inflight_;
  bool stopping_ = false;
  ServerStats stats_;  // registry sub-struct filled on read

  std::thread dispatcher_;  // last member: started after everything above
};

}  // namespace pardpp::serving
