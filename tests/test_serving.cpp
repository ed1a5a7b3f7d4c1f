// Serving layer (DESIGN.md §2 convention 13): fingerprint stability,
// canonical config round-trip, registry LRU semantics, coalesced draw bit-identity vs. per-request serial draws,
// admission control, and wire-protocol fuzz (arbitrary bytes produce a
// typed ProtocolError or a parsed request — never a crash).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "dpp/symmetric_oracle.h"
#include "linalg/factory.h"
#include "parallel/execution.h"
#include "parallel/thread_pool.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/fingerprint.h"
#include "serving/protocol.h"
#include "serving/registry.h"
#include "serving/server.h"
#include "support/error.h"
#include "support/random.h"
#include "test_util.h"

namespace pardpp {
namespace {

using serving::FrameReader;
using serving::KernelFingerprint;
using serving::Overloaded;
using serving::ProtocolError;
using serving::RegistryOptions;
using serving::ResponseStatus;
using serving::SampleRequest;
using serving::SamplingServer;
using serving::ServerRequest;
using serving::ServingConfig;
using serving::SessionConfig;
using serving::SessionRegistry;

Matrix test_kernel(std::uint64_t seed, std::size_t n) {
  RandomStream setup(seed);
  return random_psd(n, n, setup, 1e-3);
}

SessionRegistry::OracleFactory symmetric_factory(const Matrix& kernel,
                                                 std::size_t k) {
  return [kernel = std::make_shared<const Matrix>(kernel), k] {
    return std::unique_ptr<CountingOracle>(
        std::make_unique<SymmetricKdppOracle>(*kernel, k));
  };
}

// ---- sampler kind enumeration (satellite 1) ----

TEST(ServingKinds, SamplerKindNameRoundTrips) {
  for (const SamplerKind kind : kAllSamplerKinds) {
    const auto parsed = sampler_kind_from_name(sampler_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << sampler_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(sampler_kind_from_name("bogus").has_value());
  EXPECT_FALSE(sampler_kind_from_name("").has_value());
  EXPECT_FALSE(sampler_kind_from_name("Sequential").has_value());
  static_assert(sampler_kind_from_name("batched") == SamplerKind::kBatched);
  static_assert(!sampler_kind_from_name("unknown").has_value());
}

// ---- option validation (satellite 2) ----

TEST(ServingValidate, RecoveryOptionsRejectSilentNoOps) {
  RecoveryOptions recovery;
  recovery.enabled = true;
  recovery.max_retries = 0;
  try {
    recovery.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("max_retries"),
              std::string::npos)
        << error.what();
  }
  recovery.max_retries = 2;
  EXPECT_NO_THROW(recovery.validate());
  // Disabled recovery ignores the other fields entirely.
  recovery.enabled = false;
  recovery.max_retries = 0;
  EXPECT_NO_THROW(recovery.validate());
}

TEST(ServingValidate, SessionOptionsNameTheOffendingField) {
  SessionOptions options;
  options.batched.machine_cap = 0;
  try {
    options.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("machine_cap"),
              std::string::npos)
        << error.what();
  }
  options = {};
  options.entropic.failure_prob = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = {};
  options.distill.enabled = true;
  options.distill.candidate_budget = 2;  // below the sample size
  EXPECT_THROW(options.validate(/*sample_size=*/5), InvalidArgument);
  EXPECT_NO_THROW(options.validate(/*sample_size=*/2));
}

TEST(ServingValidate, SessionConstructionValidatesEagerly) {
  const Matrix kernel = test_kernel(616001, 8);
  const SymmetricKdppOracle oracle(kernel, 3);
  SessionOptions options;
  options.distill.enabled = true;
  options.distill.candidate_budget = 2;  // < k = 3
  EXPECT_THROW(SamplerSession(oracle, options), InvalidArgument);
}

// ---- canonical config text (tentpole: unified config facade) ----

TEST(ServingConfigText, SessionConfigRoundTripsByteExactly) {
  SessionConfig config;
  config.session.kind = SamplerKind::kEntropic;
  config.session.use_commit = false;
  config.session.entropic.c = 1.0 / 3.0;  // needs %.17g to round-trip
  config.session.entropic.alpha = 0.123456789012345678;
  config.session.recovery.enabled = true;
  config.session.recovery.max_retries = 7;
  const std::string canonical = config.to_string();
  const SessionConfig reparsed = SessionConfig::parse(canonical);
  EXPECT_EQ(reparsed.to_string(), canonical);
  EXPECT_EQ(reparsed.session.kind, SamplerKind::kEntropic);
  EXPECT_EQ(reparsed.session.entropic.c, config.session.entropic.c);
  EXPECT_EQ(reparsed.session.recovery.max_retries, 7u);
}

TEST(ServingConfigText, ParseCanonicalizesSubsetsAndFieldOrder) {
  // Any subset of keys over defaults, in any order, canonicalizes to the
  // same spelling — the property the kernel fingerprint relies on.
  const SessionConfig a = SessionConfig::parse("kind=batched,use_commit=1");
  const SessionConfig b =
      SessionConfig::parse("  use_commit = true , kind = batched ");
  EXPECT_EQ(a.to_string(), b.to_string());
  const SessionConfig defaults = SessionConfig::parse("");
  EXPECT_EQ(defaults.to_string(), SessionConfig{}.to_string());
}

TEST(ServingConfigText, ParseRejectsUnknownKeysAndBadValues) {
  try {
    (void)SessionConfig::parse("no_such_key=1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("no_such_key"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)SessionConfig::parse("kind=bogus"), InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("entropic.c=abc"),
               InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("use_commit"), InvalidArgument);
  EXPECT_THROW((void)SessionConfig::parse("batched.machine_cap=-4"),
               InvalidArgument);
}

TEST(ServingConfigText, ServingConfigRoundTripAndValidation) {
  ServingConfig config;
  config.pool_threads = 3;
  config.max_queue_depth = 17;
  const std::string canonical = config.to_string();
  const ServingConfig reparsed = ServingConfig::parse(canonical);
  EXPECT_EQ(reparsed.to_string(), canonical);
  EXPECT_EQ(reparsed.max_queue_depth, 17u);
  ServingConfig bad;
  bad.max_queue_depth = 0;
  try {
    bad.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("max_queue_depth"),
              std::string::npos)
        << error.what();
  }
  ServingConfig auto_pool;  // pool_threads = 0 means auto, not invalid
  EXPECT_NO_THROW(auto_pool.validate());
}

// ---- kernel fingerprints (tentpole: registry key) ----

TEST(ServingFingerprint, StableAcrossIdenticalInputs) {
  const Matrix kernel = test_kernel(616002, 8);
  const std::string config = SessionConfig{}.to_string();
  const KernelFingerprint a =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  const KernelFingerprint b =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.to_string().size(), 32u);
}

TEST(ServingFingerprint, SensitiveToEveryKeyComponent) {
  const Matrix kernel = test_kernel(616003, 8);
  const std::string config = SessionConfig{}.to_string();
  const KernelFingerprint base =
      serving::fingerprint_kernel("kernel", kernel, 3, config);
  EXPECT_NE(base, serving::fingerprint_kernel("features", kernel, 3, config));
  EXPECT_NE(base, serving::fingerprint_kernel("kernel", kernel, 4, config));
  Matrix perturbed = kernel;
  perturbed(0, 0) += 1e-12;
  EXPECT_NE(base,
            serving::fingerprint_kernel("kernel", perturbed, 3, config));
  const std::string other =
      SessionConfig::parse("kind=batched").to_string();
  EXPECT_NE(base, serving::fingerprint_kernel("kernel", kernel, 3, other));
}

TEST(ServingFingerprint, ConfigSpellingsCoalesceViaCanonicalization) {
  // Two wire requests whose config texts differ only in order/formatting
  // must land on one session: fingerprint the canonical spelling.
  const Matrix kernel = test_kernel(616004, 8);
  const std::string a =
      SessionConfig::parse("kind=batched,use_commit=1").to_string();
  const std::string b =
      SessionConfig::parse("use_commit=true,kind=batched").to_string();
  EXPECT_EQ(serving::fingerprint_kernel("kernel", kernel, 3, a),
            serving::fingerprint_kernel("kernel", kernel, 3, b));
}

// ---- session registry (tentpole) ----

TEST(ServingRegistry, LruEvictionDropsTheColdEnd) {
  SessionRegistry registry(RegistryOptions{/*max_resident_bytes=*/250});
  const Matrix kernel = test_kernel(616005, 8);
  const auto factory = symmetric_factory(kernel, 2);
  const SessionOptions options;
  const auto key = [](std::uint64_t tag) {
    return KernelFingerprint{tag, ~tag};
  };
  // Budget holds two 100-byte entries. Insert A, B: both resident.
  (void)registry.acquire(key(1), options, 100, factory);
  (void)registry.acquire(key(2), options, 100, factory);
  ASSERT_EQ(registry.lru_order(),
            (std::vector<KernelFingerprint>{key(2), key(1)}));
  // Touch A (hit): order flips, nothing evicted.
  (void)registry.acquire(key(1), options, 100, factory);
  ASSERT_EQ(registry.lru_order(),
            (std::vector<KernelFingerprint>{key(1), key(2)}));
  // Insert C: budget overflows, the cold end (B) goes.
  (void)registry.acquire(key(3), options, 100, factory);
  EXPECT_EQ(registry.lru_order(),
            (std::vector<KernelFingerprint>{key(3), key(1)}));
  EXPECT_EQ(registry.peek(key(2)), nullptr);
  // Re-acquiring B is a fresh miss (rebuild), evicting A.
  (void)registry.acquire(key(2), options, 100, factory);
  EXPECT_EQ(registry.lru_order(),
            (std::vector<KernelFingerprint>{key(2), key(3)}));
  const auto stats = registry.stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.resident_bytes, 200u);
}

TEST(ServingRegistry, OversizedEntryStillServes) {
  // One entry above the whole budget is kept (never evict the entry the
  // current acquire returned) — degraded capacity beats a build loop.
  SessionRegistry registry(RegistryOptions{/*max_resident_bytes=*/10});
  const Matrix kernel = test_kernel(616006, 8);
  const auto session = registry.acquire(
      KernelFingerprint{7, 7}, SessionOptions{}, 1000,
      symmetric_factory(kernel, 2));
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(registry.stats().sessions, 1u);
}

TEST(ServingRegistry, FactoryExceptionLeavesRegistryUnchanged) {
  SessionRegistry registry;
  const SessionRegistry::OracleFactory throwing =
      []() -> std::unique_ptr<CountingOracle> {
    throw InvalidArgument("factory: deliberately failing build");
  };
  EXPECT_THROW((void)registry.acquire(KernelFingerprint{1, 2},
                                      SessionOptions{}, 64, throwing),
               InvalidArgument);
  EXPECT_EQ(registry.stats().sessions, 0u);
  EXPECT_EQ(registry.lru_order().size(), 0u);
}

TEST(ServingRegistry, SessionEpochsAreMonotone) {
  const Matrix kernel = test_kernel(616009, 8);
  const SymmetricKdppOracle oracle(kernel, 2);
  const SamplerSession a(oracle);
  const SamplerSession b(oracle);
  EXPECT_LT(a.epoch(), b.epoch());
  EXPECT_EQ(a.health().session_epoch, a.epoch());
}

// ---- coalesced draws (tentpole: determinism contract) ----

TEST(ServingCoalescing, BatchedDrawsBitIdenticalToSerialPerRequest) {
  const Matrix kernel = test_kernel(616010, 12);
  const SymmetricKdppOracle oracle(kernel, 3);
  const std::vector<DrawBatchRequest> requests = {
      {3, 901}, {5, 902}, {2, 903}, {1, 901}};
  // Reference: each request drawn standalone, serially, pool size 1.
  std::vector<std::vector<SampleResult>> reference;
  {
    ThreadPool pool(1);
    const ExecutionContext ctx(&pool, nullptr);
    for (const DrawBatchRequest& request : requests) {
      SamplerSession session(oracle);
      RandomStream rng(request.seed);
      reference.push_back(session.draw_many(request.count, rng, ctx));
    }
  }
  const std::size_t hw = physical_concurrency();
  for (const std::size_t pool_size : {std::size_t{1}, hw}) {
    ThreadPool pool(pool_size);
    const ExecutionContext ctx(&pool, nullptr);
    SamplerSession session(oracle);
    const auto outcomes = session.draw_many_batched(requests, ctx);
    ASSERT_EQ(outcomes.size(), requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
      ASSERT_EQ(outcomes[r].error, nullptr) << "request " << r;
      ASSERT_EQ(outcomes[r].results.size(), requests[r].count);
      for (std::size_t i = 0; i < requests[r].count; ++i) {
        EXPECT_EQ(outcomes[r].results[i].items, reference[r][i].items)
            << "pool " << pool_size << " request " << r << " draw " << i;
      }
    }
  }
  // Same seed, same count ⇒ same draws regardless of batch position:
  // requests 3 and 0 share seed 901; request 3's single draw must equal
  // request 0's first draw.
  ThreadPool pool(2);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  const auto outcomes = session.draw_many_batched(requests, ctx);
  EXPECT_EQ(outcomes[3].results[0].items, outcomes[0].results[0].items);
}

TEST(ServingCoalescing, EmptyAndZeroCountRequestsAreHandled) {
  const Matrix kernel = test_kernel(616011, 8);
  const SymmetricKdppOracle oracle(kernel, 2);
  ThreadPool pool(2);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  EXPECT_TRUE(session.draw_many_batched({}, ctx).empty());
  const auto outcomes = session.draw_many_batched({{0, 1}, {2, 2}}, ctx);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].error, nullptr);
  EXPECT_TRUE(outcomes[0].results.empty());
  EXPECT_EQ(outcomes[1].results.size(), 2u);
}

// ---- sampling server (tentpole: admission control + coalescing) ----

ServerRequest make_request(const Matrix& kernel, std::size_t k,
                           std::uint64_t seed, std::size_t count,
                           const std::string& tenant = "default") {
  ServerRequest request;
  request.tenant = tenant;
  request.session_options = SessionOptions{};
  request.fingerprint = serving::fingerprint_kernel(
      "kernel", kernel, k, SessionConfig{}.to_string());
  request.resident_bytes = 1 << 12;
  request.make_oracle = symmetric_factory(kernel, k);
  request.count = count;
  request.seed = seed;
  return request;
}

TEST(ServingServer, ServesDrawsMatchingStandaloneSessions) {
  const Matrix kernel = test_kernel(616012, 10);
  ServingConfig config;
  config.pool_threads = 2;
  SamplingServer server(config);
  auto f1 = server.submit(make_request(kernel, 3, 771, 4));
  auto f2 = server.submit(make_request(kernel, 3, 772, 3));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  ASSERT_EQ(r1.size(), 4u);
  ASSERT_EQ(r2.size(), 3u);
  // Bit-identity with a standalone per-request session at pool size 1:
  // the serving path must be invisible in the samples.
  const SymmetricKdppOracle oracle(kernel, 3);
  ThreadPool pool(1);
  const ExecutionContext ctx(&pool, nullptr);
  SamplerSession session(oracle);
  RandomStream rng1(771);
  const auto e1 = session.draw_many(4, rng1, ctx);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(r1[i].items, e1[i].items) << "draw " << i;
  server.shutdown();  // joins the dispatcher: counters are final
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.draws, 7u);
  EXPECT_EQ(stats.registry.misses, 1u);  // one session served both
}

TEST(ServingServer, RejectsInvalidRequestsSynchronously) {
  SamplingServer server;
  ServerRequest request =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  request.count = 0;
  EXPECT_THROW((void)server.submit(std::move(request)), InvalidArgument);
  ServerRequest oversized =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  oversized.count = server.config().max_draws_per_request + 1;
  EXPECT_THROW((void)server.submit(std::move(oversized)), InvalidArgument);
  ServerRequest no_factory =
      make_request(test_kernel(616013, 8), 2, 1, 1);
  no_factory.make_oracle = nullptr;
  EXPECT_THROW((void)server.submit(std::move(no_factory)), InvalidArgument);
}

TEST(ServingServer, AdmissionControlShedsLoadAndRecovers) {
  const Matrix kernel = test_kernel(616014, 8);
  ServingConfig config;
  config.pool_threads = 1;
  config.max_queue_depth = 2;
  config.max_inflight_per_tenant = 2;
  SamplingServer server(config);
  // Stall the dispatcher inside the first request's oracle build, so
  // later submissions pile up in the queue deterministically. NOTE: the
  // factory runs under the registry lock, so server.stats() (which
  // snapshots the registry) must not be called while the gate is closed.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> building{false};
  ServerRequest blocker = make_request(kernel, 2, 1, 1, "tenant-a");
  blocker.fingerprint = KernelFingerprint{999, 999};  // its own session
  blocker.make_oracle = [kernel = std::make_shared<const Matrix>(kernel),
                         gate, &building]()
      -> std::unique_ptr<CountingOracle> {
    building.store(true);
    gate.wait();
    return std::make_unique<SymmetricKdppOracle>(*kernel, 2);
  };
  auto f0 = server.submit(std::move(blocker));
  // Once the factory has been entered, the dispatcher has drained the
  // blocker: the queue is empty again and the dispatcher is stuck.
  while (!building.load()) std::this_thread::yield();
  auto f1 = server.submit(make_request(kernel, 2, 11, 1, "tenant-a"));
  auto f2 = server.submit(make_request(kernel, 2, 12, 1, "tenant-b"));
  // Queue is at max_queue_depth = 2: the next submit sheds.
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 13, 1,
                                                "tenant-c")),
               Overloaded);
  release.set_value();  // unblock; everything queued completes
  EXPECT_EQ(f0.get().size(), 1u);
  EXPECT_EQ(f1.get().size(), 1u);
  EXPECT_EQ(f2.get().size(), 1u);
  // Degradation is graceful: after the burst drains, admission resumes.
  auto f3 = server.submit(make_request(kernel, 2, 14, 1, "tenant-c"));
  EXPECT_EQ(f3.get().size(), 1u);
  server.shutdown();  // joins the dispatcher: counters are final
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServingServer, TenantInflightCapIsolatesTenants) {
  const Matrix kernel = test_kernel(616015, 8);
  ServingConfig config;
  config.pool_threads = 1;
  config.max_queue_depth = 64;
  config.max_inflight_per_tenant = 1;
  SamplingServer server(config);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerRequest blocker = make_request(kernel, 2, 1, 1, "greedy");
  blocker.make_oracle = [kernel = std::make_shared<const Matrix>(kernel),
                         gate]() -> std::unique_ptr<CountingOracle> {
    gate.wait();
    return std::make_unique<SymmetricKdppOracle>(*kernel, 2);
  };
  auto f0 = server.submit(std::move(blocker));
  // Same tenant at its cap: shed with the tenant-cap counter, while a
  // different tenant is still admitted. (No server.stats() here: the
  // blocked factory holds the registry lock the snapshot would need.)
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 2, 1, "greedy")),
               Overloaded);
  auto f1 = server.submit(make_request(kernel, 2, 3, 1, "polite"));
  release.set_value();
  EXPECT_EQ(f0.get().size(), 1u);
  EXPECT_EQ(f1.get().size(), 1u);
  // In-flight released on completion: the greedy tenant is admitted again.
  auto f2 = server.submit(make_request(kernel, 2, 4, 1, "greedy"));
  EXPECT_EQ(f2.get().size(), 1u);
  server.shutdown();
  EXPECT_EQ(server.stats().rejected_tenant_cap, 1u);
}

TEST(ServingServer, ShutdownRejectsNewSubmissions) {
  const Matrix kernel = test_kernel(616016, 8);
  ServingConfig config;
  config.pool_threads = 1;
  SamplingServer server(config);
  server.shutdown();
  EXPECT_THROW((void)server.submit(make_request(kernel, 2, 1, 1)),
               Overloaded);
  server.shutdown();  // idempotent
}

// ---- wire protocol (satellite 4: round-trip + fuzz) ----

TEST(ServingProtocol, FramesRoundTripAcrossArbitraryChunking) {
  const std::vector<std::string> payloads = {"", "a", "hello\nworld",
                                             std::string(1000, 'x')};
  std::string stream;
  for (const std::string& payload : payloads)
    stream += serving::encode_frame(payload);
  // Feed one byte at a time: framing must not depend on chunk boundaries.
  FrameReader reader;
  std::vector<std::string> decoded;
  for (const char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    while (auto payload = reader.next()) decoded.push_back(*payload);
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServingProtocol, TruncatedTrailingFrameIsDetectedNotCrashed) {
  FrameReader reader;
  const std::string frame = serving::encode_frame("full payload");
  reader.feed(frame.substr(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_NE(reader.pending(), 0u);  // EOF now would mean truncation
  reader.feed(frame.substr(frame.size() - 3));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "full payload");
}

TEST(ServingProtocol, OversizeDeclaredLengthIsUnrecoverable) {
  FrameReader reader;
  // Length word 0xffffffff: far beyond kMaxFrameBytes.
  reader.feed(std::string_view("\xff\xff\xff\xff", 4));
  EXPECT_THROW((void)reader.next(), ProtocolError);
}

TEST(ServingProtocol, SampleRequestRoundTrips) {
  SampleRequest request;
  request.tenant = "tenant-7";
  request.seed = 12345;
  request.count = 6;
  request.k = 3;
  request.matrix_kind = "features";
  request.config = "kind=batched";
  RandomStream setup(616017);
  request.matrix = random_gaussian(5, 3, setup);
  const std::string payload = serving::encode_sample_request(request);
  const serving::Request parsed = serving::parse_request(payload);
  const auto* sample = std::get_if<SampleRequest>(&parsed);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->tenant, "tenant-7");
  EXPECT_EQ(sample->seed, 12345u);
  EXPECT_EQ(sample->count, 6u);
  EXPECT_EQ(sample->k, 3u);
  EXPECT_EQ(sample->matrix_kind, "features");
  EXPECT_EQ(sample->config, "kind=batched");
  ASSERT_EQ(sample->matrix.rows(), 5u);
  ASSERT_EQ(sample->matrix.cols(), 3u);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(sample->matrix(i, j), request.matrix(i, j));
}

TEST(ServingProtocol, MalformedRequestsThrowTypedErrors) {
  const auto expect_protocol_error = [](std::string_view payload) {
    EXPECT_THROW((void)serving::parse_request(payload), ProtocolError)
        << payload;
  };
  expect_protocol_error("");
  expect_protocol_error("bogus-verb\n");
  expect_protocol_error("sample\nk=2\n");            // missing matrix
  expect_protocol_error("sample\nmatrix=1,0;0,1\n");  // missing k
  expect_protocol_error("sample\nk=2\nmatrix=1,0;0\n");     // ragged
  expect_protocol_error("sample\nk=2\nmatrix=1,x;0,1\n");   // non-numeric
  expect_protocol_error("sample\nk=-2\nmatrix=1\n");        // negative
  expect_protocol_error("sample\nk=2\nkind=wat\nmatrix=1\n");
  expect_protocol_error("sample\nnot-a-pair\nk=1\nmatrix=1\n");
  expect_protocol_error("sample\nunknown_field=3\nk=1\nmatrix=1\n");
}

TEST(ServingProtocol, FuzzedPayloadsNeverCrash) {
  // Deterministic byte soup: every payload must either parse or throw a
  // typed ProtocolError — any other escape is a bug.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next_byte = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xff);
  };
  for (int round = 0; round < 200; ++round) {
    std::string payload;
    const std::size_t size = (state % 64) + 1;
    for (std::size_t i = 0; i < size; ++i) payload.push_back(next_byte());
    // Half the rounds get a plausible verb prefix so field parsing is
    // exercised too, not just verb rejection.
    if (round % 2 == 0) payload = "sample\n" + payload;
    try {
      (void)serving::parse_request(payload);
    } catch (const ProtocolError&) {
      // typed rejection — the contract
    }
  }
}

TEST(ServingProtocol, ResponsesRoundTripAndStatusesMatchTaxonomy) {
  const std::string payload = serving::format_response(
      ResponseStatus::kOk, "count=1\nsample=0 2 4\n");
  const auto [status, body] = serving::parse_response(payload);
  EXPECT_EQ(status, ResponseStatus::kOk);
  EXPECT_EQ(body, "count=1\nsample=0 2 4\n");
  EXPECT_THROW((void)serving::parse_response("no-status-line"),
               ProtocolError);
  EXPECT_THROW((void)serving::parse_response("status=42\n"), ProtocolError);

  const auto classify = [](auto&& error) {
    return serving::status_for_exception(
        std::make_exception_ptr(std::forward<decltype(error)>(error)));
  };
  EXPECT_EQ(classify(ProtocolError("x")), ResponseStatus::kMalformed);
  EXPECT_EQ(classify(Overloaded("x")), ResponseStatus::kOverloaded);
  EXPECT_EQ(classify(DistillationStarvation("x", SampleDiagnostics{})),
            ResponseStatus::kStarvation);
  EXPECT_EQ(classify(SamplingFailure("x")),
            ResponseStatus::kSamplingFailure);
  EXPECT_EQ(classify(NumericalError("x")), ResponseStatus::kNumericalError);
  EXPECT_EQ(classify(InvalidArgument("x")),
            ResponseStatus::kInvalidArgument);
  EXPECT_EQ(classify(Error("x")), ResponseStatus::kInternalError);
  EXPECT_EQ(classify(std::runtime_error("x")),
            ResponseStatus::kInternalError);
}

TEST(ServingProtocol, MakeServerRequestCanonicalizesTheConfig) {
  RandomStream setup(616018);
  SampleRequest a;
  a.k = 2;
  a.count = 1;
  a.matrix = random_psd(6, 6, setup, 1e-3);
  a.config = "kind=batched,use_commit=1";
  SampleRequest b = a;
  b.config = "use_commit=true,kind=batched";
  const ServerRequest lowered_a = serving::make_server_request(a);
  const ServerRequest lowered_b = serving::make_server_request(b);
  EXPECT_EQ(lowered_a.fingerprint, lowered_b.fingerprint);
  EXPECT_EQ(lowered_a.session_options.kind, SamplerKind::kBatched);
  ASSERT_TRUE(static_cast<bool>(lowered_a.make_oracle));
  const auto oracle = lowered_a.make_oracle();
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->sample_size(), 2u);
  // A config the session layer rejects surfaces at lowering time.
  SampleRequest bad = a;
  bad.config = "distill.enabled=1,distill.candidate_budget=1";
  EXPECT_THROW((void)serving::make_server_request(bad), InvalidArgument);
}

}  // namespace
}  // namespace pardpp
