// serve_daemon_mix: the real `sample_cli serve` daemon, driven over its
// stdin/stdout pipes by one client with one writer (this thread) and one
// reader thread.
//
// Traffic: five kernels sent inline with every request (four dense
// symmetric, n in {64, 96, 128, 128}, and one n=512 d=16 feature kernel;
// k=8 throughout), chosen with Zipf popularity 1/(i+1); each request asks
// for 1-4 draws. Phase 1 is open loop (Poisson arrivals at a fixed rate,
// each request timed from when it was due); phase 2 is closed loop (a
// fixed in-flight window) and gives capacity.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/factory.h"
#include "parallel/execution.h"
#include "perfbench.h"
#include "sampling/session.h"
#include "serving/config.h"
#include "serving/protocol.h"
#include "serving/registry.h"

extern char** environ;

namespace perfbench {

namespace {

using pardpp::Matrix;
using pardpp::RandomStream;
namespace serving = pardpp::serving;

// Daemon worker pool. With the daemon's parse and dispatcher threads and
// the client's writer and reader, the run stays within 4 CPUs.
constexpr std::size_t kDaemonPool = 2;
constexpr double kOpenLoopRate = 100.0;  // requests per second
constexpr std::size_t kWindow = 8;       // closed-loop in-flight requests
constexpr double kSloMs = 50.0;
constexpr std::size_t kSampleSize = 8;
constexpr std::size_t kMaxDraws = 4;  // draws per request: 1 to kMaxDraws
constexpr int kSetupStarts = 5;
// A generator whose p99 lateness exceeds half the mean inter-arrival gap
// did not offer the configured load; the run says so in its provenance.
constexpr double kBehindLagMs = 500.0 / kOpenLoopRate;

struct Kernel {
  std::string kind;  // "kernel" or "features"
  std::size_t n = 0;
  Matrix matrix;
  std::string matrix_line;  // "matrix=...\n", encoded once
};

std::vector<Kernel> make_kernels(std::uint64_t seed) {
  RandomStream rng(derive_seed(seed, 1));
  std::vector<Kernel> kernels;
  for (const std::size_t n : {64, 96, 128, 128}) {
    Kernel kernel{"kernel", n, pardpp::random_psd(n, n, rng, 1e-5), {}};
    kernels.push_back(std::move(kernel));
  }
  kernels.push_back({"features", 512, pardpp::random_gaussian(512, 16, rng), {}});
  for (Kernel& kernel : kernels) {
    serving::SampleRequest request;
    request.k = kSampleSize;
    request.matrix_kind = kernel.kind;
    request.matrix = kernel.matrix;
    const std::string full = serving::encode_sample_request(request);
    kernel.matrix_line = full.substr(full.rfind("matrix="));
  }
  return kernels;
}

/// The wire payload for one request: the library's encoder for every
/// header field, then the kernel's pre-encoded matrix line.
std::string sample_payload(const Kernel& kernel, std::size_t count,
                           std::uint64_t seed) {
  serving::SampleRequest request;
  request.seed = seed;
  request.count = count;
  request.k = kSampleSize;
  request.matrix_kind = kernel.kind;
  std::string payload = serving::encode_sample_request(request);
  payload.resize(payload.rfind("matrix="));
  return payload + kernel.matrix_line;
}

enum class SlotKind { kSample, kStats, kShutdown };

struct Slot {
  SlotKind kind = SlotKind::kSample;
  int phase = 0;
  std::size_t kernel = 0;
  std::size_t count = 0;
  std::uint64_t seed = 0;
  double due = 0.0;   // open loop: scheduled send time
  double sent = 0.0;  // when the write started
  double done = 0.0;  // when the response was read
  int status = -1;
  std::vector<std::vector<int>> samples;
  std::string body;
};

/// Picks request parameters: Zipf 1/(i+1) over the kernels, 1 to
/// kMaxDraws draws.
struct RequestGenerator {
  explicit RequestGenerator(std::uint64_t seed, std::size_t kernels)
      : rng(seed) {
    for (std::size_t i = 0; i < kernels; ++i)
      weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  void fill(Slot& slot) {
    slot.kernel = rng.categorical(weights);
    slot.count = 1 + rng.uniform_index(kMaxDraws);
    slot.seed = rng.next_u64();
  }
  RandomStream rng;
  std::vector<double> weights;
};

/// One `sample_cli serve` child plus the client's reader thread. Slots
/// are preallocated: the writer fills slot i before publishing it through
/// `sent_`, and the reader only touches slots below `sent_`.
class Client {
 public:
  Client(const std::string& daemon, const std::string& serving_config,
         std::size_t capacity)
      : slots_(capacity) {
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::string arg0 = daemon, arg1 = "serve", arg2 = "--serving",
                arg3 = serving_config;
    char* argv[] = {arg0.data(), arg1.data(), arg2.data(), arg3.data(),
                    nullptr};
    const int rc =
        posix_spawn(&pid_, daemon.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    to_fd_ = to_child[1];
    from_fd_ = from_child[0];
    if (rc != 0) {
      ::close(to_fd_);
      ::close(from_fd_);
      throw std::runtime_error("cannot start daemon " + daemon + ": " +
                               std::strerror(rc));
    }
    reader_ = std::thread([this] { read_loop(); });
  }

  ~Client() {
    if (to_fd_ >= 0) ::close(to_fd_);
    if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
    if (reader_.joinable()) reader_.join();
    if (from_fd_ >= 0) ::close(from_fd_);
    if (pid_ > 0 && !reaped_) ::waitpid(pid_, nullptr, 0);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The next free slot, for the writer to fill before send().
  Slot& next_slot() {
    if (sent_.load() >= slots_.size())
      throw std::runtime_error("serve client: slot capacity exhausted");
    return slots_[sent_.load()];
  }

  /// Writes the payload of the slot returned by next_slot().
  void send(const std::string& payload) {
    const std::string frame = serving::encode_frame(payload);
    slots_[sent_.load()].sent = now_s();
    // Published before the write: the response may be read before the
    // write call returns.
    sent_.fetch_add(1, std::memory_order_release);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::write(to_fd_, frame.data() + off, frame.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("daemon closed its input");
      off += static_cast<std::size_t>(w);
    }
  }

  /// Blocks until at most `outstanding` requests await a response.
  void wait_until_outstanding(std::size_t outstanding) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      return eof_ || sent_.load() - received_.load() <= outstanding;
    });
    if (eof_ && sent_.load() != received_.load())
      throw std::runtime_error("daemon exited with requests outstanding");
  }

  /// Sends shutdown, closes the daemon's input, and reaps it. Returns the
  /// daemon's peak RSS in MiB.
  double finish() {
    Slot& slot = next_slot();
    slot.kind = SlotKind::kShutdown;
    send("shutdown\n");
    wait_until_outstanding(0);
    ::close(to_fd_);
    to_fd_ = -1;
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, 0, &usage) == pid_) reaped_ = true;
    if (reader_.joinable()) reader_.join();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("daemon exited abnormally");
    if (stream_error_)
      throw std::runtime_error("daemon response stream was malformed");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  [[nodiscard]] std::size_t sent() const { return sent_.load(); }
  [[nodiscard]] const Slot& slot(std::size_t i) const { return slots_[i]; }

 private:
  void read_loop() {
    serving::FrameReader reader;
    std::vector<char> chunk(std::size_t{1} << 16);
    for (;;) {
      const ssize_t got = ::read(from_fd_, chunk.data(), chunk.size());
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      try {
        reader.feed(std::string_view(chunk.data(), static_cast<std::size_t>(got)));
        while (auto payload = reader.next()) {
          const std::size_t index = received_.load();
          if (index >= sent_.load(std::memory_order_acquire))
            throw std::runtime_error("unsolicited response");
          decode(slots_[index], *payload);
          {
            const std::lock_guard lock(mutex_);
            received_.store(index + 1);
          }
          cv_.notify_all();
        }
      } catch (const std::exception&) {
        stream_error_ = true;  // read by the writer after joining
        break;
      }
    }
    {
      const std::lock_guard lock(mutex_);
      eof_ = true;
    }
    cv_.notify_all();
  }

  static void decode(Slot& slot, const std::string& payload) {
    slot.done = now_s();
    try {
      auto [status, body] = serving::parse_response(payload);
      slot.status = static_cast<int>(status);
      if (slot.kind != SlotKind::kSample) {
        slot.body = std::move(body);
        return;
      }
      std::size_t pos = 0;
      while (pos < body.size()) {
        const std::size_t nl = body.find('\n', pos);
        const std::string line = body.substr(pos, nl - pos);
        pos = nl == std::string::npos ? body.size() : nl + 1;
        if (line.rfind("sample=", 0) != 0) continue;
        std::vector<int> items;
        const char* p = line.c_str() + 7;
        char* end = nullptr;
        for (long v = std::strtol(p, &end, 10); end != p;
             v = std::strtol(p, &end, 10)) {
          items.push_back(static_cast<int>(v));
          p = end;
        }
        slot.samples.push_back(std::move(items));
      }
    } catch (const std::exception&) {
      slot.status = static_cast<int>(serving::ResponseStatus::kMalformed);
    }
  }

  std::vector<Slot> slots_;
  pid_t pid_ = -1;
  bool reaped_ = false;
  int to_fd_ = -1;
  int from_fd_ = -1;
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> received_{0};
  std::mutex mutex_;  // guards eof_ and orders received_ for cv_
  std::condition_variable cv_;
  bool eof_ = false;
  bool stream_error_ = false;
  std::thread reader_;  // last: started after everything above
};

void sleep_until(double when) {
  const double wait = when - now_s();
  if (wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Starts a daemon and primes every kernel: one request each, pipelined.
/// `seconds` gets the time from spawn to the last priming response.
std::unique_ptr<Client> start_and_prime(const Args& args,
                                        const std::string& serving_config,
                                        const std::vector<Kernel>& kernels,
                                        std::size_t capacity, double& seconds) {
  const double start = now_s();
  auto client = std::make_unique<Client>(args.daemon, serving_config, capacity);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    Slot& slot = client->next_slot();
    slot.kernel = i;
    slot.count = 1;
    slot.seed = derive_seed(args.seed, 50 + i);
    client->send(sample_payload(kernels[i], slot.count, slot.seed));
  }
  client->wait_until_outstanding(0);
  seconds = now_s() - start;
  return client;
}

/// Open loop over `schedule` (due times are offsets from the phase
/// start); with `stats_every_s` > 0, a stats request goes out that often.
void run_open_loop(Client& client, const std::vector<Kernel>& kernels,
                   const std::vector<Slot>& schedule, int phase,
                   double stats_every_s) {
  const double start = now_s();
  double next_stats = stats_every_s > 0 ? start + stats_every_s : 0.0;
  for (const Slot& planned : schedule) {
    const double due = start + planned.due;
    if (next_stats > 0 && next_stats <= due) {
      sleep_until(next_stats);
      Slot& stats = client.next_slot();
      stats.kind = SlotKind::kStats;
      stats.phase = phase;
      client.send("stats\n");
      next_stats += stats_every_s;
    }
    sleep_until(due);
    Slot& slot = client.next_slot();
    slot = planned;
    slot.phase = phase;
    slot.due = due;
    client.send(sample_payload(kernels[slot.kernel], slot.count, slot.seed));
  }
  client.wait_until_outstanding(0);
}

/// Closed loop with a fixed window; returns the phase's wall seconds.
double run_closed_loop(Client& client, const std::vector<Kernel>& kernels,
                       RequestGenerator& generator, int phase,
                       double seconds) {
  const double start = now_s();
  const double deadline = start + seconds;
  while (now_s() < deadline) {
    client.wait_until_outstanding(kWindow - 1);
    Slot& slot = client.next_slot();
    generator.fill(slot);
    slot.phase = phase;
    slot.due = now_s();
    client.send(sample_payload(kernels[slot.kernel], slot.count, slot.seed));
  }
  client.wait_until_outstanding(0);
  return now_s() - start;
}

/// The open-loop schedule: Poisson arrival times, and request parameters
/// in exact proportions (kernel i as 1/(i+1), each draw count equally
/// often), shuffled. The median latency falls among the second kernel's
/// requests, and with parameters drawn independently it would move with
/// the seed's mix of a few hundred requests.
std::vector<Slot> open_loop_schedule(std::uint64_t seed, std::size_t kernels,
                                     double seconds) {
  RandomStream arrivals(derive_seed(seed, 2));
  std::vector<Slot> schedule;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - arrivals.uniform()) / kOpenLoopRate;
    if (t >= seconds) break;
    Slot slot;
    slot.due = t;
    schedule.push_back(slot);
  }
  // Class c is kernel c / kMaxDraws with 1 + c % kMaxDraws draws. Request
  // j takes the class where the (j + 1/2) / n quantile of the class weights
  // falls, so each class gets its share of the n requests to within one.
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t i = 0; i < kernels; ++i)
    for (std::size_t c = 0; c < kMaxDraws; ++c)
      cumulative.push_back(total += 1.0 / static_cast<double>(i + 1));
  const std::size_t n = schedule.size();
  std::vector<std::size_t> classes(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double u = (static_cast<double>(j) + 0.5) / static_cast<double>(n);
    classes[j] = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u * total) -
        cumulative.begin());
  }
  RandomStream rng(derive_seed(seed, 3));
  for (std::size_t j = n; j > 1; --j)
    std::swap(classes[j - 1], classes[rng.uniform_index(j)]);
  for (std::size_t j = 0; j < n; ++j) {
    schedule[j].kernel = classes[j] / kMaxDraws;
    schedule[j].count = 1 + classes[j] % kMaxDraws;
    schedule[j].seed = rng.next_u64();
  }
  return schedule;
}

std::map<std::string, double> parse_stats(const std::string& body) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    const std::string line = body.substr(pos, nl - pos);
    pos = nl == std::string::npos ? body.size() : nl + 1;
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos)
      out[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return out;
}

bool is_counted_failure(int status) {
  // Sampling failure, starvation and admission-control rejections are
  // typed, documented outcomes: counted as failed, not as wrong output.
  return status == static_cast<int>(serving::ResponseStatus::kSamplingFailure) ||
         status == static_cast<int>(serving::ResponseStatus::kStarvation) ||
         status == static_cast<int>(serving::ResponseStatus::kOverloaded);
}

/// Checks every response of `client`; with `count`, adds the measured
/// phases' requests to the attempted/failed totals.
void check_responses(Report& report, const Client& client,
                     const std::vector<Kernel>& kernels, bool count) {
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Slot& slot = client.slot(i);
    const std::string where = "serve request " + std::to_string(i);
    if (slot.kind != SlotKind::kSample) {
      if (slot.status != 0) report.fail(where + ": status " + std::to_string(slot.status));
      continue;
    }
    if (count && slot.phase > 0) {
      ++report.attempted;
      if (is_counted_failure(slot.status)) ++report.failed;
    }
    if (is_counted_failure(slot.status)) continue;
    if (slot.status != 0) {
      report.fail(where + ": status " + std::to_string(slot.status));
      continue;
    }
    if (slot.samples.size() != slot.count) {
      report.fail(where + ": " + std::to_string(slot.samples.size()) +
                  " samples for count " + std::to_string(slot.count));
      continue;
    }
    for (const auto& items : slot.samples)
      check_sample(report, items, kernels[slot.kernel].n, kSampleSize, where);
  }
}

/// Re-draws a subset of responses in process: the same wire request,
/// lowered by the library's own parser, on a standalone session.
void check_against_in_process(Report& report, const Client& client,
                              const std::vector<Kernel>& kernels) {
  std::vector<std::unique_ptr<pardpp::CountingOracle>> oracles(kernels.size());
  std::vector<std::unique_ptr<pardpp::SamplerSession>> sessions(kernels.size());
  std::map<std::pair<int, std::size_t>, int> checked;  // (phase, kernel)
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Slot& slot = client.slot(i);
    if (slot.kind != SlotKind::kSample || slot.status != 0) continue;
    if (checked[{slot.phase, slot.kernel}]++ >= 2) continue;
    const auto request = std::get<serving::SampleRequest>(serving::parse_request(
        sample_payload(kernels[slot.kernel], slot.count, slot.seed)));
    if (sessions[slot.kernel] == nullptr) {
      const serving::ServerRequest lowered = serving::make_server_request(request);
      oracles[slot.kernel] = lowered.make_oracle();
      sessions[slot.kernel] = std::make_unique<pardpp::SamplerSession>(
          *oracles[slot.kernel], lowered.session_options);
    }
    RandomStream rng(slot.seed);
    const auto results = sessions[slot.kernel]->draw_many(
        slot.count, rng, pardpp::ExecutionContext::serial());
    std::vector<std::vector<int>> expected;
    for (const auto& result : results) expected.push_back(result.items);
    if (expected != slot.samples)
      report.fail("serve request " + std::to_string(i) +
                  ": daemon samples differ from in-process draw_many");
  }
}

std::vector<double> phase_latencies_ms(const Client& client, int phase,
                                       bool from_due) {
  std::vector<double> out;
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Slot& slot = client.slot(i);
    if (slot.kind != SlotKind::kSample || slot.phase != phase) continue;
    if (slot.status != 0) continue;
    out.push_back((slot.done - (from_due ? slot.due : slot.sent)) * 1e3);
  }
  return out;
}

/// Per request of the open-loop schedule, its best latency from its due
/// time over the passes that replayed it; a request that failed in any
/// pass is counted in `failed` instead.
std::vector<double> best_open_latencies_ms(const Client& client,
                                           std::size_t requests,
                                           std::size_t& failed) {
  std::vector<double> best(requests, std::numeric_limits<double>::infinity());
  std::vector<bool> bad(requests, false);
  std::size_t j = 0;
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Slot& slot = client.slot(i);
    if (slot.kind != SlotKind::kSample || slot.phase != 1) continue;
    const std::size_t r = j++ % requests;
    if (slot.status != 0) {
      bad[r] = true;
    } else {
      best[r] = std::min(best[r], (slot.done - slot.due) * 1e3);
    }
  }
  std::vector<double> out;
  failed = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    if (bad[r]) {
      ++failed;
    } else if (std::isfinite(best[r])) {
      out.push_back(best[r]);
    }
  }
  return out;
}

std::vector<double> generator_lag_ms(const Client& client, int phase) {
  std::vector<double> out;
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Slot& slot = client.slot(i);
    if (slot.kind == SlotKind::kSample && slot.phase == phase)
      out.push_back((slot.sent - slot.due) * 1e3);
  }
  return out;
}

/// Standalone serving-layer probes: the wire parser plus lowering, and a
/// registry build through a wrapped OracleFactory, per kernel.
void report_standalone_serving(Report& report, const std::vector<Kernel>& kernels) {
  std::vector<double> parse_ms;
  const std::string payload = sample_payload(kernels[2], 1, 1);  // n = 128
  for (int r = 0; r < 15; ++r) {
    const double start = now_s();
    const auto request =
        std::get<serving::SampleRequest>(serving::parse_request(payload));
    const serving::ServerRequest lowered = serving::make_server_request(request);
    parse_ms.push_back((now_s() - start) * 1e3);
    if (lowered.count != 1) report.fail("parse probe: count mismatch");
  }
  report.metric("serving.parse_ms_p50", median(parse_ms), "ms");

  serving::SessionRegistry registry;
  double factory_s = 0.0;
  std::vector<double> build_ms;
  for (const Kernel& kernel : kernels) {
    const auto request = std::get<serving::SampleRequest>(
        serving::parse_request(sample_payload(kernel, 1, 1)));
    const serving::ServerRequest lowered = serving::make_server_request(request);
    const serving::SessionRegistry::OracleFactory wrapped = [&] {
      const double start = now_s();
      auto oracle = lowered.make_oracle();
      factory_s += now_s() - start;
      return oracle;
    };
    const double start = now_s();
    (void)registry.acquire(lowered.fingerprint, lowered.session_options,
                           lowered.resident_bytes, wrapped);
    build_ms.push_back((now_s() - start) * 1e3);
  }
  report.metric("serving.build_ms", median(build_ms), "ms");
  report.note("serving_factory_ms_total", factory_s * 1e3);
}

}  // namespace

void run_serve_daemon_mix(const Args& args, Report& report) {
  ::signal(SIGPIPE, SIG_IGN);  // a dead daemon must surface as an error
  const std::vector<Kernel> kernels = make_kernels(args.seed);
  serving::ServingConfig config;
  config.pool_threads = kDaemonPool;
  const std::string serving_config = config.to_string();
  report.note("daemon_serving", serving_config);
  report.note("open_loop_rate", kOpenLoopRate);
  report.note("closed_loop_window", static_cast<double>(kWindow));
  report.note("slo_ms", kSloMs);

  // The untraced run plays each phase as kPasses passes over the same
  // requests: the open-loop schedule replayed with its due times, the
  // closed loop restarted from the same request sequence. A request does
  // identical work in every pass, so its best latency, and the best pass's
  // throughput, are the daemon's with the least host interference.
  const double s = args.seconds;
  const std::size_t passes = args.trace ? 1 : kPasses;
  const double open_s = args.trace ? 0.28 * s : 0.55 * s / kPasses;
  const double closed_s = args.trace ? 0.2 * s : 0.3 * s / kPasses;
  const std::vector<Slot> schedule =
      open_loop_schedule(args.seed, kernels.size(), open_s);
  const std::size_t capacity =
      kernels.size() + (passes + 1) * schedule.size() + 64 +
      static_cast<std::size_t>(static_cast<double>(passes) * closed_s * 5000.0);

  // Set-up: daemon start until every kernel is primed, several times.
  std::vector<double> setup;
  std::unique_ptr<Client> client;
  const int starts = args.trace ? 1 : kSetupStarts;
  for (int r = 0; r < starts; ++r) {
    if (client != nullptr) {
      check_responses(report, *client, kernels, false);
      (void)client->finish();
    }
    double seconds = 0.0;
    client = start_and_prime(args, serving_config, kernels, capacity, seconds);
    setup.push_back(seconds);
  }

  for (std::size_t pass = 0; pass < passes; ++pass)
    run_open_loop(*client, kernels, schedule, 1, 0.0);
  if (args.trace) run_open_loop(*client, kernels, schedule, 2, 0.5);
  double closed_rps = 0.0, closed_dps = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    RequestGenerator generator(derive_seed(args.seed, 4), kernels.size());
    const std::size_t first = client->sent();
    const double wall = run_closed_loop(*client, kernels, generator, 3, closed_s);
    std::size_t requests = 0, draws = 0;
    for (std::size_t i = first; i < client->sent(); ++i) {
      const Slot& slot = client->slot(i);
      if (slot.kind != SlotKind::kSample || slot.status != 0) continue;
      ++requests;
      draws += slot.count;
    }
    closed_rps = std::max(closed_rps, static_cast<double>(requests) / wall);
    closed_dps = std::max(closed_dps, static_cast<double>(draws) / wall);
  }
  if (args.trace) {
    Slot& stats = client->next_slot();
    stats.kind = SlotKind::kStats;
    client->send("stats\n");
  }
  client->wait_until_outstanding(0);
  const double daemon_rss_mb = client->finish();

  check_responses(report, *client, kernels, true);
  check_against_in_process(report, *client, kernels);

  const std::vector<double> lag = generator_lag_ms(*client, 1);
  const double lag_p99 = quantile(lag, 0.99);
  report.note("generator_lag_ms_p50", quantile(lag, 0.5));
  report.note("generator_lag_ms_p99", lag_p99);
  report.note("generator_lag_ms_max", quantile(lag, 1.0));
  report.note("generator_behind", lag_p99 > kBehindLagMs ? "yes" : "no");

  std::size_t open_failed = 0;
  const std::vector<double> open_ms =
      best_open_latencies_ms(*client, schedule.size(), open_failed);
  report.note("passes", static_cast<double>(passes));

  if (!args.trace) {
    report.metric("setup_s", median(setup), "s");
    report_latency(report, open_ms);
    report.metric("slo_met_frac", slo_fraction(open_ms, open_failed, kSloMs),
                  "ratio");
    report.metric("requests_per_s", closed_rps, "1/s");
    report.metric("draws_per_s", closed_dps, "1/s");
    report.metric("peak_rss_mb", daemon_rss_mb, "MB");
    return;
  }

  // Traced run: phase 2 replays phase 1's schedule while polling the
  // daemon's stats verb; its samples must match phase 1's bit for bit.
  report_layer_defaults(report);
  report_standalone_layers(args, report);
  std::vector<const Slot*> untraced, traced;
  const Slot* last_stats = nullptr;
  for (std::size_t i = 0; i < client->sent(); ++i) {
    const Slot& slot = client->slot(i);
    if (slot.kind == SlotKind::kStats) last_stats = &slot;
    if (slot.kind != SlotKind::kSample) continue;
    if (slot.phase == 1) untraced.push_back(&slot);
    if (slot.phase == 2) traced.push_back(&slot);
  }
  if (untraced.size() != traced.size()) {
    report.fail("traced phase sent a different number of requests");
  } else {
    for (std::size_t i = 0; i < untraced.size(); ++i)
      if (untraced[i]->status == 0 && untraced[i]->samples != traced[i]->samples)
        report.fail("traced serve request " + std::to_string(i) +
                    " differs from its untraced counterpart");
  }
  const double untraced_p50 = median(open_ms);
  const double traced_p50 = median(phase_latencies_ms(*client, 2, true));
  report.metric("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0, "ratio");
  report.metric("failed_frac",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::size_t>(report.attempted, 1)),
                "ratio");
  report.metric("serving.gen_lag_ms_p99", lag_p99, "ms");
  if (last_stats == nullptr) {
    report.fail("no stats response");
    return;
  }
  auto stats = parse_stats(last_stats->body);
  report.metric("serving.requests_per_batch",
                stats["batches"] > 0 ? stats["coalesced_requests"] / stats["batches"]
                                     : 0.0,
                "count");
  report.metric("serving.queue_peak", stats["queue_peak"], "count");
  report.metric("serving.registry_hit_frac",
                stats["registry.lookups"] > 0
                    ? stats["registry.hits"] / stats["registry.lookups"]
                    : 0.0,
                "ratio");
  report.metric("serving.registry_misses", stats["registry.misses"], "count");
  report.metric("serving.evictions", stats["registry.evictions"], "count");
  report.metric("serving.rejected",
                stats["rejected_queue_full"] + stats["rejected_tenant_cap"],
                "count");
  report.note("serving_max_coalesced", stats["max_coalesced"]);
  report_standalone_serving(report, kernels);
}

}  // namespace perfbench
