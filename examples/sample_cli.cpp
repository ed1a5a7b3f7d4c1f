// pardpp sampling CLI — drive the library from the command line.
//
// Modes:
//   sample_cli kernel <csv> --k <k> [--sampler batched|sequential|entropic]
//       Samples a k-DPP from a dense kernel matrix stored as CSV rows.
//       The kernel is treated as symmetric if it is (numerically), else
//       as a nonsymmetric PSD ensemble.
//   sample_cli rbf <csv> --k <k> --bandwidth <w>
//       Treats CSV rows as points, builds the RBF kernel, samples.
//   sample_cli grid <rows> <cols>
//       Samples a uniform perfect matching (domino tiling) of a grid.
//   sample_cli serve [--serving key=value,...]
//       Daemon mode: speaks the length-prefixed request/response
//       protocol (serving/protocol.h) on stdin/stdout, serving sample/
//       stats/shutdown requests through the session registry with
//       request coalescing. --serving takes the canonical ServingConfig
//       text (serving/config.h). See README "Serving".
// Common flags: --seed <s>, --trials <t> (repeat and report marginals).
//
// Exit codes map the library's exception taxonomy so shell callers and
// service wrappers can branch on the failure class without parsing
// stderr (serve mode maps the same taxonomy onto per-response status
// codes instead and exits 0 on clean EOF/shutdown, 2 on an
// unrecoverable framing error):
//   0  success
//   1  usage error (bad flags, bad input shape)
//   2  other pardpp::Error / unexpected failure
//   3  pardpp::InvalidArgument     (a precondition the caller controls)
//   4  pardpp::NumericalError      (non-PSD kernel, pivot failure, drift)
//   5  pardpp::SamplingFailure     (rejection budget exhausted)
//   6  pardpp::DistillationStarvation (no candidate pool accepted;
//      stderr carries the attempts/duplicate-rejects forensics)
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "pardpp.h"

namespace {

using namespace pardpp;

struct CliOptions {
  std::string mode;
  std::string path;
  std::size_t k = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  double bandwidth = 0.25;
  std::string sampler = "batched";
  std::uint64_t seed = 1;
  int trials = 1;
  std::string serving;  // canonical ServingConfig text for serve mode
};

/// The sampler kinds, straight from the enum table — the usage string
/// can never drift from what sampler_kind_from_name accepts.
std::string sampler_kind_list(const char* separator) {
  std::string kinds;
  for (const SamplerKind kind : kAllSamplerKinds) {
    if (!kinds.empty()) kinds += separator;
    kinds += sampler_kind_name(kind);
  }
  return kinds;
}

[[noreturn]] void usage() {
  const std::string kinds = sampler_kind_list("|");
  std::fprintf(
      stderr,
      "usage:\n"
      "  sample_cli kernel <csv> --k <k> [--sampler %s] [--seed s] "
      "[--trials t]\n"
      "  sample_cli rbf <csv> --k <k> [--bandwidth w] [--seed s] "
      "[--trials t]\n"
      "  sample_cli grid <rows> <cols> [--seed s] [--trials t]\n"
      "  sample_cli serve [--serving key=value,...]\n",
      kinds.c_str());
  std::exit(1);
}

Matrix load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) row.push_back(std::stod(cell));
    if (!rows.empty() && row.size() != rows.front().size()) {
      std::fprintf(stderr, "error: ragged CSV at line %zu\n", rows.size() + 1);
      std::exit(2);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "error: empty CSV\n");
    std::exit(2);
  }
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
  return m;
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) usage();
  options.mode = argv[1];
  int positional_start = 2;
  if (options.mode == "grid") {
    if (argc < 4) usage();
    options.rows = static_cast<std::size_t>(std::stoul(argv[2]));
    options.cols = static_cast<std::size_t>(std::stoul(argv[3]));
    positional_start = 4;
  } else if (options.mode == "kernel" || options.mode == "rbf") {
    if (argc < 3) usage();
    options.path = argv[2];
    positional_start = 3;
  } else if (options.mode == "serve") {
    positional_start = 2;
  } else {
    usage();
  }
  for (int i = positional_start; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--k") {
      options.k = static_cast<std::size_t>(std::stoul(next()));
    } else if (flag == "--bandwidth") {
      options.bandwidth = std::stod(next());
    } else if (flag == "--sampler") {
      options.sampler = next();
    } else if (flag == "--seed") {
      options.seed = std::stoull(next());
    } else if (flag == "--trials") {
      options.trials = std::stoi(next());
    } else if (flag == "--serving") {
      options.serving = next();
    } else {
      usage();
    }
  }
  return options;
}

int run_dpp(const CliOptions& options, const Matrix& l) {
  if (options.k == 0 || options.k > l.rows()) {
    std::fprintf(stderr, "error: need 1 <= --k <= %zu\n", l.rows());
    return 1;
  }
  const std::optional<SamplerKind> requested =
      sampler_kind_from_name(options.sampler);
  if (!requested.has_value()) {
    std::fprintf(stderr, "error: unknown sampler %s (expected one of: %s)\n",
                 options.sampler.c_str(), sampler_kind_list(", ").c_str());
    return 1;
  }
  const bool symmetric = l.is_symmetric(1e-9);
  std::unique_ptr<CountingOracle> oracle;
  if (symmetric) {
    oracle = std::make_unique<SymmetricKdppOracle>(l, options.k);
  } else {
    oracle = std::make_unique<GeneralDppOracle>(l, options.k);
  }
  std::printf("# n = %zu, k = %zu, kernel = %s, sampler = %s\n", l.rows(),
              options.k, symmetric ? "symmetric" : "nonsymmetric",
              options.sampler.c_str());
  RandomStream rng(options.seed);
  std::vector<double> freq(l.rows(), 0.0);
  for (int trial = 0; trial < options.trials; ++trial) {
    PramLedger ledger;
    const auto ctx = ExecutionContext::serial(&ledger);
    SampleResult result;
    // The nonsymmetric families route through the entropic sampler
    // (the batched cap assumes a strongly Rayleigh symmetric target);
    // an explicit sequential request is honored on every family.
    switch (*requested) {
      case SamplerKind::kSequential:
        result = sample_sequential(*oracle, rng, ctx);
        break;
      case SamplerKind::kEntropic:
        result = sample_entropic(*oracle, rng, ctx);
        break;
      case SamplerKind::kBatched:
        result = symmetric ? sample_batched(*oracle, rng, ctx)
                           : sample_entropic(*oracle, rng, ctx);
        break;
    }
    std::printf("sample %d (depth %.0f): ", trial,
                ledger.stats().depth);
    for (const int item : result.items) std::printf("%d ", item);
    std::printf("\n");
    for (const int item : result.items)
      freq[static_cast<std::size_t>(item)] += 1.0;
  }
  if (options.trials > 1) {
    std::printf("# empirical marginals:");
    for (std::size_t i = 0; i < l.rows(); ++i)
      std::printf(" %.3f", freq[i] / options.trials);
    std::printf("\n");
  }
  return 0;
}

std::string describe_exception(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// One `key=value` body line per stats counter, plus a
/// `session.<fingerprint>.*` block per resident session surfacing its
/// SessionHealth and nonzero per-kind GuardEvent counters.
std::string serve_stats_body(serving::SamplingServer& server) {
  const serving::ServerStats stats = server.stats();
  std::string body;
  const auto line = [&body](const std::string& key, std::uint64_t value) {
    body += key + "=" + std::to_string(value) + "\n";
  };
  line("submitted", stats.submitted);
  line("completed", stats.completed);
  line("failed", stats.failed);
  line("rejected_queue_full", stats.rejected_queue_full);
  line("rejected_tenant_cap", stats.rejected_tenant_cap);
  line("batches", stats.batches);
  line("coalesced_requests", stats.coalesced_requests);
  line("max_coalesced", stats.max_coalesced);
  line("draws", stats.draws);
  line("queue_peak", stats.queue_peak);
  line("registry.sessions", stats.registry.sessions);
  line("registry.resident_bytes", stats.registry.resident_bytes);
  line("registry.lookups", stats.registry.lookups);
  line("registry.hits", stats.registry.hits);
  line("registry.misses", stats.registry.misses);
  line("registry.evictions", stats.registry.evictions);
  for (const auto& [fingerprint, session] : server.registry().snapshot()) {
    const std::string prefix = "session." + fingerprint.to_string() + ".";
    const SessionHealth health = session->session().health();
    line(prefix + "epoch", health.session_epoch);
    line(prefix + "draws", health.draws);
    line(prefix + "failures", health.failures);
    line(prefix + "retries", health.retries);
    line(prefix + "spectral_refreshes", health.spectral_refreshes);
    line(prefix + "starvations", health.starvations);
    const auto guards = session->guard_event_counts();
    for (std::size_t kind = 0; kind < guards.size(); ++kind) {
      if (guards[kind] == 0) continue;
      line(prefix + "guard." +
               guard_event_kind_name(static_cast<GuardEventKind>(kind)),
           guards[kind]);
    }
  }
  return body;
}

int run_serve(const CliOptions& options) {
  // Config parse/validate errors propagate to main's catch ladder: a bad
  // --serving string exits 3, same as any InvalidArgument.
  serving::SamplingServer server(
      serving::ServingConfig::parse(options.serving));

  // Replies must leave in request order, but requests are submitted the
  // moment they parse — so a client that pipelines N sample requests
  // before reading gets them coalesced into shared draw_many batches.
  // The deque keeps the order: a slot is either a submitted future, a
  // deferred stats marker (evaluated at reply time, after every earlier
  // request resolved), or an already-formatted error payload.
  struct Reply {
    std::optional<std::future<std::vector<SampleResult>>> future;
    bool is_stats = false;
    std::string ready;
  };
  std::deque<Reply> replies;
  bool shutdown_requested = false;

  const auto write_frame = [](const std::string& payload) {
    const std::string frame = serving::encode_frame(payload);
    std::fwrite(frame.data(), 1, frame.size(), stdout);
  };

  const auto flush_replies = [&] {
    for (Reply& reply : replies) {
      std::string payload;
      if (reply.future.has_value()) {
        try {
          const std::vector<SampleResult> results = reply.future->get();
          std::string body = "count=" + std::to_string(results.size()) + "\n";
          for (const SampleResult& result : results) {
            body += "sample=";
            for (std::size_t j = 0; j < result.items.size(); ++j) {
              if (j > 0) body += ' ';
              body += std::to_string(result.items[j]);
            }
            body += '\n';
          }
          payload = serving::format_response(serving::ResponseStatus::kOk,
                                             body);
        } catch (...) {
          const std::exception_ptr error = std::current_exception();
          payload = serving::format_response(
              serving::status_for_exception(error),
              "error=" + describe_exception(error) + "\n");
        }
      } else if (reply.is_stats) {
        payload = serving::format_response(serving::ResponseStatus::kOk,
                                           serve_stats_body(server));
      } else {
        payload = reply.ready;
      }
      write_frame(payload);
    }
    replies.clear();
    std::fflush(stdout);
  };

  serving::FrameReader reader;
  std::vector<char> chunk(std::size_t{1} << 16);
  for (;;) {
    // POSIX read, not fread: fread blocks until the whole chunk fills,
    // which would deadlock an interactive client that writes one frame
    // and waits for its response. read() returns whatever the pipe has,
    // so every client write becomes a flush boundary — pipelined writers
    // still coalesce (all frames of one chunk submit before any reply
    // is awaited), interactive writers still get per-frame replies.
#if defined(__unix__) || defined(__APPLE__)
    const ssize_t raw = ::read(0, chunk.data(), chunk.size());
    const std::size_t got = raw > 0 ? static_cast<std::size_t>(raw) : 0;
#else
    const std::size_t got =
        std::fread(chunk.data(), 1, chunk.size(), stdin);
#endif
    if (got == 0) break;  // EOF (or read error): drain and exit clean
    reader.feed(std::string_view(chunk.data(), got));
    for (;;) {
      std::optional<std::string> payload;
      try {
        payload = reader.next();
      } catch (const serving::ProtocolError& e) {
        // Oversize declared length: the byte stream cannot be resynced.
        // Answer what is answerable, report the framing error, bail.
        flush_replies();
        write_frame(serving::format_response(
            serving::ResponseStatus::kMalformed,
            std::string("error=") + e.what() + "\n"));
        std::fflush(stdout);
        std::fprintf(stderr, "serve: %s\n", e.what());
        return 2;
      }
      if (!payload.has_value()) break;
      Reply reply;
      try {
        const serving::Request request = serving::parse_request(*payload);
        if (const auto* sample =
                std::get_if<serving::SampleRequest>(&request)) {
          reply.future = server.submit(serving::make_server_request(*sample));
        } else if (std::holds_alternative<serving::StatsRequest>(request)) {
          reply.is_stats = true;
        } else {
          reply.ready = serving::format_response(
              serving::ResponseStatus::kOk, "shutdown=1\n");
          shutdown_requested = true;
        }
      } catch (...) {
        // ProtocolError → 1, InvalidArgument → 3, Overloaded → 7: the
        // request failed before it reached a session; the connection
        // stays healthy.
        const std::exception_ptr error = std::current_exception();
        reply.ready = serving::format_response(
            serving::status_for_exception(error),
            "error=" + describe_exception(error) + "\n");
      }
      replies.push_back(std::move(reply));
      if (shutdown_requested) break;
    }
    flush_replies();
    if (shutdown_requested) break;
  }
  flush_replies();
  if (!shutdown_requested && reader.pending() != 0) {
    std::fprintf(stderr, "serve: EOF with %zu byte(s) of a truncated frame\n",
                 reader.pending());
  }
  return 0;
}

int run_grid(const CliOptions& options) {
  const auto g = grid_graph(options.rows, options.cols);
  RandomStream rng(options.seed);
  std::printf("# grid %zux%zu, uniform perfect matchings via Theorem 11\n",
              options.rows, options.cols);
  for (int trial = 0; trial < options.trials; ++trial) {
    PramLedger ledger;
    const auto result = sample_matching_separator(
        g, rng, ExecutionContext::on_shared_pool(&ledger));
    std::printf("matching %d (depth %.0f):", trial, ledger.stats().depth);
    for (const auto& [u, v] : result.matching)
      std::printf(" (%d,%d)", u, v);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);
  try {
    if (options.mode == "grid") return run_grid(options);
    if (options.mode == "serve") return run_serve(options);
    Matrix m = load_csv(options.path);
    if (options.mode == "rbf") {
      m = rbf_kernel(m, options.bandwidth);
      for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += 1e-9;
    }
    if (!m.square()) {
      std::fprintf(stderr, "error: kernel CSV must be square\n");
      return 1;
    }
    return run_dpp(options, m);
  } catch (const DistillationStarvation& e) {
    // Most-derived first: starvation is a SamplingFailure with a
    // diagnostics payload worth surfacing.
    std::fprintf(stderr,
                 "pardpp starvation: %s\n"
                 "  attempts=%zu duplicate_rejects=%zu\n",
                 e.what(), e.diag.proposals, e.diag.duplicate_rejects);
    return 6;
  } catch (const SamplingFailure& e) {
    std::fprintf(stderr, "pardpp sampling failure: %s\n", e.what());
    return 5;
  } catch (const NumericalError& e) {
    std::fprintf(stderr, "pardpp numerical error: %s\n", e.what());
    return 4;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "pardpp invalid argument: %s\n", e.what());
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "pardpp error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unexpected error: %s\n", e.what());
    return 2;
  }
}
