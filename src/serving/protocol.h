// Wire protocol for the `serve` daemon: length-prefixed frames carrying
// line-oriented text requests/responses (DESIGN.md §2 convention 13,
// grammar in README "Serving").
//
// Framing: a 4-byte big-endian payload length, then the payload. A
// declared length above kMaxFrameBytes is unrecoverable (the stream
// cannot be resynchronized) and throws ProtocolError; a truncated
// trailing frame simply never completes (FrameReader::next keeps
// returning nullopt), which is how a clean EOF mid-frame is told apart
// from garbage.
//
// Requests: first line is the verb (`sample`, `stats`, `shutdown`),
// remaining lines `key=value`. The `config` value is the canonical
// SessionConfig text (serving/config.h) — the same representation the
// CLI flags produce and the kernel fingerprint hashes. Responses: first
// line `status=<code>`, then body lines; status codes mirror the CLI
// exit-code taxonomy (3 = invalid argument, 4 = numerical, 5 = sampling
// failure, 6 = starvation) plus 1 = malformed request and 7 =
// overloaded, so a wire client and a CLI user read the same numbers for
// the same failures.
//
// Every parser here is fuzz-hardened: arbitrary payload bytes must
// produce a typed ProtocolError (or a parsed request), never a crash —
// test_serving pins that with truncated frames, oversize lengths,
// unknown verbs, and garbage fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "linalg/matrix.h"
#include "serving/config.h"
#include "serving/server.h"
#include "support/error.h"

namespace pardpp::serving {

/// Malformed wire input: bad framing, unknown verb, unparsable field.
/// Maps to ResponseStatus::kMalformed, never to a daemon crash.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

/// Hard cap on one frame's payload (64 MiB — a 1448×1448 double ensemble
/// in text still fits). Anything larger is a framing error.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;

/// 4-byte big-endian length + payload. Throws ProtocolError when the
/// payload exceeds kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() arbitrary byte chunks, next() pops
/// complete payloads in order (nullopt when no complete frame is
/// buffered). Throws ProtocolError on an oversize declared length; the
/// reader is then unusable (the stream cannot be resynced).
class FrameReader {
 public:
  void feed(std::string_view bytes);
  [[nodiscard]] std::optional<std::string> next();

  /// Bytes of an incomplete trailing frame still buffered (EOF with
  /// pending() != 0 means the peer truncated a frame).
  [[nodiscard]] std::size_t pending() const noexcept {
    return buffer_.size() - cursor_;
  }

 private:
  std::string buffer_;
  std::size_t cursor_ = 0;  // consumed prefix, compacted in feed()
};

/// Response status codes. 0/2–6 mirror the CLI exit codes for the same
/// exception taxonomy; 1 and 7 are wire-only.
enum class ResponseStatus : int {
  kOk = 0,
  kMalformed = 1,       ///< ProtocolError: unparsable request
  kInternalError = 2,   ///< pardpp::Error outside the taxonomy below
  kInvalidArgument = 3,
  kNumericalError = 4,
  kSamplingFailure = 5,
  kStarvation = 6,
  kOverloaded = 7,      ///< admission control rejected; retry later
};

/// Classifies a caught exception onto the wire status taxonomy (most
/// specific type wins, mirroring the CLI's catch ladder).
[[nodiscard]] ResponseStatus status_for_exception(
    const std::exception_ptr& error) noexcept;

/// `sample` request: draw `count` samples from the kernel carried inline.
struct SampleRequest {
  std::string tenant = "default";
  std::uint64_t seed = 0;
  std::size_t count = 1;
  std::size_t k = 0;
  /// Matrix semantics: "features" (n×d feature rows, FeatureKdppOracle)
  /// or "kernel" (square ensemble; symmetric → SymmetricKdppOracle,
  /// otherwise GeneralDppOracle).
  std::string matrix_kind = "kernel";
  /// Canonical SessionConfig text ("" = defaults).
  std::string config;
  Matrix matrix;
};

struct StatsRequest {};
struct ShutdownRequest {};

using Request = std::variant<SampleRequest, StatsRequest, ShutdownRequest>;

/// Parses one frame payload. Throws ProtocolError naming the verb/field
/// on any malformed input; never crashes on arbitrary bytes.
[[nodiscard]] Request parse_request(std::string_view payload);

/// Client-side encoder for SampleRequest (tests, the smoke driver, and
/// in-process clients) — emits exactly what parse_request accepts.
[[nodiscard]] std::string encode_sample_request(const SampleRequest& request);

/// `status=<code>\n` + body. The body is returned verbatim (callers
/// build line-oriented `key=value` bodies).
[[nodiscard]] std::string format_response(ResponseStatus status,
                                          std::string_view body);

/// Splits a response payload back into (status, body) — the client half
/// of format_response. Throws ProtocolError on a malformed status line.
[[nodiscard]] std::pair<ResponseStatus, std::string> parse_response(
    std::string_view payload);

/// Lowers a parsed SampleRequest onto the serving API: validates and
/// canonicalizes the config, fingerprints (family, matrix, k, canonical
/// config), and packages the oracle factory + resident-bytes estimate.
/// Throws InvalidArgument on a config/kind the serving layer rejects.
[[nodiscard]] ServerRequest make_server_request(const SampleRequest& request);

}  // namespace pardpp::serving
