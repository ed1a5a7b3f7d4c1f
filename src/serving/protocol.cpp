#include "serving/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "dpp/feature_oracle.h"
#include "dpp/general_oracle.h"
#include "dpp/symmetric_oracle.h"
#include "sampling/intermediate.h"

namespace pardpp::serving {

namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double parse_wire_double(std::string_view field, std::string_view value) {
  const std::string text(value);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw ProtocolError("request: field '" + std::string(field) +
                        "': cannot parse '" + text + "' as a double");
  return parsed;
}

std::uint64_t parse_wire_u64(std::string_view field, std::string_view value) {
  const std::string text(value);
  if (text.empty() || text[0] == '-')
    throw ProtocolError("request: field '" + std::string(field) +
                        "': cannot parse '" + text +
                        "' as a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw ProtocolError("request: field '" + std::string(field) +
                        "': cannot parse '" + text +
                        "' as a non-negative integer");
  return static_cast<std::uint64_t>(parsed);
}

Matrix parse_wire_matrix(std::string_view text) {
  if (text.empty()) throw ProtocolError("request: field 'matrix': empty");
  std::vector<std::vector<double>> rows;
  std::size_t cols = 0;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view row_text = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    std::vector<double> row;
    while (true) {
      const std::size_t comma = row_text.find(',');
      row.push_back(parse_wire_double("matrix", row_text.substr(0, comma)));
      if (comma == std::string_view::npos) break;
      row_text = row_text.substr(comma + 1);
    }
    if (cols == 0) {
      cols = row.size();
    } else if (row.size() != cols) {
      throw ProtocolError(
          "request: field 'matrix': ragged rows (" + std::to_string(cols) +
          " vs " + std::to_string(row.size()) + " entries)");
    }
    rows.push_back(std::move(row));
  }
  Matrix out(rows.size(), cols);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < cols; ++j) out(i, j) = rows[i][j];
  return out;
}

SampleRequest parse_sample_fields(
    const std::vector<std::string_view>& lines) {
  SampleRequest request;
  bool saw_matrix = false;
  bool saw_k = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw ProtocolError("request: malformed line '" + std::string(line) +
                          "' (expected key=value)");
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "tenant") {
      request.tenant = std::string(value);
    } else if (key == "seed") {
      request.seed = parse_wire_u64(key, value);
    } else if (key == "count") {
      request.count = static_cast<std::size_t>(parse_wire_u64(key, value));
    } else if (key == "k") {
      request.k = static_cast<std::size_t>(parse_wire_u64(key, value));
      saw_k = true;
    } else if (key == "kind") {
      if (value != "kernel" && value != "features")
        throw ProtocolError("request: field 'kind': unknown matrix kind '" +
                            std::string(value) +
                            "' (expected kernel or features)");
      request.matrix_kind = std::string(value);
    } else if (key == "config") {
      request.config = std::string(value);
    } else if (key == "matrix") {
      request.matrix = parse_wire_matrix(value);
      saw_matrix = true;
    } else {
      throw ProtocolError("request: unknown field '" + std::string(key) +
                          "'");
    }
  }
  if (!saw_matrix) throw ProtocolError("request: missing field 'matrix'");
  if (!saw_k) throw ProtocolError("request: missing field 'k'");
  return request;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw ProtocolError("frame: payload of " +
                        std::to_string(payload.size()) +
                        " bytes exceeds kMaxFrameBytes");
  std::string frame;
  frame.reserve(4 + payload.size());
  const auto size = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xff));
  frame.push_back(static_cast<char>((size >> 16) & 0xff));
  frame.push_back(static_cast<char>((size >> 8) & 0xff));
  frame.push_back(static_cast<char>(size & 0xff));
  frame.append(payload);
  return frame;
}

void FrameReader::feed(std::string_view bytes) {
  // Compact the consumed prefix before growing, so the buffer stays
  // bounded by one frame plus one read chunk.
  if (cursor_ > 0) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() - cursor_ < 4) return std::nullopt;
  const auto* head =
      reinterpret_cast<const unsigned char*>(buffer_.data() + cursor_);
  const std::size_t size = (std::size_t{head[0]} << 24) |
                           (std::size_t{head[1]} << 16) |
                           (std::size_t{head[2]} << 8) | std::size_t{head[3]};
  if (size > kMaxFrameBytes)
    throw ProtocolError("frame: declared length " + std::to_string(size) +
                        " exceeds kMaxFrameBytes (" +
                        std::to_string(kMaxFrameBytes) +
                        "); stream unrecoverable");
  if (buffer_.size() - cursor_ - 4 < size) return std::nullopt;
  std::string payload = buffer_.substr(cursor_ + 4, size);
  cursor_ += 4 + size;
  return payload;
}

ResponseStatus status_for_exception(
    const std::exception_ptr& error) noexcept {
  // Most specific type first — the same ladder the CLI's exit codes use,
  // so the wire and the shell report the same taxonomy.
  try {
    std::rethrow_exception(error);
  } catch (const ProtocolError&) {
    return ResponseStatus::kMalformed;
  } catch (const Overloaded&) {
    return ResponseStatus::kOverloaded;
  } catch (const DistillationStarvation&) {
    return ResponseStatus::kStarvation;
  } catch (const SamplingFailure&) {
    return ResponseStatus::kSamplingFailure;
  } catch (const NumericalError&) {
    return ResponseStatus::kNumericalError;
  } catch (const InvalidArgument&) {
    return ResponseStatus::kInvalidArgument;
  } catch (...) {
    return ResponseStatus::kInternalError;
  }
}

Request parse_request(std::string_view payload) {
  std::vector<std::string_view> lines;
  std::string_view rest = payload;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
  }
  while (!lines.empty() && lines.front().empty()) lines.erase(lines.begin());
  if (lines.empty()) throw ProtocolError("request: empty payload");
  const std::string_view verb = lines.front();
  if (verb == "sample") return parse_sample_fields(lines);
  if (verb == "stats") return StatsRequest{};
  if (verb == "shutdown") return ShutdownRequest{};
  throw ProtocolError("request: unknown request type '" + std::string(verb) +
                      "' (expected sample, stats, or shutdown)");
}

std::string encode_sample_request(const SampleRequest& request) {
  std::string payload = "sample\n";
  payload += "tenant=" + request.tenant + "\n";
  payload += "seed=" + std::to_string(request.seed) + "\n";
  payload += "count=" + std::to_string(request.count) + "\n";
  payload += "k=" + std::to_string(request.k) + "\n";
  payload += "kind=" + request.matrix_kind + "\n";
  if (!request.config.empty()) payload += "config=" + request.config + "\n";
  payload += "matrix=";
  for (std::size_t i = 0; i < request.matrix.rows(); ++i) {
    if (i > 0) payload += ';';
    for (std::size_t j = 0; j < request.matrix.cols(); ++j) {
      if (j > 0) payload += ',';
      payload += format_double(request.matrix(i, j));
    }
  }
  payload += '\n';
  return payload;
}

std::string format_response(ResponseStatus status, std::string_view body) {
  std::string payload =
      "status=" + std::to_string(static_cast<int>(status)) + "\n";
  payload.append(body);
  return payload;
}

std::pair<ResponseStatus, std::string> parse_response(
    std::string_view payload) {
  const std::size_t nl = payload.find('\n');
  const std::string_view head =
      nl == std::string_view::npos ? payload : payload.substr(0, nl);
  constexpr std::string_view kPrefix = "status=";
  if (head.substr(0, kPrefix.size()) != kPrefix)
    throw ProtocolError("response: missing status line");
  const std::uint64_t code = parse_wire_u64("status", head.substr(kPrefix.size()));
  if (code > static_cast<std::uint64_t>(ResponseStatus::kOverloaded))
    throw ProtocolError("response: unknown status code " +
                        std::to_string(code));
  std::string body;
  if (nl != std::string_view::npos)
    body = std::string(payload.substr(nl + 1));
  return {static_cast<ResponseStatus>(code), std::move(body)};
}

ServerRequest make_server_request(const SampleRequest& request) {
  // One canonicalization for everything downstream: the fingerprint
  // hashes the *canonical* spelling, so two requests whose config texts
  // differ only in field order or float formatting share a session.
  const SessionConfig config = SessionConfig::parse(request.config);
  config.validate(request.k);
  const std::string canonical = config.to_string();

  ServerRequest out;
  out.tenant = request.tenant;
  out.count = request.count;
  out.seed = request.seed;
  out.session_options = config.session;
  out.fingerprint = fingerprint_kernel(request.matrix_kind, request.matrix,
                                       request.k, canonical);
  // Resident estimate: the ensemble plus the primed spectral caches,
  // which for every family are within a small multiple of the ensemble
  // itself, plus a fixed floor for the session scaffolding.
  const std::size_t matrix_bytes =
      request.matrix.rows() * request.matrix.cols() * sizeof(double);
  out.resident_bytes = 3 * matrix_bytes + (std::size_t{1} << 16);
  out.make_oracle = [matrix = std::make_shared<const Matrix>(request.matrix),
                     kind = request.matrix_kind,
                     k = request.k]() -> std::unique_ptr<CountingOracle> {
    if (kind == "features")
      return std::make_unique<FeatureKdppOracle>(*matrix, k);
    if (matrix->is_symmetric())
      return std::make_unique<SymmetricKdppOracle>(*matrix, k);
    return std::make_unique<GeneralDppOracle>(*matrix, k);
  };
  return out;
}

}  // namespace pardpp::serving
