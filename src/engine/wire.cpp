#include "engine/wire.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::engine {

namespace {

/// Anything larger than this is a corrupt frame, not a real payload (the
/// largest legitimate message is a RunResult trace, well under a MB).
constexpr std::uint32_t kMaxPayload = 256u * 1024u * 1024u;

bool writeAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool readAll(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-frame
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Sequential key=value line parser backing the spec decoder: the walker
/// dictates the field order, the decoder verifies each line's key and
/// hands back its value.
class SpecDecoder final : public SpecFieldVisitor {
 public:
  explicit SpecDecoder(std::istream& in) : in_(in) {}

  void field(const char* key, int& value) override {
    value = static_cast<int>(parseLong(key));
  }
  void field(const char* key, bool& value) override {
    value = parseLong(key) != 0;
  }
  void field(const char* key, double& value) override {
    const std::string text = take(key);
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty(),
                  "wire spec: bad double for '" + std::string(key) + "'");
  }
  void field(const char* key, std::uint64_t& value) override {
    const std::string text = take(key);
    char* end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty(),
                  "wire spec: bad uint64 for '" + std::string(key) + "'");
  }
  void field(const char* key, std::string& value) override {
    value = take(key);
  }

 private:
  long parseLong(const char* key) {
    const std::string text = take(key);
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty(),
                  "wire spec: bad integer for '" + std::string(key) + "'");
    return value;
  }

  std::string take(const char* key) {
    std::string line;
    HAYAT_REQUIRE(std::getline(in_, line),
                  "wire spec: truncated at '" + std::string(key) + "'");
    const std::string prefix = std::string(key) + '=';
    HAYAT_REQUIRE(line.compare(0, prefix.size(), prefix) == 0,
                  "wire spec: expected '" + std::string(key) + "', got '" +
                      line + "'");
    return line.substr(prefix.size());
  }

  std::istream& in_;
};

/// Mirrors the signature writer, reused for the wire encoding so both
/// stay in lockstep with the canonical walk.
class SpecEncoder final : public SpecFieldVisitor {
 public:
  explicit SpecEncoder(std::ostream& out) : out_(out) {}

  void field(const char* key, double& value) override {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << key << '=' << buf << '\n';
  }
  void field(const char* key, int& value) override {
    out_ << key << '=' << value << '\n';
  }
  void field(const char* key, bool& value) override {
    out_ << key << '=' << (value ? 1 : 0) << '\n';
  }
  void field(const char* key, std::uint64_t& value) override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ << key << '=' << buf << '\n';
  }
  void field(const char* key, std::string& value) override {
    out_ << key << '=' << value << '\n';
  }

 private:
  std::ostream& out_;
};

int parseIndexLine(std::istream& in, const char* what) {
  std::string line;
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("index=", 0) == 0,
                std::string(what) + ": missing index line");
  return std::stoi(line.substr(6));
}

telemetry::Counter& messagesSentTotal =
    telemetry::Registry::global().counter("hayat_wire_messages_sent_total");
telemetry::Counter& bytesSentTotal =
    telemetry::Registry::global().counter("hayat_wire_bytes_sent_total");
telemetry::Counter& messagesReceivedTotal =
    telemetry::Registry::global().counter("hayat_wire_messages_received_total");
telemetry::Counter& bytesReceivedTotal =
    telemetry::Registry::global().counter("hayat_wire_bytes_received_total");

}  // namespace

bool writeMessage(int fd, MsgType type, const std::string& payload) {
  if (payload.size() > kMaxPayload) return false;
  // Fault-injection hook (tests only; one relaxed load when inactive).
  // A Drop reports success without touching the socket — the peer sees
  // the same silence as a lost frame.  A Corrupt keeps the framing valid
  // but mangles the payload so the peer hits a decode error, not a
  // framing error.
  std::string mangled;
  const std::string* body = &payload;
  if (faultsInstalled()) {
    switch (nextWriteFault()) {
      case WriteFault::None:
        break;
      case WriteFault::Drop:
        return true;
      case WriteFault::Corrupt:
        mangled = payload;
        if (mangled.empty()) mangled = "!";
        for (std::size_t i = 0; i < mangled.size() && i < 16; ++i)
          mangled[i] = static_cast<char>(mangled[i] ^ 0x5A);
        body = &mangled;
        break;
    }
  }
  const std::uint32_t size = static_cast<std::uint32_t>(body->size());
  char header[8];
  header[0] = 'H';
  header[1] = 'W';
  header[2] = static_cast<char>(kWireVersion);
  header[3] = static_cast<char>(type);
  header[4] = static_cast<char>((size >> 24) & 0xFF);
  header[5] = static_cast<char>((size >> 16) & 0xFF);
  header[6] = static_cast<char>((size >> 8) & 0xFF);
  header[7] = static_cast<char>(size & 0xFF);
  const bool ok = writeAll(fd, header, sizeof(header)) &&
                  writeAll(fd, body->data(), body->size());
  if (ok && telemetry::enabled()) {
    messagesSentTotal.add();
    bytesSentTotal.add(sizeof(header) + body->size());
  }
  return ok;
}

bool readMessage(int fd, Message& out) {
  char header[8];
  if (!readAll(fd, header, sizeof(header))) return false;
  if (header[0] != 'H' || header[1] != 'W' ||
      static_cast<std::uint8_t>(header[2]) != kWireVersion)
    return false;
  const std::uint32_t size =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[4]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[5]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[6]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[7]));
  if (size > kMaxPayload) return false;
  out.type = static_cast<MsgType>(header[3]);
  out.payload.resize(size);
  if (size != 0 && !readAll(fd, out.payload.data(), size)) return false;
  if (telemetry::enabled()) {
    messagesReceivedTotal.add();
    bytesReceivedTotal.add(sizeof(header) + size);
  }
  return true;
}

bool readMessage(int fd, Message& out, int timeoutMs, bool& timedOut) {
  timedOut = false;
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeoutMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      timedOut = true;
      return false;
    }
    break;
  }
  return readMessage(fd, out);
}

std::string encodeSpec(const ExperimentSpec& spec) {
  HAYAT_REQUIRE(!spec.lifetime.fixedMix.has_value(),
                "fixed-mix specs have no canonical serialization and cannot "
                "be dispatched to workers");
  std::ostringstream out;
  out << "spec.name=" << spec.name << '\n';
  SpecEncoder enc(out);
  ExperimentSpec copy = spec;
  visitSpecFields(copy, enc);
  return out.str();
}

ExperimentSpec decodeSpec(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("spec.name=", 0) == 0,
                "wire spec: missing spec.name line");
  ExperimentSpec spec;
  spec.name = line.substr(10);
  SpecDecoder dec(in);
  try {
    visitSpecFields(spec, dec);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    throw Error(std::string("wire spec: ") + e.what());
  }
  HAYAT_REQUIRE(!std::getline(in, line), "wire spec: trailing data");
  return spec;
}

std::string encodeTask(int index, std::uint64_t hash) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "index=%d\nhash=%016" PRIx64 "\n", index,
                hash);
  return buf;
}

void decodeTask(const std::string& payload, int& index,
                std::uint64_t& hash) {
  std::istringstream in(payload);
  index = parseIndexLine(in, "wire task");
  std::string line;
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("hash=", 0) == 0,
                "wire task: missing hash line");
  hash = std::strtoull(line.c_str() + 5, nullptr, 16);
}

std::string encodeResult(int index, const RunResult& result,
                         const std::string& metricsText) {
  std::ostringstream out;
  out << "index=" << index << '\n';
  writeRunResult(out, result);
  if (!metricsText.empty()) {
    long lines = 0;
    for (const char c : metricsText)
      if (c == '\n') ++lines;
    out << "metrics," << lines << '\n' << metricsText;
  }
  return out.str();
}

void decodeResult(const std::string& payload, int& index, RunResult& result,
                  telemetry::MetricDeltas* metricDeltas) {
  std::istringstream in(payload);
  index = parseIndexLine(in, "wire result");
  HAYAT_REQUIRE(readRunResult(in, result), "wire result: malformed run record");
  if (metricDeltas != nullptr) metricDeltas->clear();

  std::string line;
  if (!std::getline(in, line)) return;  // no metrics section
  HAYAT_REQUIRE(line.rfind("metrics,", 0) == 0,
                "wire result: trailing data is not a metrics section");
  char* end = nullptr;
  const long lines = std::strtol(line.c_str() + 8, &end, 10);
  HAYAT_REQUIRE(end == line.c_str() + line.size() && lines >= 0,
                "wire result: bad metrics line count");
  std::string text;
  for (long i = 0; i < lines; ++i) {
    HAYAT_REQUIRE(std::getline(in, line),
                  "wire result: truncated metrics section");
    text += line + '\n';
  }
  HAYAT_REQUIRE(!std::getline(in, line),
                "wire result: trailing data after metrics section");
  telemetry::MetricDeltas deltas;
  HAYAT_REQUIRE(telemetry::decodeMetricDeltas(text, deltas),
                "wire result: malformed metrics section");
  if (metricDeltas != nullptr) *metricDeltas = std::move(deltas);
}

std::string encodeCachePush(const std::string& specName, std::uint64_t hash,
                            const std::string& fileBytes) {
  std::ostringstream out;
  char buf[80];
  std::snprintf(buf, sizeof(buf), "hash=%016" PRIx64 "\nbytes=%zu\n", hash,
                fileBytes.size());
  out << "cache.version=" << kCacheFormatVersion << '\n'
      << "name=" << specName << '\n'
      << buf << fileBytes;
  return out.str();
}

void decodeCachePush(const std::string& payload, std::string& specName,
                     std::uint64_t& hash, std::string& fileBytes) {
  std::istringstream in(payload);
  std::string line;
  HAYAT_REQUIRE(
      std::getline(in, line) && line.rfind("cache.version=", 0) == 0,
      "wire cache-push: missing cache.version line");
  char* end = nullptr;
  const long version = std::strtol(line.c_str() + 14, &end, 10);
  HAYAT_REQUIRE(end == line.c_str() + line.size(),
                "wire cache-push: bad cache.version");
  HAYAT_REQUIRE(version == kCacheFormatVersion,
                "wire cache-push: cache format v" + std::to_string(version) +
                    " does not match this build's v" +
                    std::to_string(kCacheFormatVersion));
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("name=", 0) == 0,
                "wire cache-push: missing name line");
  specName = line.substr(5);
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("hash=", 0) == 0,
                "wire cache-push: missing hash line");
  hash = std::strtoull(line.c_str() + 5, nullptr, 16);
  HAYAT_REQUIRE(std::getline(in, line) && line.rfind("bytes=", 0) == 0,
                "wire cache-push: missing bytes line");
  end = nullptr;
  const unsigned long long count =
      std::strtoull(line.c_str() + 6, &end, 10);
  HAYAT_REQUIRE(end == line.c_str() + line.size(),
                "wire cache-push: bad byte count");
  const std::size_t offset = static_cast<std::size_t>(in.tellg());
  HAYAT_REQUIRE(payload.size() - offset == count,
                "wire cache-push: byte count does not match payload");
  fileBytes = payload.substr(offset);
}

std::string encodeTaskError(int index, const std::string& message) {
  std::ostringstream out;
  out << "index=" << index << '\n';
  // Keep the payload one-line-parseable even for multi-line what()s.
  for (const char c : message) out << (c == '\n' ? ' ' : c);
  out << '\n';
  return out.str();
}

void decodeTaskError(const std::string& payload, int& index,
                     std::string& message) {
  std::istringstream in(payload);
  index = parseIndexLine(in, "wire task-error");
  std::getline(in, message);
}

}  // namespace hayat::engine
