// Tiny blocking HTTP/1.1 client for the `hayat job` subcommands and the
// serve tests.
//
// One request per connection (the server answers `Connection: close`),
// fixed-length and chunked response bodies, and a streaming variant that
// hands each chunk to a callback as it arrives — the transport under
// `hayat job watch`, which tails a running job's result rows (the server
// frames exactly one result row per chunk).  Reuses the worker dialer
// (connectTcpWorker) so timeouts behave identically to the scheduler's.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace hayat::serve {

struct HttpClientResponse {
  int status = 0;
  /// Header name/value pairs; names are lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;  ///< de-chunked when the server streamed

  std::string header(const std::string& name) const;
};

/// Performs one request and reads the entire response.  Returns false on
/// connect/write/read failure or an unparsable response; HTTP error
/// statuses still return true (check `out.status`).  `timeoutMs` bounds
/// the connect and each read.
bool httpRequest(const std::string& host, int port, const std::string& method,
                 const std::string& target, const std::string& body,
                 const std::vector<std::pair<std::string, std::string>>&
                     headers,
                 HttpClientResponse& out, int timeoutMs = 10000);

/// Streaming GET: invokes `onChunk` once per received chunk (for the job
/// results endpoint: one result row per call).  Returns false on
/// transport failure, an unparsable response, or a stream the server
/// closed without the terminating zero chunk (a truncated stream — e.g.
/// the job was cancelled mid-watch); a non-200 status returns true with
/// no chunks delivered.  `onChunk` returning false aborts the stream
/// (returns true).  `idleTimeoutMs` bounds the wait for each read — a
/// tail of a long-running job should pass a generous value.
bool httpStream(const std::string& host, int port, const std::string& target,
                const std::vector<std::pair<std::string, std::string>>&
                    headers,
                const std::function<bool(const std::string&)>& onChunk,
                int& statusOut, int idleTimeoutMs = 300000);

/// Splits "host:port"; throws hayat::Error on malformed input.
void parseHostPort(const std::string& text, std::string& host, int& port);

}  // namespace hayat::serve
