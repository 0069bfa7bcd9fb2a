#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace llamp::serve {

/// A minimal blocking HTTP/1.1 client for driving a Server from tests and
/// the repository benchmark's serve workload (perfbench/).  One Client is one
/// TCP connection; issuing several requests on it exercises keep-alive.
/// Not a general client: it speaks exactly the subset the server emits
/// (Content-Length framing, no chunked encoding) and trusts the peer to
/// be the in-process daemon.
class Client {
 public:
  /// Connect (blocking, with a receive timeout so a wedged server fails a
  /// test instead of hanging it).  Throws llamp::Error on failure.
  Client(const std::string& host, std::uint16_t port);
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Result {
    int status = 0;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;  ///< lowercased names
    const std::string* header(const std::string& name) const;
  };

  /// Send one request and read its full response.  `extra_headers` are
  /// emitted verbatim (e.g. "Connection: close").  Throws llamp::Error on
  /// a connection failure or an unparseable response.
  Result request(const std::string& method, const std::string& path,
                 const std::string& body = "",
                 const std::vector<std::string>& extra_headers = {});
  Result get(const std::string& path) { return request("GET", path); }
  Result post(const std::string& path, const std::string& body) {
    return request("POST", path, body);
  }

  /// Escape hatches for malformed-input tests: push arbitrary bytes, read
  /// whatever comes back until the server closes, or just disconnect.
  void send_raw(const std::string& bytes);
  std::string read_until_close();
  void shutdown_send();  ///< half-close: no more request bytes will come

 private:
  int fd_ = -1;
};

}  // namespace llamp::serve
