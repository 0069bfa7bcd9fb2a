#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.hpp"

namespace llamp::serve {

/// `llamp serve`'s connection engine (DESIGN.md §8): a poll()-based
/// event loop on one IO thread plus one executor thread for analysis
/// requests.  The split is deliberate:
///
///  * the IO thread owns every socket — accepts, incremental request
///    parsing, response writes, keep-alive bookkeeping — and answers
///    *inline* routes (/healthz, /metrics) directly, so the daemon stays
///    observable while a long campaign runs;
///  * the executor thread runs *queued* routes (the /v1/* analysis
///    endpoints) strictly one at a time, in dispatch order, on the shared
///    api::Engine.  A request's own `threads` field is its only
///    parallelism: the engine fans a sweep's points or an mc run's
///    samples out over threads started for that request.  A response's
///    bytes depend only on its request's bytes, never on connection
///    interleaving or thread counts.
///
/// Admission control: at most `max_inflight` queued-route requests may be
/// dispatched-but-unanswered at once; the next one is rejected
/// immediately with 503 + Retry-After (the connection stays usable).
/// Per connection, requests are handled strictly serially: pipelined
/// bytes wait in the read buffer until the previous response is written.
///
/// Graceful drain: request_shutdown() (async-signal-safe; call it from a
/// SIGTERM/SIGINT handler) makes the loop stop accepting, close idle
/// connections, finish every dispatched request, flush every pending
/// response, and return from run().  The owner then flushes traces and
/// metrics and exits 0.
class Server {
 public:
  /// How a route runs: inline on the IO thread (cheap, must not block) or
  /// queued onto the executor (analysis work).
  enum class Dispatch { kInline, kQueued };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Route {
    std::string method;  ///< "GET" | "POST"
    std::string path;    ///< exact-match target, e.g. "/v1/analyze"
    Dispatch dispatch = Dispatch::kQueued;
    Handler handler;
  };

  struct Options {
    /// Bind address.  The default stays loopback-only: exposing an
    /// analysis engine on all interfaces is an explicit decision.
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral (query with port())
    int max_inflight = 64;   ///< dispatched-but-unanswered queued requests
    HttpLimits limits;
  };

  /// Monotonic counters, written by the IO thread, readable from any
  /// thread (relaxed atomics; side channel only, never response bytes).
  struct Stats {
    std::uint64_t connections = 0;     ///< accepted sockets
    std::uint64_t requests = 0;        ///< fully parsed requests
    std::uint64_t responses = 0;       ///< responses written (all statuses)
    std::uint64_t rejected = 0;        ///< 503 admission rejections
    std::uint64_t protocol_errors = 0; ///< 4xx from the parser / router
  };

  Server(Options opts, std::vector<Route> routes);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the IO and executor threads.  Throws
  /// llamp::Error when the socket cannot be bound.
  void start();

  /// The bound port (after start(); useful with port 0).
  std::uint16_t port() const { return bound_port_; }

  /// Trigger graceful drain.  Async-signal-safe: one write(2) to the
  /// loop's wakeup pipe.  Idempotent.
  void request_shutdown();

  /// Block until the drain completes and both threads have joined.
  void join();

  Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::string in;   ///< unparsed request bytes
    std::string out;  ///< unwritten response bytes
    bool awaiting = false;          ///< queued request dispatched
    bool pending_keep_alive = true; ///< keep-alive of the awaited request
    bool close_after_flush = false;
    bool stop_parsing = false;  ///< poisoned by a protocol error
  };

  struct Job {
    std::uint64_t conn_id = 0;
    bool keep_alive = true;
    const Route* route = nullptr;
    HttpRequest request;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    HttpResponse response;
  };

  void io_loop();
  void executor_loop();
  void accept_new_connections();
  void handle_readable(std::uint64_t id, Conn& conn);
  void parse_and_dispatch(std::uint64_t id, Conn& conn);
  /// Route one parsed request: returns true when it was queued (the
  /// connection must wait), false when a response was emitted inline.
  bool route_request(std::uint64_t id, Conn& conn, HttpRequest&& req);
  void send_response(Conn& conn, HttpResponse res);
  void flush_writes(Conn& conn);
  void apply_completions();
  void close_conn(std::uint64_t id);
  const Route* find_route(const std::string& method, const std::string& path,
                          bool& path_known,
                          std::string& allowed_methods) const;

  Options opts_;
  std::vector<Route> routes_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::uint16_t bound_port_ = 0;

  std::thread io_thread_;
  std::thread executor_thread_;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;    // IO thread only
  int inflight_ = 0;         // IO thread only: dispatched, not yet answered
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;  // IO thread only

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> jobs_;
  bool executor_stop_ = false;

  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_responses_{0};
  std::atomic<std::uint64_t> stat_rejected_{0};
  std::atomic<std::uint64_t> stat_protocol_errors_{0};
};

}  // namespace llamp::serve
