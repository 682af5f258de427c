// The gearsim daemon: a Service behind an AF_UNIX stream socket.
//
// Line protocol: clients write one request per line, the daemon answers
// one response line per request on the same connection (any number of
// round trips per connection; EOF ends it).  Threading is
// thread-per-connection — simulation time dwarfs thread setup by orders
// of magnitude, and the Service underneath already bounds concurrent
// simulation work through its admission gate.  The accept loop joins
// the threads of closed connections, so live threads track open
// connections.
//
// Lifecycle: start() binds (replacing any stale socket file), listens
// and spawns the accept loop; a client's shutdown request — or a local
// request_stop() — stops accepting and wakes wait(); stop() joins every
// thread and removes the socket file.  Unix-only: on other platforms
// start() throws and `gearsim serve` reports the error (the Service and
// protocol layers stay fully portable/testable).
// See docs/SERVICE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gearsim::serve {

class Service;

class Daemon {
 public:
  struct Options {
    std::string socket_path = "gearsim.sock";
  };

  /// `service` must outlive the daemon.
  Daemon(Service& service, Options options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen + start accepting.  Throws ContractError when the
  /// socket cannot be created (or on non-Unix platforms).
  void start();

  /// Block until a shutdown request arrives (or request_stop is called).
  void wait();

  /// Stop accepting and wake wait(); safe from any thread, including a
  /// connection thread that just answered a shutdown request.
  void request_stop();

  /// Join every thread and remove the socket file.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  void accept_loop();
  void serve_connection(int fd);

  Service& service_;
  Options options_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mutex_;  // Guards connections_, finished_ and the stop cv.
  std::condition_variable stopped_cv_;
  /// One thread per open connection, plus any that finished since the
  /// last accept.
  std::list<std::thread> connections_;
  /// Connections whose thread has left serve_connection; the accept loop
  /// joins and drops them, so threads and their stacks do not pile up in
  /// a long-lived daemon.
  std::vector<std::list<std::thread>::iterator> finished_;
};

}  // namespace gearsim::serve
