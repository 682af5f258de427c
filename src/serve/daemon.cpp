#include "serve/daemon.hpp"

#include <utility>

#include "serve/service.hpp"
#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace gearsim::serve {

Daemon::Daemon(Service& service, Options options)
    : service_(service), options_(std::move(options)) {}

Daemon::~Daemon() { stop(); }

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Read the next line, without its '\n'.  Reads in blocks; `pending`
/// keeps the bytes past the newline for the next call, so a client may
/// send several lines at once.  Returns false on EOF-before-any-byte
/// (clean close) and on read errors; a partial line without a newline is
/// delivered as-is so a client that forgets the terminator still gets an
/// answer before EOF ends the connection.
bool read_line(int fd, std::string& pending, std::string& line) {
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = pending.find('\n', scanned);
    if (newline != std::string::npos) {
      line.assign(pending, 0, newline);
      pending.erase(0, newline + 1);
      return true;
    }
    scanned = pending.size();
    char block[4096];
    const ssize_t n = ::read(fd, block, sizeof(block));
    if (n > 0) {
      pending.append(block, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      line = std::exchange(pending, {});
      return !line.empty();
    }
    if (errno == EINTR) continue;
    return false;
  }
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

void Daemon::start() {
  GEARSIM_REQUIRE(!running_.load(std::memory_order_acquire),
                  "daemon already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GEARSIM_REQUIRE(options_.socket_path.size() < sizeof(addr.sun_path),
                  "socket path too long: " + options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GEARSIM_REQUIRE(listen_fd_ >= 0,
                  std::string("socket(): ") + std::strerror(errno));
  // A previous daemon may have died without cleanup; the bind below
  // would fail on its stale socket file, so remove it first.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    GEARSIM_REQUIRE(false, "bind/listen " + options_.socket_path + ": " + error);
  }

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or broken) — stop accepting.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    std::vector<std::thread> done;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto it : finished_) {
        done.push_back(std::move(*it));
        connections_.erase(it);
      }
      finished_.clear();
      const auto it = connections_.emplace(connections_.end());
      // Assigned under the lock, so the thread cannot report itself
      // finished before its slot holds it.
      *it = std::thread([this, fd, it] {
        serve_connection(fd);
        const std::lock_guard<std::mutex> finished_lock(mutex_);
        finished_.push_back(it);
      });
    }
    // Each of these has returned from serve_connection, so joining is
    // brief; it releases the thread's stack now, not at stop().
    for (std::thread& t : done) t.join();
  }
  running_.store(false, std::memory_order_release);
  stopped_cv_.notify_all();
}

void Daemon::serve_connection(int fd) {
  std::string pending;
  std::string line;
  while (read_line(fd, pending, line)) {
    std::string response = service_.handle_line(line);
    response += '\n';
    if (!write_all(fd, response)) break;
    if (service_.shutdown_requested()) {
      // The shutdown answer is already on the wire; tear the listener
      // down so wait() returns and no new connections land.
      request_stop();
      break;
    }
  }
  ::close(fd);
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_cv_.wait(lock, [this] {
    return !running_.load(std::memory_order_acquire);
  });
}

void Daemon::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    // Wakes the blocked accept() with an error; the loop then exits and
    // flips running_.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void Daemon::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone, so only this thread takes from the list; a
  // connection still running may yet append to finished_, which is
  // therefore cleared only after every join.
  std::list<std::thread> connections;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

#else  // !(__unix__ || __APPLE__)

void Daemon::start() {
  GEARSIM_REQUIRE(false, "gearsim daemon requires AF_UNIX sockets");
}
void Daemon::accept_loop() {}
void Daemon::serve_connection(int) {}
void Daemon::wait() {}
void Daemon::request_stop() {}
void Daemon::stop() {}

#endif

}  // namespace gearsim::serve
