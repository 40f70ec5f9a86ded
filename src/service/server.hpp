#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/socket.hpp"
#include "service/solve_service.hpp"

/// Socket front-end for a `SolveService`: one listener thread accepting
/// Unix-domain connections, one reader thread per connection.
///
/// A reader thread marks its session finished when its loop ends (the
/// peer closed, or sent a malformed frame). The listener joins finished
/// threads and forgets their writers before each accept and on each
/// 100 ms poll tick, so a closed connection holds no thread or stack for
/// longer than one tick. If a reader thread cannot be created, that one
/// connection is closed and the listener keeps going.
///
/// Each connection is one service session. The reader parses frames and
/// dispatches them into the service; completion callbacks (running on the
/// service's solver thread) write the replies. A per-connection write
/// mutex is the only synchronization between those two writers, and it
/// also provides the reply-path happens-before: the solver thread fills
/// the solution vector before invoking the callback, the callback encodes
/// and writes under the mutex, so bytes on the wire always observe the
/// completed solve.
///
/// `stop()` is the graceful-shutdown ordering the CLIs rely on:
///   1. stop accepting (listener thread joins),
///   2. `service.shutdown()` — new admissions refused, everything already
///      admitted drains, replies for in-flight work are written,
///   3. session sockets are shut down so blocked readers wake and exit,
///   4. reader threads join.
/// A client that submitted before the signal therefore still gets every
/// reply; a client that submits during the drain gets a typed
/// `kShuttingDown` error.
namespace rtl {

class ServiceServer {
 public:
  /// Binds and starts the listener immediately; throws
  /// ServiceError(kIoError) if the socket path cannot be bound.
  ServiceServer(SolveService& service, std::string socket_path,
                int backlog = 16);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return path_;
  }

  /// Lifetime count of accepted connections.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Connections whose reader thread has not been joined yet: the open
  /// ones, plus closed ones the listener has not reaped (at most one poll
  /// tick old).
  [[nodiscard]] std::size_t live_sessions() const;

  /// Graceful shutdown (see file comment). Idempotent; also run by the
  /// destructor.
  void stop();

 private:
  /// Shared between the session reader and solver-thread callbacks; kept
  /// alive by shared_ptr until the last queued callback has run.
  struct SessionWriter {
    explicit SessionWriter(Socket s) : sock(std::move(s)) {}

    std::mutex mutex;
    Socket sock;
    bool open = true;  // guarded by mutex

    /// Serialize + write one reply; drops it silently once the connection
    /// is closed or a write fails (the peer is gone either way).
    void send(const ServiceMessage& msg) noexcept;
  };

  /// One accepted connection: its reader thread and its reply writer.
  struct Session {
    std::thread thread;
    std::weak_ptr<SessionWriter> writer;
    std::atomic<bool> finished{false};  // set by the reader as it exits
  };

  void listen_loop();
  /// Join the reader threads of finished sessions and drop their entries.
  void reap_finished_sessions();
  void session_loop(std::shared_ptr<SessionWriter> writer);
  /// Dispatch one parsed request into the service. Admission failures and
  /// per-request errors become ErrorMsg replies; never throws.
  void dispatch(const std::shared_ptr<SessionWriter>& writer,
                SolveService::SessionId session, const ServiceMessage& msg);

  SolveService& service_;
  std::string path_;
  Socket listener_;
  std::thread listen_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};

  mutable std::mutex sessions_mutex_;
  std::list<Session> sessions_;  // guarded by sessions_mutex_
  bool stopped_ = false;         // guarded by sessions_mutex_
};

}  // namespace rtl
