#include "service/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <iterator>
#include <system_error>
#include <utility>

namespace rtl {

namespace {

/// Shape any exception into an ErrorMsg for the echoed request id.
ErrorMsg to_error_msg(std::uint64_t request_id, std::exception_ptr error) {
  ErrorMsg msg;
  msg.request_id = request_id;
  try {
    std::rethrow_exception(error);
  } catch (const ServiceError& e) {
    msg.code = e.code();
    msg.message = e.what();
  } catch (const std::exception& e) {
    msg.code = ServiceErrc::kInternal;
    msg.message = e.what();
  } catch (...) {
    msg.code = ServiceErrc::kInternal;
    msg.message = "unknown error";
  }
  if (msg.message.size() > kMaxErrorMessageLength) {
    msg.message.resize(kMaxErrorMessageLength);
  }
  return msg;
}

}  // namespace

void ServiceServer::SessionWriter::send(const ServiceMessage& msg) noexcept {
  const std::lock_guard<std::mutex> lock(mutex);
  if (!open) return;
  try {
    send_frame(sock, msg);
  } catch (...) {
    open = false;  // peer vanished; remaining replies have no reader
  }
}

ServiceServer::ServiceServer(SolveService& service, std::string socket_path,
                             int backlog)
    : service_(service),
      path_(std::move(socket_path)),
      listener_(listen_unix(path_, backlog)) {
  listen_thread_ = std::thread([this] { listen_loop(); });
}

ServiceServer::~ServiceServer() { stop(); }

std::size_t ServiceServer::live_sessions() const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

void ServiceServer::listen_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Every pass either accepts or follows a 100 ms poll timeout, so this
    // runs before each accept and on each tick.
    reap_finished_sessions();
    try {
      if (!wait_readable(listener_, 100)) continue;
      Socket sock = accept_unix(listener_);
      if (!sock.valid()) continue;
      auto writer = std::make_shared<SessionWriter>(std::move(sock));
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (stopped_ || stopping_.load(std::memory_order_relaxed)) break;
      accepted_.fetch_add(1, std::memory_order_relaxed);
      Session& session = sessions_.emplace_back();
      session.writer = writer;
      try {
        session.thread =
            std::thread([this, &session, writer = std::move(writer)]() mutable {
              session_loop(std::move(writer));
              session.finished.store(true, std::memory_order_release);
            });
      } catch (const std::system_error&) {
        // No thread for this connection: dropping its only writer closes
        // the socket, and the listener keeps serving the others.
        sessions_.pop_back();
      }
    } catch (const ServiceError&) {
      if (!stopping_.load(std::memory_order_relaxed)) continue;
      break;
    }
  }
}

void ServiceServer::reap_finished_sessions() {
  std::list<Session> finished;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto next = std::next(it);
      if (it->finished.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), sessions_, it);
      }
      it = next;
    }
  }
  // Each of these threads has left its loop; the joins return at once.
  for (Session& session : finished) session.thread.join();
}

void ServiceServer::session_loop(std::shared_ptr<SessionWriter> writer) {
  const SolveService::SessionId session = service_.open_session();
  for (;;) {
    ServiceMessage msg;
    try {
      if (!recv_frame(writer->sock, msg)) break;  // clean disconnect
    } catch (const ServiceError& e) {
      // Malformed frame: the stream is no longer synchronized, so reply
      // (request id unknowable) and drop the connection.
      writer->send(ErrorMsg{0, e.code(), e.what()});
      break;
    }
    dispatch(writer, session, msg);
  }
  service_.close_session(session);
  const std::lock_guard<std::mutex> lock(writer->mutex);
  writer->open = false;
}

void ServiceServer::dispatch(const std::shared_ptr<SessionWriter>& writer,
                             SolveService::SessionId session,
                             const ServiceMessage& msg) {
  const std::uint64_t request_id = message_request_id(msg);
  try {
    if (const auto* upload = std::get_if<UploadMatrixMsg>(&msg)) {
      service_.upload_matrix(
          session, upload->matrix_id, upload->matrix,
          static_cast<int>(upload->ilu_level),
          [writer, request_id](std::exception_ptr error) {
            if (error) {
              writer->send(to_error_msg(request_id, error));
            } else {
              writer->send(AckMsg{request_id});
            }
          });
    } else if (const auto* open = std::get_if<OpenWorkloadMsg>(&msg)) {
      service_.open_workload(
          session, open->matrix_id, open->name,
          static_cast<int>(open->ilu_level),
          [writer, request_id](std::exception_ptr error) {
            if (error) {
              writer->send(to_error_msg(request_id, error));
            } else {
              writer->send(AckMsg{request_id});
            }
          });
    } else if (const auto* solve = std::get_if<SolveMsg>(&msg)) {
      service_.solve(session, solve->matrix_id, solve->rhs,
                     [writer, request_id](std::vector<real_t> x,
                                          std::exception_ptr error) {
                       if (error) {
                         writer->send(to_error_msg(request_id, error));
                       } else {
                         writer->send(
                             SolveResultMsg{request_id, std::move(x)});
                       }
                     });
    } else if (std::holds_alternative<GetMetricsMsg>(msg)) {
      writer->send(MetricsResultMsg{request_id, service_.metrics()});
    } else {
      // A reply type arriving at the server is a confused client.
      throw ServiceError(ServiceErrc::kBadRequest,
                         "service: reply message sent as a request");
    }
  } catch (...) {
    // Admission rejection (kRejected / kShuttingDown) or a bad request:
    // typed error reply on the reader thread, connection stays up.
    writer->send(to_error_msg(request_id, std::current_exception()));
  }
}

void ServiceServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // 1. Stop accepting.
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_thread_.joinable()) listen_thread_.join();
  listener_.close();
  ::unlink(path_.c_str());
  // 2. Drain the service: everything admitted completes and its replies
  //    are written through still-open writers.
  service_.shutdown();
  // 3+4. Wake blocked readers and join them.
  std::list<Session> sessions;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (const Session& session : sessions) {
    if (const auto writer = session.writer.lock()) {
      const std::lock_guard<std::mutex> lock(writer->mutex);
      if (writer->sock.valid()) {
        ::shutdown(writer->sock.fd(), SHUT_RDWR);
      }
    }
  }
  for (Session& session : sessions) session.thread.join();
}

}  // namespace rtl
