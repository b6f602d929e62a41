#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/wire.h"

namespace copydetect {
namespace serve {

namespace {

/// write() the whole buffer, riding out short writes and EINTR.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// One accepted connection. Its thread sets `done` under Impl::mu
/// just before it closes `fd` and returns, so `fd` is open exactly
/// while `done` is false.
struct Connection {
  int fd = -1;
  bool done = false;
  std::thread thread;
};

}  // namespace

struct Server::Impl {
  int listen_fd = -1;
  std::thread accept_thread;
  std::atomic<bool> shutting_down{false};

  Mutex mu;
  /// Live connections, plus finished ones not yet reaped.
  std::vector<Connection> connections CD_GUARDED_BY(mu);
  bool shutdown_done CD_GUARDED_BY(mu) = false;

  /// Joins and drops the finished connections, so a served
  /// connection's thread stack is unmapped now instead of at Shutdown.
  /// A finished thread never takes `mu` again, so joining it here
  /// cannot deadlock.
  void ReapFinished() CD_REQUIRES(mu) {
    auto finished = std::partition(
        connections.begin(), connections.end(),
        [](const Connection& c) { return !c.done; });
    for (auto it = finished; it != connections.end(); ++it) {
      it->thread.join();
    }
    connections.erase(finished, connections.end());
  }
};

Server::Server(ServerOptions options,
               std::unique_ptr<SessionManager> manager)
    : options_(std::move(options)),
      manager_(std::move(manager)),
      impl_(std::make_unique<Impl>()) {}

Server::~Server() { Shutdown(); }

StatusOr<std::unique_ptr<Server>> Server::Start(
    const ServerOptions& options) {
  sockaddr_un addr{};
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket_path must be non-empty and shorter than " +
        std::to_string(sizeof(addr.sun_path)) + " bytes");
  }

  auto manager = SessionManager::Start(options.manager);
  if (!manager.ok()) return manager.status();

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  // A previous daemon instance that died without cleanup leaves the
  // socket file behind; binding over it needs the unlink.
  ::unlink(options.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    Status status = Status::IOError("binding '" + options.socket_path +
                                    "' failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }

  std::unique_ptr<Server> server(
      new Server(options, std::move(*manager)));  // cd-lint: allow(banned-new-delete) private ctor blocks make_unique; ownership is immediate
  server->impl_->listen_fd = fd;
  Server* raw = server.get();
  server->impl_->accept_thread = std::thread([raw] { raw->AcceptLoop(); });
  return server;
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or broken) — stop accepting
    }
    MutexLock lock(impl_->mu);
    if (impl_->shutting_down.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    impl_->ReapFinished();
    Connection& connection = impl_->connections.emplace_back();
    connection.fd = fd;
    connection.thread = std::thread([this, fd] { ServeConnection(fd); });
  }
}

void Server::ServeConnection(int fd) {
  // A request line longer than this cannot be legitimate traffic; an
  // unbounded line buffer would let one misbehaving client grow
  // server memory without ever sending a newline. The oversized line
  // is answered with the usual {"ok":false} envelope and drained to
  // its terminating newline — the connection stays up and framed.
  constexpr size_t kMaxLineBytes = 1 << 20;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  bool discarding = false;
  while (open) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or our Shutdown shut the fd)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (open &&
           (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (discarding) {
        // Tail of an oversized line that was already answered.
        discarding = false;
        continue;
      }
      std::string response = HandleLine(line);
      response += '\n';
      if (!WriteAll(fd, response)) open = false;
    }
    if (open && !discarding && buffer.size() > kMaxLineBytes) {
      discarding = true;
      std::string response = ErrorResponse(Status::InvalidArgument(
          "request line exceeds " + std::to_string(kMaxLineBytes) +
          " bytes"));
      response += '\n';
      if (!WriteAll(fd, response)) open = false;
    }
    // Memory stays bounded while the oversized line drains; the next
    // newline still terminates it because the inner loop consumed
    // every newline already in the buffer.
    if (discarding) buffer.clear();
  }
  // Done before close: once the fd number can be reused, Shutdown no
  // longer shuts it down. The entry is missing when Shutdown has
  // already taken it.
  {
    MutexLock lock(impl_->mu);
    for (Connection& connection : impl_->connections) {
      if (connection.fd == fd && !connection.done) {
        connection.done = true;
        break;
      }
    }
  }
  ::close(fd);
}

std::string Server::HandleLine(std::string_view line) {
  auto request = ParseRequest(line);
  if (!request.ok()) return ErrorResponse(request.status());
  const std::string& verb = request->verb;

  // Verbs that need an attached session share the lookup.
  auto attach = [&]() -> StatusOr<SessionRef> {
    if (request->session.empty()) {
      return Status::InvalidArgument("verb \"" + verb +
                                     "\" needs a \"session\" field");
    }
    return manager_->Attach(request->session);
  };

  if (verb == "open") {
    const JsonValue* data_spec = request->body.Find("data");
    if (data_spec == nullptr) {
      return ErrorResponse(Status::InvalidArgument(
          "open needs a \"data\" object (e.g. {\"generate\":\"book-cs\","
          "\"scale\":0.1,\"seed\":7})"));
    }
    auto world = WorldFromJson(*data_spec);
    if (!world.ok()) return ErrorResponse(world.status());
    SessionOptions session_options;
    bool n_provided = false;
    if (const JsonValue* opts = request->body.Find("options");
        opts != nullptr) {
      auto decoded = SessionOptionsFromJson(*opts);
      if (!decoded.ok()) return ErrorResponse(decoded.status());
      session_options = std::move(*decoded);
      n_provided = opts->Find("n") != nullptr;
    }
    // The generator knows its own false-value pool size; defaulting n
    // to it is what every example does.
    if (!n_provided) session_options.n = world->suggested_n;
    auto ref = manager_->Open(request->session, session_options,
                              world->data);
    if (!ref.ok()) return ErrorResponse(ref.status());
    auto snap = ref->report();
    return OkResponse(
        JsonValue::Object()
            .Set("session", JsonValue::Str(request->session))
            .Set("version", JsonValue::Uint64(snap->version))
            .Set("num_sources", JsonValue::Uint64(snap->num_sources))
            .Set("num_items", JsonValue::Uint64(snap->num_items)));
  }

  if (verb == "query") {
    auto ref = attach();
    if (!ref.ok()) return ErrorResponse(ref.status());
    auto snap = ref->report();
    // version stays OUTSIDE the report object: the report bytes are
    // the restart-stable payload (Report::ToJson's contract), while
    // version counts updates since this process opened/recovered the
    // session.
    return OkResponse(JsonValue::Object()
                          .Set("session", JsonValue::Str(ref->name()))
                          .Set("version", JsonValue::Uint64(snap->version))
                          .Set("report", JsonValue::Raw(snap->json)));
  }

  if (verb == "update") {
    auto ref = attach();
    if (!ref.ok()) return ErrorResponse(ref.status());
    auto delta = DeltaFromJson(request->body);
    if (!delta.ok()) return ErrorResponse(delta.status());
    const bool async = request->body.GetBool("async", false);
    Status applied = async ? ref->EnqueueUpdate(std::move(*delta))
                           : ref->Update(*delta);
    if (!applied.ok()) return ErrorResponse(applied);
    return OkResponse(
        JsonValue::Object()
            .Set("session", JsonValue::Str(ref->name()))
            .Set("version", JsonValue::Uint64(ref->report()->version))
            .Set("queued", JsonValue::Bool(async)));
  }

  if (verb == "save") {
    auto ref = attach();
    if (!ref.ok()) return ErrorResponse(ref.status());
    Status saved = ref->Save();
    if (!saved.ok()) return ErrorResponse(saved);
    return OkResponse(JsonValue::Object().Set(
        "session", JsonValue::Str(ref->name())));
  }

  if (verb == "close") {
    if (request->session.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "close needs a \"session\" field"));
    }
    Status closed = manager_->Close(request->session);
    if (!closed.ok()) return ErrorResponse(closed);
    return OkResponse(JsonValue::Object().Set(
        "session", JsonValue::Str(request->session)));
  }

  if (verb == "stats") {
    JsonValue sessions = JsonValue::Array();
    for (const std::string& name : manager_->Names()) {
      if (!request->session.empty() && request->session != name) {
        continue;
      }
      auto ref = manager_->Attach(name);
      if (!ref.ok()) continue;  // raced a Close; skip
      auto snap = ref->report();
      sessions.Append(
          JsonValue::Object()
              .Set("session", JsonValue::Str(name))
              .Set("version", JsonValue::Uint64(snap->version))
              .Set("detector", JsonValue::Str(snap->report.detector))
              .Set("num_sources", JsonValue::Uint64(snap->num_sources))
              .Set("num_items", JsonValue::Uint64(snap->num_items))
              .Set("num_observations",
                   JsonValue::Uint64(snap->num_observations))
              .Set("queue_depth", JsonValue::Uint64(ref->queue_depth()))
              .Set("rejected_updates",
                   JsonValue::Uint64(ref->rejected_updates())));
    }
    return OkResponse(
        JsonValue::Object().Set("sessions", std::move(sessions)));
  }

  return ErrorResponse(Status::InvalidArgument(
      "unknown verb \"" + verb +
      "\" — expected open, query, update, save, stats or close"));
}

void Server::Shutdown() {
  {
    MutexLock lock(impl_->mu);
    if (impl_->shutdown_done) return;
    impl_->shutdown_done = true;
  }
  impl_->shutting_down.store(true, std::memory_order_relaxed);
  // Unblock accept() — shutdown() makes it return, close() frees the
  // fd once the accept thread is done with it.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  ::unlink(options_.socket_path.c_str());

  // Unblock the live connections' reads, then join every thread. No
  // connection is added now: the accept thread is gone.
  std::vector<Connection> connections;
  {
    MutexLock lock(impl_->mu);
    for (const Connection& connection : impl_->connections) {
      if (!connection.done) ::shutdown(connection.fd, SHUT_RDWR);
    }
    connections.swap(impl_->connections);
  }
  for (Connection& connection : connections) connection.thread.join();

  manager_->Shutdown();
}

}  // namespace serve
}  // namespace copydetect
