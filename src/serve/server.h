#ifndef COPYDETECT_SERVE_SERVER_H_
#define COPYDETECT_SERVE_SERVER_H_

/// \file
/// The copydetectd transport: a local stream socket (AF_UNIX) serving
/// the newline-delimited JSON protocol of serve/wire.h over a
/// SessionManager. One thread per connection, joined at the next
/// accept once the connection closes; requests on one connection are
/// handled in order, connections are independent.
/// Reads scale because `query` is an atomic snapshot load in the
/// manager — connection threads never contend on session state.
///
/// Verb dispatch (protocol reference in docs/SERVER.md):
///   open   — generate data, run initial fusion, start serving
///   query  — the session's latest published report
///   update — apply a DatasetDelta batch (blocks until published)
///   save   — persist to the manager's state directory
///   stats  — manager-wide or per-session serving statistics
///   close  — drain and drop a session

#include <memory>
#include <string>

#include "copydetect/session_manager.h"

namespace copydetect {
namespace serve {

struct ServerOptions {
  /// Filesystem path of the listening socket. Bound at Start (a stale
  /// file from a previous crashed daemon is unlinked first); unlinked
  /// again on Shutdown.
  std::string socket_path;

  SessionManagerOptions manager;
};

class Server {
 public:
  /// Recovers sessions (SessionManager::Start), binds and listens on
  /// options.socket_path and starts the accept thread. The returned
  /// server is live immediately.
  static StatusOr<std::unique_ptr<Server>> Start(
      const ServerOptions& options);

  /// Stops accepting, unblocks every connection, joins all threads,
  /// shuts the manager down (drains per-session queues; no implicit
  /// save). Idempotent. Called by the destructor.
  void Shutdown();

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  SessionManager& manager() { return *manager_; }
  const std::string& socket_path() const { return options_.socket_path; }

  /// One request line → one response line; the socket layer's whole
  /// brain, exposed for transport-free tests.
  std::string HandleLine(std::string_view line);

 private:
  struct Impl;

  Server(ServerOptions options,
         std::unique_ptr<SessionManager> manager);

  void AcceptLoop();
  void ServeConnection(int fd);

  ServerOptions options_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace copydetect

#endif  // COPYDETECT_SERVE_SERVER_H_
