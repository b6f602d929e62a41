#ifndef COPYDETECT_API_COPYDETECT_SESSION_MANAGER_H_
#define COPYDETECT_API_COPYDETECT_SESSION_MANAGER_H_

/// \file
/// The serving layer's public API — the second header of the facade
/// (the first is copydetect/session.h):
///
///   #include "copydetect/session_manager.h"
///
/// A SessionManager holds many named, long-lived sessions (one per
/// dataset/tenant) and gives each the concurrency shape a daemon
/// needs:
///
///  * **One writer.** Each session owns a single worker thread that
///    drains a bounded queue of Update batches in arrival order.
///    Producers (connection threads) block when the queue is full —
///    backpressure, not unbounded backlog.
///  * **Lock-free readers.** After every applied update the worker
///    publishes an immutable PublishedReport snapshot through an
///    atomic shared_ptr (RCU style). report() is one atomic load:
///    readers never block writers and never observe a half-applied
///    update — every snapshot they see is some exact prefix of the
///    update stream (tests/serve_concurrency_test.cc proves
///    bit-identity against prefix rebuilds).
///  * **Crash recovery.** With a state directory configured, Start()
///    scans it for `<name>.cdsnap` files and revives each as a
///    session (Session::Load), and SessionRef::Save() persists
///    atomically — a killed and restarted daemon serves byte-identical
///    reports (the serve-smoke CI leg kills -9 and byte-compares).
///
/// Stability: SessionManager, SessionRef, PublishedReport and
/// SessionManagerOptions are stable API (docs/API.md). The queue and
/// RCU machinery behind them are internal.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "copydetect/session.h"

namespace copydetect {

class ManagedSession;

/// Configuration for SessionManager::Start.
struct SessionManagerOptions {
  /// Directory for crash-recovery state: Start() revives every
  /// `<name>.cdsnap` inside it, SessionRef::Save() writes there.
  /// Empty disables persistence (Open works, Save is refused).
  std::string state_dir;

  /// Per-session bound on queued-but-unapplied Update batches;
  /// producers block once it is reached. >= 1.
  size_t queue_capacity = 64;

  /// LoadOptions::mode used when reviving snapshots at Start().
  LoadMode recovery_load_mode = LoadMode::kOwned;
};

/// The immutable snapshot a session's worker publishes after every
/// applied update. Readers hold it as shared_ptr<const ...>: the
/// snapshot (and the rendered JSON) stays valid for as long as the
/// reader keeps the pointer, no matter how many updates land
/// meanwhile.
struct PublishedReport {
  /// Updates applied since the session was opened or recovered (0 for
  /// the freshly opened/revived state).
  uint64_t version = 0;
  /// Report::ToJson of `report` against the data the report was
  /// computed from — rendered once, in the worker, at publish time,
  /// so a query never renders. It still copies: the daemon's `query`
  /// verb copies these bytes into its response line.
  std::string json;
  /// The structured report, copied at publish time.
  Report report;
  // Data-set shape at publish time (the evolving snapshot's).
  size_t num_sources = 0;
  size_t num_items = 0;
  size_t num_observations = 0;
};

/// A cheap, copyable handle on one managed session. Valid for as long
/// as the manager keeps the session open (and safe afterwards: calls
/// on a closed session return FailedPrecondition instead of touching
/// freed state).
class SessionRef {
 public:
  SessionRef() = default;

  bool valid() const { return session_ != nullptr; }
  const std::string& name() const;

  /// The latest published snapshot — one atomic shared_ptr load,
  /// never blocks, never null for a valid ref.
  std::shared_ptr<const PublishedReport> report() const;

  /// Enqueues `delta` and blocks until the worker has applied and
  /// published it (or rejected it — the returned Status is the
  /// worker's Session::Update status). Blocks earlier when the queue
  /// is full.
  Status Update(const DatasetDelta& delta);

  /// Fire-and-forget Update: returns once the delta is queued
  /// (blocking for space if needed). Apply errors surface in stats
  /// (rejected_updates) instead of to this caller.
  Status EnqueueUpdate(DatasetDelta delta);

  /// Persists the session to `<state_dir>/<name>.cdsnap` through the
  /// worker (so it serializes with updates), blocking until written.
  Status Save();

  // Serving statistics (approximate where concurrent).
  size_t queue_depth() const;
  uint64_t rejected_updates() const;

 private:
  friend class SessionManager;
  explicit SessionRef(std::shared_ptr<ManagedSession> session)
      : session_(std::move(session)) {}

  std::shared_ptr<ManagedSession> session_;
};

/// Owns the named sessions and their worker threads. Thread-safe:
/// Open/Attach/Close/Names may race each other and any SessionRef
/// call. Not movable (workers hold a pointer back to their session;
/// the manager pins the registry).
class SessionManager {
 public:
  /// Builds a manager and, when options.state_dir is set and exists,
  /// revives every `<name>.cdsnap` in it (deterministic filename
  /// order). A missing state_dir is "no state yet", not an error; an
  /// unreadable or corrupt snapshot is an error (fail closed — a
  /// daemon silently dropping a tenant's state would be worse than
  /// refusing to start).
  static StatusOr<std::unique_ptr<SessionManager>> Start(
      const SessionManagerOptions& options);

  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates session `name`, runs the initial fusion on `data`,
  /// publishes version 0 and starts the writer worker.
  /// `session_options.online_updates` is forced on (a served session
  /// must accept updates). Names must match [A-Za-z0-9_-]+ (they
  /// become filenames). AlreadyExists when the name is taken.
  StatusOr<SessionRef> Open(const std::string& name,
                            SessionOptions session_options,
                            const Dataset& data);

  /// A ref on an already-open session; NotFound otherwise.
  StatusOr<SessionRef> Attach(const std::string& name) const;

  /// Closes `name`: the queue stops accepting work, the worker drains
  /// what was already queued and exits, and the name becomes free.
  /// Does NOT save — call SessionRef::Save() first if the state
  /// should survive. Outstanding SessionRefs stay safe to call (their
  /// operations return FailedPrecondition).
  Status Close(const std::string& name);

  /// Open session names, sorted.
  std::vector<std::string> Names() const;

  /// Closes every session (drain + join, no implicit save).
  /// Idempotent; called by the destructor.
  void Shutdown();

  const SessionManagerOptions& options() const { return options_; }

 private:
  explicit SessionManager(SessionManagerOptions options);

  StatusOr<SessionRef> OpenFromLoaded(const std::string& name,
                                      Session session);

  SessionManagerOptions options_;
  /// Registry state lives behind a pimpl so this public header pulls
  /// in no mutex/queue machinery (docs/API.md keeps those internal).
  struct Registry;
  std::unique_ptr<Registry> registry_;
};

}  // namespace copydetect

#endif  // COPYDETECT_API_COPYDETECT_SESSION_MANAGER_H_
