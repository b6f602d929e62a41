#include "copydetect/session_manager.h"

#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "snapshot/snapshot_io.h"

namespace copydetect {

namespace {

/// Session names become filenames (`<name>.cdsnap`) and wire-message
/// fields, so the alphabet is locked down.
bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

/// One served session: the Session itself (touched only by the worker
/// thread once it starts), the bounded job queue feeding it, and the
/// RCU-published snapshot readers load. Internal — reachable only
/// through SessionRef/SessionManager.
class ManagedSession {
 public:
  ManagedSession(std::string name, std::string save_path,
                 Session session, size_t queue_capacity)
      : name_(std::move(name)),
        save_path_(std::move(save_path)),
        session_(std::move(session)),
        queue_(queue_capacity) {}

  ~ManagedSession() { CloseAndJoin(); }

  /// Publishes version 0 from the session's current report, then
  /// starts the writer worker. Called exactly once, before the
  /// session is visible to any other thread.
  void Activate() {
    Publish();
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  const std::string& name() const { return name_; }

  std::shared_ptr<const PublishedReport> report() const {
    return published_.load(std::memory_order_acquire);
  }

  Status Update(const DatasetDelta& delta) {
    Job job;
    job.delta = delta;
    job.waiter = std::make_shared<JobWaiter>();
    std::shared_ptr<JobWaiter> waiter = job.waiter;
    if (!queue_.Push(std::move(job))) return ClosedError();
    return waiter->Wait();
  }

  Status EnqueueUpdate(DatasetDelta delta) {
    Job job;
    job.delta = std::move(delta);
    if (!queue_.Push(std::move(job))) return ClosedError();
    return Status::OK();
  }

  Status Save() {
    if (save_path_.empty()) {
      return Status::FailedPrecondition(
          "session '" + name_ +
          "': save requires the manager to run with a state_dir");
    }
    Job job;
    job.save = true;
    job.waiter = std::make_shared<JobWaiter>();
    std::shared_ptr<JobWaiter> waiter = job.waiter;
    if (!queue_.Push(std::move(job))) return ClosedError();
    return waiter->Wait();
  }

  size_t queue_depth() const { return queue_.size(); }
  uint64_t rejected_updates() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Stops accepting work, drains the queue, joins the worker.
  /// Idempotent and thread-safe.
  void CloseAndJoin() {
    MutexLock lock(close_mu_);
    queue_.Close();
    if (worker_.joinable()) worker_.join();
  }

 private:
  struct JobWaiter {
    Mutex mu;
    CondVar cv;
    bool done CD_GUARDED_BY(mu) = false;
    Status status CD_GUARDED_BY(mu);

    void Signal(Status s) {
      {
        MutexLock lock(mu);
        status = std::move(s);
        done = true;
      }
      cv.NotifyAll();
    }
    Status Wait() {
      MutexLock lock(mu);
      while (!done) cv.Wait(mu);
      return status;
    }
  };

  struct Job {
    bool save = false;
    DatasetDelta delta;
    std::shared_ptr<JobWaiter> waiter;  ///< null for fire-and-forget
  };

  Status ClosedError() const {
    return Status::FailedPrecondition("session '" + name_ +
                                      "' is closed");
  }

  /// Worker-thread only (and Activate, before the worker exists):
  /// renders and atomically publishes the current report.
  void Publish() {
    auto snap = std::make_shared<PublishedReport>();
    snap->version = version_;
    snap->report = session_.report();
    const Dataset* data = session_.current_data();
    if (data != nullptr) {
      snap->json = snap->report.ToJson(*data);
      snap->num_sources = data->num_sources();
      snap->num_items = data->num_items();
      snap->num_observations = data->num_observations();
    }
    published_.store(std::move(snap), std::memory_order_release);
  }

  void WorkerLoop() {
    for (;;) {
      std::optional<Job> job = queue_.Pop();
      if (!job.has_value()) break;  // closed and drained
      Status status;
      if (job->save) {
        status = session_.Save(save_path_);
      } else {
        status = session_.Update(job->delta);
        if (status.ok()) {
          ++version_;
          Publish();
        } else if (job->waiter == nullptr) {
          // Nobody is waiting to hear the rejection; count it so
          // stats can surface silently failing producers.
          rejected_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (job->waiter != nullptr) job->waiter->Signal(std::move(status));
    }
  }

  const std::string name_;
  const std::string save_path_;  ///< empty = persistence disabled
  Session session_;              ///< worker-owned after Activate()
  BoundedQueue<Job> queue_;
  std::thread worker_;
  /// Updates applied since open/recovery; written only by the worker.
  uint64_t version_ = 0;
  std::atomic<uint64_t> rejected_{0};
  std::atomic<std::shared_ptr<const PublishedReport>> published_;
  Mutex close_mu_;  ///< serializes CloseAndJoin callers
};

// --- SessionRef: thin delegation with closed-safe null checks. ---

static const std::string kEmptyName;  // NOLINT(runtime/string)

const std::string& SessionRef::name() const {
  return session_ != nullptr ? session_->name() : kEmptyName;
}

std::shared_ptr<const PublishedReport> SessionRef::report() const {
  if (session_ == nullptr) return nullptr;
  return session_->report();
}

Status SessionRef::Update(const DatasetDelta& delta) {
  if (session_ == nullptr) {
    return Status::FailedPrecondition("empty SessionRef");
  }
  return session_->Update(delta);
}

Status SessionRef::EnqueueUpdate(DatasetDelta delta) {
  if (session_ == nullptr) {
    return Status::FailedPrecondition("empty SessionRef");
  }
  return session_->EnqueueUpdate(std::move(delta));
}

Status SessionRef::Save() {
  if (session_ == nullptr) {
    return Status::FailedPrecondition("empty SessionRef");
  }
  return session_->Save();
}

size_t SessionRef::queue_depth() const {
  return session_ != nullptr ? session_->queue_depth() : 0;
}

uint64_t SessionRef::rejected_updates() const {
  return session_ != nullptr ? session_->rejected_updates() : 0;
}

// --- SessionManager. ---

struct SessionManager::Registry {
  mutable Mutex mu;
  std::map<std::string, std::shared_ptr<ManagedSession>> sessions
      CD_GUARDED_BY(mu);
  bool shutdown CD_GUARDED_BY(mu) = false;
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)),
      registry_(std::make_unique<Registry>()) {}

SessionManager::~SessionManager() { Shutdown(); }

StatusOr<std::unique_ptr<SessionManager>> SessionManager::Start(
    const SessionManagerOptions& options) {
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "SessionManagerOptions::queue_capacity must be >= 1");
  }
  // make_unique needs a public constructor; the private-ctor dance is
  // not worth it for a file-local `new`-free construction.
  std::unique_ptr<SessionManager> manager(
      new SessionManager(options));  // cd-lint: allow(banned-new-delete) private ctor blocks make_unique; ownership is immediate
  if (options.state_dir.empty()) return manager;

  auto files = snapshot::ListSnapshotFiles(options.state_dir);
  if (!files.ok()) {
    if (files.status().code() == StatusCode::kNotFound) {
      return manager;  // no state yet — a fresh daemon
    }
    return files.status();
  }
  for (const std::string& path : *files) {
    // "<dir>/<name>.cdsnap" → "<name>".
    size_t slash = path.find_last_of('/');
    std::string stem = path.substr(slash + 1);
    stem = stem.substr(0, stem.size() - 7);  // strip ".cdsnap"
    if (!ValidSessionName(stem)) {
      return Status::InvalidArgument(
          "state recovery: '" + path +
          "' does not decode to a valid session name");
    }
    auto session =
        Session::Load(path, LoadOptions(options.recovery_load_mode));
    if (!session.ok()) {
      return Status::Internal("state recovery: loading '" + path +
                              "' failed: " +
                              session.status().message());
    }
    auto opened = manager->OpenFromLoaded(stem, std::move(*session));
    if (!opened.ok()) return opened.status();
  }
  return manager;
}

StatusOr<SessionRef> SessionManager::Open(const std::string& name,
                                          SessionOptions session_options,
                                          const Dataset& data) {
  if (!ValidSessionName(name)) {
    return Status::InvalidArgument(
        "session name '" + name +
        "' invalid — use [A-Za-z0-9_-]+, at most 128 chars");
  }
  // A served session must accept updates and keep its own snapshot.
  session_options.online_updates = true;
  auto session = Session::Create(session_options);
  if (!session.ok()) return session.status();
  auto report = session->Run(data);
  if (!report.ok()) return report.status();
  return OpenFromLoaded(name, std::move(*session));
}

StatusOr<SessionRef> SessionManager::OpenFromLoaded(
    const std::string& name, Session session) {
  std::string save_path =
      options_.state_dir.empty()
          ? std::string()
          : options_.state_dir + "/" + name + ".cdsnap";
  auto managed = std::make_shared<ManagedSession>(
      name, std::move(save_path), std::move(session),
      options_.queue_capacity);
  {
    MutexLock lock(registry_->mu);
    if (registry_->shutdown) {
      return Status::FailedPrecondition(
          "SessionManager is shut down");
    }
    auto [it, inserted] =
        registry_->sessions.emplace(name, std::move(managed));
    if (!inserted) {
      return Status::AlreadyExists("session '" + name +
                                   "' is already open");
    }
    it->second->Activate();
    return SessionRef(it->second);
  }
}

StatusOr<SessionRef> SessionManager::Attach(
    const std::string& name) const {
  MutexLock lock(registry_->mu);
  auto it = registry_->sessions.find(name);
  if (it == registry_->sessions.end()) {
    return Status::NotFound("no open session named '" + name + "'");
  }
  return SessionRef(it->second);
}

Status SessionManager::Close(const std::string& name) {
  std::shared_ptr<ManagedSession> victim;
  {
    MutexLock lock(registry_->mu);
    auto it = registry_->sessions.find(name);
    if (it == registry_->sessions.end()) {
      return Status::NotFound("no open session named '" + name + "'");
    }
    victim = std::move(it->second);
    registry_->sessions.erase(it);
  }
  // Drain + join outside the registry lock: a long queue must not
  // block Open/Attach on other sessions.
  victim->CloseAndJoin();
  return Status::OK();
}

std::vector<std::string> SessionManager::Names() const {
  std::vector<std::string> out;
  MutexLock lock(registry_->mu);
  out.reserve(registry_->sessions.size());
  for (const auto& [name, session] : registry_->sessions) {
    out.push_back(name);
  }
  return out;  // std::map iterates sorted
}

void SessionManager::Shutdown() {
  std::vector<std::shared_ptr<ManagedSession>> victims;
  {
    MutexLock lock(registry_->mu);
    registry_->shutdown = true;
    for (auto& [name, session] : registry_->sessions) {
      victims.push_back(std::move(session));
    }
    registry_->sessions.clear();
  }
  for (auto& victim : victims) victim->CloseAndJoin();
}

}  // namespace copydetect
