#ifndef COPYDETECT_COMMON_EXECUTOR_H_
#define COPYDETECT_COMMON_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace copydetect {

/// Shared execution backend for every parallel path in the engine (the
/// parallel index scan is the paper's §VIII future-work direction): one
/// set of persistent workers reused by all detectors and the fusion
/// loop for the lifetime of a run. A handle travels through
/// DetectionParams (and therefore FusionOptions); components that
/// receive no handle run serially.
///
/// Guarantees:
///  * num_threads == 1 (the `--threads=1` fallback) never spawns a
///    thread — everything runs inline on the caller;
///  * a nested ParallelFor from inside a worker runs inline: a worker
///    that blocked on chunks queued behind its own would deadlock the
///    moment every worker did so;
///  * ParallelFor calls from different threads may overlap safely —
///    each call carries its own completion latch, so no caller waits
///    on another's chunks.
///
/// Lock discipline is machine-checked: the queue and the shutdown flag
/// are CD_GUARDED_BY(mu_), and the clang `-Wthread-safety` CI leg
/// proves each access holds the mutex.
class Executor {
 public:
  /// `num_threads` == 0 picks std::thread::hardware_concurrency().
  explicit Executor(size_t num_threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n) and returns when all iterations are
  /// done. `fn` must be safe to invoke concurrently for distinct i.
  /// The range is split into at most 4 chunks per worker.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      CD_EXCLUDES(mu_);

  /// Deterministic drain for daemons: every chunk already queued runs
  /// to completion, then the workers are joined. Afterwards the
  /// executor stays usable — ParallelFor runs inline on the caller.
  /// Idempotent; concurrent callers all block until the drain
  /// completes. Must not be called from inside a ParallelFor body (a
  /// worker cannot join itself). A no-op when num_threads == 1.
  void Shutdown() CD_EXCLUDES(mu_, join_mu_);

 private:
  void WorkerLoop() CD_EXCLUDES(mu_);

  size_t num_threads_;

  Mutex mu_;
  CondVar work_cv_;  ///< signaled on new chunks and on shutdown
  std::queue<std::function<void()>> queue_ CD_GUARDED_BY(mu_);
  /// Set by Shutdown(): later ParallelFor calls run inline, and a
  /// worker exits once the queue is empty.
  bool shutdown_ CD_GUARDED_BY(mu_) = false;

  /// Serializes Shutdown() bodies so a second caller blocks until the
  /// first finishes joining, instead of racing the join. Always
  /// acquired before mu_, never while holding it.
  Mutex join_mu_;
  bool joined_ CD_GUARDED_BY(join_mu_) = false;

  /// Empty when num_threads_ == 1. Declared after the state the workers
  /// use. Only the constructor writes it, and it publishes the workers
  /// through the thread constructor, so reads need no lock.
  std::vector<std::thread> workers_;
};

/// Convenience for call sites holding a nullable handle: runs on
/// `executor` when present, inline otherwise.
inline void ParallelFor(Executor* executor, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (executor != nullptr) {
    executor->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace copydetect

#endif  // COPYDETECT_COMMON_EXECUTOR_H_
