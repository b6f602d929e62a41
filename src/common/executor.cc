#include "common/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace copydetect {

namespace {

/// The executor the calling thread is a worker of (null on other
/// threads). Lets ParallelFor detect a nested call and run it inline.
thread_local const Executor* tls_worker_of = nullptr;

}  // namespace

Executor::Executor(size_t num_threads) {
  if (num_threads == 0) {
    num_threads =
        std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  num_threads_ = num_threads;
  if (num_threads_ > 1) {
    workers_.reserve(num_threads_);
    for (size_t i = 0; i < num_threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::Shutdown() {
  assert(tls_worker_of != this);
  MutexLock serialize(join_mu_);
  if (joined_) return;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  // A worker leaves only once the queue is empty, so every chunk queued
  // before the flag flipped still runs before the joins return.
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  joined_ = true;
}

void Executor::ParallelFor(size_t n,
                           const std::function<void(size_t)>& fn) {
  if (workers_.empty() || n <= 1 || tls_worker_of == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // At most 4 chunks per worker limit queue churn; each chunk keeps
  // claiming blocks of `per` indices until the range is exhausted.
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t per = (n + chunks - 1) / chunks;
  struct Latch {
    explicit Latch(size_t count) : pending(count) {}
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar cv;
    size_t pending CD_GUARDED_BY(mu);
  } latch(chunks);
  const auto chunk = [&latch, &fn, per, n] {
    for (;;) {
      const size_t begin = latch.next.fetch_add(per);
      if (begin >= n) break;
      const size_t end = std::min(n, begin + per);
      for (size_t i = begin; i < end; ++i) fn(i);
    }
    MutexLock lock(latch.mu);
    if (--latch.pending == 0) latch.cv.NotifyOne();
  };
  bool queued = false;
  {
    MutexLock lock(mu_);
    if (!shutdown_) {
      for (size_t c = 0; c < chunks; ++c) queue_.push(chunk);
      queued = true;
    }
  }
  if (!queued) {
    // Shut down: the workers are gone or leaving, so run on the caller.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  work_cv_.NotifyAll();
  MutexLock lock(latch.mu);
  while (latch.pending != 0) latch.cv.Wait(latch.mu);
}

void Executor::WorkerLoop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> chunk;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) break;  // shut down and drained
      chunk = std::move(queue_.front());
      queue_.pop();
    }
    chunk();
  }
}

}  // namespace copydetect
