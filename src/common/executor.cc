#include "common/executor.h"

#include <algorithm>

namespace rfid {

int SiteExecutor::ResolveThreads(int requested) {
  if (requested >= 0) return requested < 1 ? 1 : requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SiteExecutor::SiteExecutor(int num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SiteExecutor::~SiteExecutor() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void SiteExecutor::Run(size_t n, const Task& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  mu_.Lock();
  task_ = &fn;
  next_ = 0;
  n_ = n;
  done_ = 0;
  ++generation_;
  work_cv_.NotifyAll();
  // The caller is one of the executors: claim under the lock, run outside.
  while (next_ < n_) {
    const size_t i = next_++;
    mu_.Unlock();
    fn(i);
    mu_.Lock();
    ++done_;
  }
  while (done_ != n_) done_cv_.Wait(&mu_);
  task_ = nullptr;
  mu_.Unlock();
}

void SiteExecutor::ForEachChunk(SiteExecutor* executor, size_t n,
                                const RangeTask& fn) {
  if (n == 0) return;
  if (executor == nullptr || executor->serial()) {
    fn(0, n);
    return;
  }
  const size_t chunks =
      std::min(n, static_cast<size_t>(executor->num_threads()) * 4);
  executor->Run(chunks, [&](size_t chunk) {
    fn(chunk * n / chunks, (chunk + 1) * n / chunks);
  });
}

void SiteExecutor::WorkerLoop() {
  mu_.Lock();
  uint64_t seen = 0;
  while (true) {
    while (!(stop_ ||
             (generation_ != seen && task_ != nullptr && next_ < n_))) {
      work_cv_.Wait(&mu_);
    }
    if (stop_) break;
    seen = generation_;
    while (task_ != nullptr && next_ < n_) {
      const size_t i = next_++;
      const Task* fn = task_;
      mu_.Unlock();
      (*fn)(i);
      mu_.Lock();
      ++done_;
      if (done_ == n_) done_cv_.NotifyAll();
    }
  }
  mu_.Unlock();
}

}  // namespace rfid
