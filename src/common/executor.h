// Bulk-synchronous parallel executor: a persistent worker pool that fans
// independent work items across threads and joins before the caller
// proceeds to its next serial phase.
//
// The distributed replay (Section 5.2's deployment, where "each warehouse
// is provisioned with a server" that computes independently between
// exchanges) uses it twice. In distributed mode each work item is one
// whole site's Observe/AdvanceTo window (the Section 4.1 streaming
// inference, both containment levels under Appendix A.4 hierarchy): sites
// only interact through Network::Send in the serial phase between Run()
// calls, so the fan-out is bit-identical to the serial replay. In
// centralized mode the one server's RFINFER run fans its own independent
// loops across the pool instead -- the E-step per container, the M-step
// weights and the critical-region / change-point scans per object
// (inference/rfinfer.h) -- each task writing only its own slot and every
// shared result merged serially in index order. The same pool also fans
// out the read-only per-tag accuracy scans behind the Figures 5(e)/5(f)
// error sampling (exact integer count merging keeps them bit-identical
// too). The resulting phase structure is diagrammed in
// docs/ARCHITECTURE.md.
#ifndef RFID_COMMON_EXECUTOR_H_
#define RFID_COMMON_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace rfid {

/// Sentinel for "use std::thread::hardware_concurrency()".
inline constexpr int kAutoThreads = -1;

/// A fixed pool of worker threads executing indexed work items. One
/// executor drives one replay; Run() is not reentrant (a task must never
/// call Run() on the pool executing it) and must always be called from the
/// same (owning) thread.
class SiteExecutor {
 public:
  /// Maps a requested thread count to an effective one: negative values
  /// resolve to the hardware concurrency (at least 1); 0 and 1 mean serial
  /// in-line execution on the caller.
  static int ResolveThreads(int requested);

  /// Spawns `ResolveThreads(num_threads) - 1` workers; the caller thread is
  /// the remaining executor during Run().
  explicit SiteExecutor(int num_threads);
  ~SiteExecutor();

  SiteExecutor(const SiteExecutor&) = delete;
  SiteExecutor& operator=(const SiteExecutor&) = delete;

  /// Effective thread count (workers + caller); 1 means serial.
  int num_threads() const { return num_threads_; }
  bool serial() const { return workers_.empty(); }

  using Task = std::function<void(size_t)>;
  using RangeTask = std::function<void(size_t begin, size_t end)>;

  /// Invokes fn(i) exactly once for every i in [0, n), potentially
  /// concurrently, and returns when all invocations have completed. `fn`
  /// must confine each index to disjoint state (e.g. one site, one object,
  /// or one container per index). With no workers the calls run in order
  /// on the caller.
  void Run(size_t n, const Task& fn);

  /// Covers [0, n) with contiguous chunks and invokes fn(begin, end) once
  /// per chunk. A null or serial `executor` runs the single chunk [0, n)
  /// inline on the caller; otherwise the range splits into
  /// min(n, 4 * num_threads()) near-equal chunks fanned across the pool
  /// (fine enough to balance uneven items, coarse enough that dispatch
  /// costs one lock round-trip per chunk, not per item). n == 0 calls
  /// nothing.
  static void ForEachChunk(SiteExecutor* executor, size_t n,
                           const RangeTask& fn);

 private:
  void WorkerLoop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // All task state is guarded by mu_. Indices are claimed under the lock
  // and executed outside it, so items should be coarse (a site window or a
  // ForEachChunk chunk) for dispatch contention to stay negligible.
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  const Task* task_ GUARDED_BY(mu_) = nullptr;
  size_t next_ GUARDED_BY(mu_) = 0;
  size_t n_ GUARDED_BY(mu_) = 0;
  size_t done_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace rfid

#endif  // RFID_COMMON_EXECUTOR_H_
