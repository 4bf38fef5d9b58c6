// Outside-in tracing for the traced run: an in-memory span recorder, and
// the layer replay -- the same generated input fed boundary by boundary
// through the public calls of each layer (trace window index, co-location
// counting, streaming inference, event emission, the exposure queries and
// the object directory), each call inside its own span. Nothing here
// changes program code; the spans sit around public calls only.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "workloads.h"

namespace perfbench {

/// Spans kept in memory and written out at the end of the run. Each span
/// has a name, start, end, parent (the span open when it began) and the
/// boundary id of the replay step it served (-1 outside the replay).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t boundary = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  int Begin(const std::string& name, int64_t boundary = -1);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration minus the time its child spans cover.
  std::map<std::string, double> SelfSeconds() const;
  /// Per span name: total duration.
  std::map<std::string, double> TotalSeconds() const;

  /// Writes every span as a JSON array.
  rfid::Status WriteJson(const std::string& path) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             int64_t boundary = -1)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, boundary) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Counts the layer replay makes where the work happens.
struct LayerCounts {
  int64_t em_iterations = 0;
  int64_t candidate_objects = 0;  ///< objects summed over runs
  int64_t candidates = 0;         ///< their candidate containers
  int64_t max_buffered_readings = 0;
  int64_t query_events = 0;
  /// Wall time of each processor's AdvanceTo at a boundary that ran
  /// inference, in milliseconds.
  std::vector<double> boundary_ms;
};

/// Replays `input` through the layers, one inference boundary at a time,
/// in the workload's processing topology: one engine per warehouse in
/// distributed mode, one over the merged stream in centralized mode.
/// Engines see only their own site's readings -- no state migrates -- so
/// the replay prices each layer on the system's input, not its exact
/// work. Every call is wrapped in a span of `rec`.
LayerCounts ReplayLayers(const Workload& workload, const Input& input,
                         SpanRecorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
