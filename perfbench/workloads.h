// The benchmark's workloads: how each one's input is generated from a
// seed, and the fully pinned DistributedOptions it replays with. Every
// option field is set here, so no environment variable (RFID_TRANSPORT,
// RFID_FAULTS, RFID_DURABILITY_*, RFID_TRACE, RFID_BENCH_*) can change a
// run; the effective configuration is printed with every result.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "dist/distributed.h"
#include "obs/json.h"
#include "query/queries.h"
#include "sim/supply_chain.h"
#include "trace/product_catalog.h"

namespace perfbench {

/// Knobs the benchmark's own test uses to shrink a workload or vary the
/// parts the bit-identity contract says cannot matter. A timed run sets
/// none of them.
struct Overrides {
  rfid::Epoch horizon = 0;  ///< 0 = the workload's horizon
  int threads = -1;         ///< -1 = the workload's thread count
  int inputs = 0;           ///< 0 = the workload's inputs per run
  std::optional<rfid::TransportKind> transport;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  rfid::SupplyChainConfig sim;
  /// Pinned replay options. durability.dir stays empty here: durable
  /// workloads get a fresh directory per system (see ScratchDir).
  rfid::DistributedOptions options;
  bool queries = false;
  bool durable = false;
  /// How many distinct inputs one run replays (see InputSeed).
  int inputs = 1;
};

/// Names of every workload, in manifest order.
const std::vector<std::string>& WorkloadNames();

/// One line per workload: why it is in the benchmark.
std::string WorkloadWhy(const std::string& name);

/// The seed of input `index` of a run made with `seed`. A run replays
/// several inputs so that its figures are averaged over inputs rather than
/// bound to the cost of one; the same `seed` always gives the same inputs.
uint64_t InputSeed(uint64_t seed, int index);

/// The workload `name` generated from `seed`; InvalidArgument for an
/// unknown name.
rfid::Status MakeWorkload(const std::string& name, uint64_t seed,
                          const Overrides& overrides, Workload* out);

/// Everything generated from the seed before the replay starts: the
/// simulated supply chain, and for query workloads the catalog, the
/// sensor stream and the ground-truth query oracle.
struct Input {
  std::unique_ptr<rfid::SupplyChainSim> sim;
  rfid::ProductCatalog catalog;
  std::vector<rfid::SensorReading> sensors;
  std::vector<rfid::ExposureAlert> oracle_q1;
  std::vector<rfid::ExposureAlert> oracle_q2;
  /// SHA-256 over the generated readings, transfers and sensors: a
  /// different seed must change it.
  std::string digest;
};

std::unique_ptr<Input> Generate(const Workload& workload);

/// The serial in-process configuration the fingerprint of every run is
/// compared against.
rfid::DistributedOptions ReferenceOptions(const Workload& workload);

/// A fresh mkdtemp directory under `parent`, removed (recursively) when
/// the object dies -- on error paths too.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  /// Filesystem type of the directory ("ext4", "tmpfs", ... or the
  /// statfs magic in hex).
  std::string FsType() const;

 private:
  std::string path_;
};

/// The effective configuration of a replay, as JSON.
rfid::obs::JsonValue DescribeOptions(const rfid::DistributedOptions& options);

/// Feeds the bytes of a trivially copyable value into `h`.
template <typename T>
void HashValue(rfid::Sha256* h, T v) {
  h->Update(reinterpret_cast<const uint8_t*>(&v), sizeof(v));
}

/// Alert F-measure (percent) against the ground-truth oracle: an alert
/// matches an unmatched oracle alert of the same tag whose completion time
/// is within `tolerance` epochs (the Section 5.4 scoring).
double AlertFMeasure(const std::vector<rfid::ExposureAlert>& reported,
                     const std::vector<rfid::ExposureAlert>& oracle,
                     rfid::Epoch tolerance = 300);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
