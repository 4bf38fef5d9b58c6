#include "workloads.h"

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "common/metrics.h"
#include "common/rng.h"
#include "sim/sensors.h"

namespace perfbench {
namespace {

using rfid::DistributedOptions;
using rfid::Epoch;
using rfid::SupplyChainConfig;

// Scaled query spans (Section 5.4 bench): Q1's 6 hours -> 400 s, Q2's 10
// hours -> 600 s, with a contiguity bound that bridges a 60 s transit.
constexpr Epoch kQ1Duration = 400;
constexpr Epoch kQ2Duration = 600;
constexpr Epoch kQueryMaxGap = 350;

constexpr int kThreads = 4;

// Inputs one run replays. Inputs of one workload differ in replay cost by
// up to 2x; eight make the median over them steady from seed to seed.
constexpr int kInputsPerRun = 8;

// Distinct random streams derived from the one --seed argument.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

// An 8-warehouse linear chain with steady cross-site pallet flow: the
// bench_epoch_rate workload at two pallets per injection. Its horizon of
// 2400 would leave room for few replays per run; at 900 (pallets reach
// the third warehouse) a run replays each of its inputs several times.
SupplyChainConfig ChainConfig(uint64_t seed) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 8;
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallet_injection_interval = 60;
  cfg.pallets_per_injection = 2;
  cfg.shelf_stay = 600;
  cfg.transit_time = 60;
  cfg.read_rate.main = 0.8;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = 900;
  cfg.seed = SubSeed(seed, 1);
  return cfg;
}

// The ten-warehouse 1-3-3-3 DAG with a short shelf stay, so pallet groups
// cross sites (and migrate state) often.
SupplyChainConfig ChurnConfig(uint64_t seed) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 10;
  cfg.dag_layers = {1, 3, 3, 3};
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallet_injection_interval = 60;
  cfg.pallets_per_injection = 2;
  cfg.shelf_stay = 300;
  cfg.transit_time = 60;
  cfg.read_rate.main = 0.8;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = 900;
  cfg.seed = SubSeed(seed, 2);
  return cfg;
}

// Every DistributedOptions field, pinned. The struct's own defaults read
// the environment, so each of those fields is overwritten here.
DistributedOptions BaseOptions() {
  DistributedOptions o;
  o.mode = rfid::ProcessingMode::kDistributed;
  o.site = rfid::SiteOptions{};
  o.site.migration = rfid::MigrationMode::kCollapsed;
  o.site.share_query_state = false;
  o.site.compress_level = 6;
  o.site.hierarchical = false;
  o.site.retain_exports = false;
  o.site.checkpoint_every = 1;
  o.site.streaming = rfid::StreamingOptions{};
  o.site.streaming.inference_period = 300;
  o.site.streaming.truncation = rfid::TruncationMethod::kCriticalRegion;
  o.site.streaming.recent_history = 400;
  o.site.streaming.detect_changes = false;
  o.site.streaming.arena_index = true;
  o.site.streaming.soa_columns = true;
  o.transport = rfid::TransportKind::kInProcess;
  o.network.latency_base = 0;
  o.network.latency_per_kib = 0;
  o.network.link_base = nullptr;
  o.network.faults = rfid::FaultModel{};
  o.network.reliability = rfid::ReliabilityOptions{};
  o.attach_queries = false;
  o.q1 = rfid::ExposureQuery::Q1Config(kQ1Duration);
  o.q1.max_gap = kQueryMaxGap;
  o.q2 = rfid::ExposureQuery::Q2Config(kQ2Duration);
  o.q2.max_gap = kQueryMaxGap;
  o.num_threads = kThreads;
  o.directory_shards = 0;
  o.directory_cache = true;
  o.pipeline_flush = true;
  o.directory_cache_ttl = 0;
  o.collect_metrics = false;
  o.trace = false;
  o.trace_path.clear();
  o.crashes.clear();
  o.durability.dir.clear();
  o.durability.fsync = rfid::DurabilityOptions::FsyncPolicy::kData;
  return o;
}

// Two crashes at seeded sites and epochs, each down for 150 epochs. The
// schedule generator drops overlapping outages, so sub-seeds are tried in
// order until one yields exactly two.
std::vector<rfid::CrashEvent> TwoCrashes(uint64_t seed, int sites,
                                         Epoch horizon) {
  std::vector<rfid::CrashEvent> crashes;
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    crashes = rfid::SeededCrashSchedule(SubSeed(seed, 100 + attempt), sites,
                                        horizon, 2, 150);
    if (crashes.size() == 2) break;
  }
  return crashes;
}

// Runs Q1/Q2 over ground-truth events: the answer key the replay's alerts
// are scored against.
void ComputeOracle(const Workload& w, Input* in) {
  const rfid::SupplyChainSim& sim = *in->sim;
  rfid::ExposureQuery q1(&in->catalog, w.options.q1);
  rfid::ExposureQuery q2(&in->catalog, w.options.q2);
  size_t si = 0;
  for (Epoch t = 0; t <= sim.config().horizon; t += 10) {
    while (si < in->sensors.size() && in->sensors[si].time <= t) {
      q1.OnSensor(in->sensors[si]);
      q2.OnSensor(in->sensors[si]);
      ++si;
    }
    for (rfid::TagId item : sim.all_items()) {
      if (!sim.truth().PresentAt(item, t)) continue;
      const rfid::LocationId loc = sim.truth().LocationAt(item, t);
      if (loc == rfid::kNoLocation) continue;
      const rfid::ObjectEvent e{t, item, loc,
                                sim.truth().ContainerAt(item, t)};
      q1.OnEvent(e);
      q2.OnEvent(e);
    }
  }
  in->oracle_q1 = q1.alerts();
  in->oracle_q2 = q2.alerts();
}

}  // namespace

uint64_t InputSeed(uint64_t seed, int index) {
  return SubSeed(seed, 1000 + static_cast<uint64_t>(index));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"central", "churn_durable"};
  return names;
}

std::string WorkloadWhy(const std::string& name) {
  if (name == "central") {
    return "8-site chain, one server runs all inference serially over the "
           "merged stream; no directory or migration traffic, so those "
           "changes must not move it";
  }
  return "10-site DAG, one engine per site on 4 threads, with queries, "
         "two-level inference, WAL+checkpoints, a lossy socket transport "
         "and two crashes: executor, directory and write paths all show";
}

rfid::Status MakeWorkload(const std::string& name, uint64_t seed,
                          const Overrides& overrides, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.options = BaseOptions();
  w.inputs = kInputsPerRun;
  if (name == "central") {
    w.sim = ChainConfig(seed);
    w.options.mode = rfid::ProcessingMode::kCentralized;
  } else if (name == "churn_durable") {
    w.sim = ChurnConfig(seed);
    w.queries = true;
    w.durable = true;
    w.options.attach_queries = true;
    w.options.site.share_query_state = true;
    w.options.site.hierarchical = true;
    w.options.transport = rfid::TransportKind::kSocket;
    w.options.network.faults.drop = 0.05;
    w.options.network.faults.reorder = 0.02;
    w.options.network.faults.seed = SubSeed(seed, 3);
  } else {
    return rfid::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (overrides.horizon > 0) w.sim.horizon = overrides.horizon;
  if (overrides.threads >= 0) w.options.num_threads = overrides.threads;
  if (overrides.transport) w.options.transport = *overrides.transport;
  if (overrides.inputs > 0) w.inputs = overrides.inputs;
  if (w.durable) {
    w.options.crashes =
        TwoCrashes(seed, w.sim.num_warehouses, w.sim.horizon);
  }
  *out = std::move(w);
  return rfid::Status::OK();
}

std::unique_ptr<Input> Generate(const Workload& w) {
  auto in = std::make_unique<Input>();
  in->sim = std::make_unique<rfid::SupplyChainSim>(w.sim);
  in->sim->Run();
  const rfid::SupplyChainSim& sim = *in->sim;
  if (w.queries) {
    // Every item is frozen food; half the cases are freezer-class and half
    // the shelves are cold rooms, so both queries have exposures to find.
    for (rfid::TagId item : sim.all_items()) {
      in->catalog.RegisterProduct(
          item, rfid::ProductInfo{"frozen_food", true, false, false});
    }
    for (size_t i = 0; i < sim.all_cases().size(); ++i) {
      in->catalog.RegisterContainer(
          sim.all_cases()[i],
          rfid::ContainerInfo{i % 2 == 0 ? rfid::ContainerClass::kFreezer
                                         : rfid::ContainerClass::kPlain});
    }
    rfid::SensorConfig scfg;
    for (rfid::SiteId s = 0; s < w.sim.num_warehouses; ++s) {
      const auto& shelves = sim.layout().site(s).shelves;
      for (size_t i = 0; i < shelves.size(); i += 2) {
        scfg.cold_locations.push_back(shelves[i]);
      }
    }
    rfid::Rng rng(SubSeed(w.seed, 4));
    in->sensors = rfid::GenerateSensorStream(
        scfg, sim.layout().num_locations(), w.sim.horizon, rng);
    ComputeOracle(w, in.get());
  }

  rfid::Sha256 h;
  for (rfid::SiteId s = 0; s < w.sim.num_warehouses; ++s) {
    for (const rfid::RawReading& r : sim.site_trace(s).readings()) {
      HashValue(&h, r.time);
      HashValue(&h, r.tag.raw());
      HashValue(&h, r.reader);
    }
  }
  for (const rfid::ObjectTransfer& tr : sim.transfers()) {
    HashValue(&h, tr.depart);
    HashValue(&h, tr.arrive);
    HashValue(&h, tr.from);
    HashValue(&h, tr.to);
    HashValue(&h, tr.pallet.raw());
  }
  for (const rfid::SensorReading& r : in->sensors) {
    HashValue(&h, r.time);
    HashValue(&h, r.loc);
    HashValue(&h, r.value);
  }
  in->digest = rfid::ToHex(h.Finish());
  return in;
}

DistributedOptions ReferenceOptions(const Workload& w) {
  DistributedOptions o = w.options;
  o.num_threads = 0;
  o.transport = rfid::TransportKind::kInProcess;
  return o;
}

ScratchDir::ScratchDir(const std::string& parent) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string tmpl = parent + "/durable_XXXXXX";
  if (char* got = mkdtemp(tmpl.data())) path_ = got;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::FsType() const {
  struct statfs st {};
  if (path_.empty() || statfs(path_.c_str(), &st) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53, "ext4"},       {0x01021994, "tmpfs"},
      {0x794c7630, "overlay"}, {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},  {0x6969, "nfs"},
      {0x65735546, "fuse"},   {0x2FC12FC1, "zfs"},
  };
  const auto it = kNames.find(static_cast<unsigned long>(st.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

rfid::obs::JsonValue DescribeOptions(const DistributedOptions& o) {
  using rfid::obs::JsonValue;
  JsonValue j = JsonValue::Object();
  j.Set("mode", rfid::ToString(o.mode));
  j.Set("migration", rfid::ToString(o.site.migration));
  j.Set("num_threads", o.num_threads);
  j.Set("transport", rfid::ToString(o.transport));
  j.Set("inference_period", static_cast<int64_t>(
                                o.site.streaming.inference_period));
  j.Set("recent_history",
        static_cast<int64_t>(o.site.streaming.recent_history));
  j.Set("arena_index", o.site.streaming.arena_index);
  j.Set("soa_columns", o.site.streaming.soa_columns);
  j.Set("hierarchical", o.site.hierarchical);
  j.Set("share_query_state", o.site.share_query_state);
  j.Set("attach_queries", o.attach_queries);
  j.Set("pipeline_flush", o.pipeline_flush);
  j.Set("directory_shards", o.directory_shards);
  j.Set("directory_cache", o.directory_cache);
  j.Set("latency_base", static_cast<int64_t>(o.network.latency_base));
  JsonValue faults = JsonValue::Object();
  faults.Set("drop", o.network.faults.drop);
  faults.Set("duplicate", o.network.faults.duplicate);
  faults.Set("reorder", o.network.faults.reorder);
  faults.Set("corrupt", o.network.faults.corrupt);
  faults.Set("partitions",
             static_cast<int64_t>(o.network.faults.partitions.size()));
  faults.Set("seed", std::to_string(o.network.faults.seed));
  j.Set("faults", std::move(faults));
  j.Set("durable", o.durability.enabled());
  j.Set("fsync", o.durability.fsync ==
                         rfid::DurabilityOptions::FsyncPolicy::kData
                     ? "data"
                     : "off");
  j.Set("checkpoint_every", o.site.checkpoint_every);
  JsonValue crashes = JsonValue::Array();
  for (const rfid::CrashEvent& c : o.crashes) {
    JsonValue e = JsonValue::Object();
    e.Set("site", static_cast<int64_t>(c.site));
    e.Set("at", static_cast<int64_t>(c.at));
    e.Set("recover_at", static_cast<int64_t>(c.recover_at));
    crashes.Append(std::move(e));
  }
  j.Set("crashes", std::move(crashes));
  j.Set("collect_metrics", o.collect_metrics);
  j.Set("trace", o.trace);
  j.Set("trace_path", o.trace_path);
  return j;
}

double AlertFMeasure(const std::vector<rfid::ExposureAlert>& reported,
                     const std::vector<rfid::ExposureAlert>& oracle,
                     Epoch tolerance) {
  rfid::FMeasure fm;
  std::vector<bool> matched(oracle.size(), false);
  for (const rfid::ExposureAlert& a : reported) {
    bool hit = false;
    for (size_t i = 0; i < oracle.size(); ++i) {
      if (matched[i] || oracle[i].tag != a.tag) continue;
      if (std::abs(oracle[i].last_time - a.last_time) > tolerance) continue;
      matched[i] = true;
      hit = true;
      break;
    }
    if (hit) {
      fm.AddTruePositive();
    } else {
      fm.AddFalsePositive();
    }
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (!matched[i]) fm.AddFalseNegative();
  }
  return fm.Percent();
}

}  // namespace perfbench
