// perfbench: the replay benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--horizon H] [--threads T] [--inputs K]
//             [--transport in_process|socket]
//   perfbench --manifest
//
// A run replays several inputs of the workload, each generated from its
// own seed drawn from N (InputSeed). Every replay sets its input up afresh
// -- generates it and constructs the system; setup_s is the median over
// replays -- and then runs it. Each input is first replayed as the
// reference, serial and in-process; then the inputs take turns in a closed
// loop with the workload's own options -- the next replay starts when the
// previous one finished -- until S seconds have passed. Every replay's
// output fingerprint (per-kind wire bytes, the accuracy series, an alert
// digest) must equal its input's reference, and on durable workloads every
// site's audit log must verify; a replay that fails either counts in
// `failed`. The throughput is the median over inputs of each input's
// median replay throughput. Between replays a pointer chase measures the
// host's memory latency, and both end-to-end times are reported scaled to
// a nominal 100 ns (see LatencyProbe). With --trace 1 the run also makes
// one replay of input 0 with the system's phase telemetry on and a layer
// replay of the same input inside the benchmark's own spans, and reports
// per-layer metrics instead of end-to-end ones.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --horizon/--threads/--inputs/--transport exist for the benchmark's own
// test (perfbench/test_perfbench.py); a measured run passes none of them.
// Durable scratch directories, phase traces and span files go under
// .bench_build/ in the working directory.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/stopwatch.h"
#include "dist/distributed.h"
#include "dist/durability.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rfid::DistributedOptions;
using rfid::DistributedSystem;
using rfid::obs::JsonValue;

constexpr char kOutDir[] = ".bench_build";

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0.0;  // end-to-end only
};

// End-to-end metrics: what a user of the replay sees, measured with
// telemetry off. `bound` is the share of the parent's median by which a
// metric may worsen before a change counts as a regression. The two times
// are scaled to a nominal memory latency (see LatencyProbe); the measured
// ones are printed next to them and reported per layer. Wire bytes are
// exact for a seed and summed over the run's inputs. The accuracy outputs
// (containment and case error, query F-measures) are printed with every
// run but not listed here: they are exact for a seed, some exist on one
// workload only, and even averaged over a run's inputs the containment
// error spreads by about 12% from seed to seed on churn_durable, too much
// for a median over seeds to hold to a useful bound; `run.py compare`
// checks them per seed.
const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"readings_per_s_at_100ns", "1/s", "higher", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.10},
      {"wire_bytes", "bytes", "lower", 0.21},
  };
  return specs;
}

const std::vector<rfid::MessageKind>& AllKinds() {
  static const std::vector<rfid::MessageKind> kinds = [] {
    std::vector<rfid::MessageKind> out;
    for (int k = 0; k < rfid::kNumMessageKinds; ++k) {
      out.push_back(static_cast<rfid::MessageKind>(k));
    }
    return out;
  }();
  return kinds;
}

// The benchmark's own span names, in the order the self times print.
const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "bench.generate",    "bench.construct",     "bench.run",
      "bench.fingerprint", "bench.audit",         "layer.setup",
      "layer.boundary",    "trace.append_seal",   "inference.colocation",
      "inference.observe", "inference.advance",   "inference.emit",
      "query.feed",        "ons.replay",          "layer.replay",
  };
  return names;
}

// Per-layer metrics of the traced run, grouped by module.
const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"sim.generate_s", "s", "lower"},
        {"sim.readings", "count", "higher"},
        {"sim.transfers", "count", "higher"},
        {"trace.seal_s", "s", "lower"},
        {"inference.cpu_s", "s", "lower"},
        {"inference.site_skew", "ratio", "lower"},
        {"inference.boundary_p50_ms", "ms", "lower"},
        {"inference.boundary_p99_ms", "ms", "lower"},
        {"inference.colocation_s", "s", "lower"},
        {"inference.em_iterations", "count", "lower"},
        {"inference.candidates_per_object", "count", "lower"},
        {"inference.buffered_readings", "count", "lower"},
        {"query.events", "count", "lower"},
        {"query.event_us", "us", "lower"},
        {"query.alerts", "count", "higher"},
        {"query.state_bytes", "bytes", "lower"},
    };
    for (int p = 0; p < rfid::obs::kNumPhases; ++p) {
      s.push_back({std::string("phase.") +
                       rfid::obs::PhaseName(static_cast<rfid::obs::Phase>(p)) +
                       "_s",
                   "s", "lower"});
    }
    s.push_back({"executor.busy_frac", "ratio", "higher"});
    s.push_back({"ons.updates", "count", "lower"});
    s.push_back({"ons.lookups", "count", "lower"});
    s.push_back({"ons.cache_hit_ratio", "ratio", "higher"});
    s.push_back({"ons.dir_bytes", "bytes", "lower"});
    for (rfid::MessageKind k : AllKinds()) {
      s.push_back({"net.bytes." + rfid::ToString(k), "bytes", "lower"});
    }
    s.push_back({"net.messages", "count", "lower"});
    s.push_back({"net.acks", "count", "lower"});
    s.push_back({"net.retransmits", "count", "lower"});
    s.push_back({"net.fault_drops", "count", "lower"});
    s.push_back({"wal.bytes", "bytes", "lower"});
    s.push_back({"wal.fsyncs", "count", "lower"});
    s.push_back({"checkpoint.bytes", "bytes", "lower"});
    s.push_back({"raw_readings_per_s", "1/s", "higher"});
    s.push_back({"raw_setup_s", "s", "lower"});
    s.push_back({"host.mem_latency_ns", "ns", "lower"});
    s.push_back({"untraced_readings_per_s", "1/s", "higher"});
    s.push_back({"traced_readings_per_s", "1/s", "higher"});
    s.push_back({"tracing_overhead_pct", "%", "lower"});
    s.push_back({"unattributed_s", "s", "lower"});
    for (const std::string& span : SpanNames()) {
      s.push_back({"self." + span + "_s", "s", "lower"});
    }
    return s;
  }();
  return specs;
}

JsonValue Manifest() {
  JsonValue workloads = JsonValue::Array();
  for (const std::string& name : WorkloadNames()) {
    JsonValue w = JsonValue::Object();
    w.Set("name", name);
    w.Set("why", WorkloadWhy(name));
    workloads.Append(std::move(w));
  }
  auto specs = [](const std::vector<MetricSpec>& list, bool with_bound) {
    JsonValue arr = JsonValue::Array();
    for (const MetricSpec& m : list) {
      JsonValue j = JsonValue::Object();
      j.Set("name", m.name);
      j.Set("unit", m.unit);
      j.Set("better", m.better);
      if (with_bound) j.Set("bound", m.bound);
      arr.Append(std::move(j));
    }
    return arr;
  };
  JsonValue out = JsonValue::Object();
  out.Set("workloads", std::move(workloads));
  out.Set("end_to_end", specs(EndToEndSpecs(), true));
  out.Set("per_layer", specs(PerLayerSpecs(), false));
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  Overrides overrides;
  bool manifest = false;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--manifest") {
      a->manifest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds >= 0)) {
        *err = "bad --seconds " + v;
        return false;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      a->trace = v == "1" ? 1 : 0;
    } else if (flag == "--horizon") {
      a->overrides.horizon = std::strtoll(v.c_str(), &end, 10);
      if (a->overrides.horizon <= 0) {
        *err = "bad --horizon " + v;
        return false;
      }
    } else if (flag == "--threads") {
      a->overrides.threads = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a->overrides.threads < 0 || a->overrides.threads > 64) {
        *err = "bad --threads " + v;
        return false;
      }
    } else if (flag == "--inputs") {
      a->overrides.inputs = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a->overrides.inputs <= 0 || a->overrides.inputs > 64) {
        *err = "bad --inputs " + v;
        return false;
      }
    } else if (flag == "--transport") {
      if (v == "socket") {
        a->overrides.transport = rfid::TransportKind::kSocket;
      } else if (v == "in_process") {
        a->overrides.transport = rfid::TransportKind::kInProcess;
      } else {
        *err = "bad --transport " + v;
        return false;
      }
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  if (a->manifest) return true;
  if (a->workload.empty() || !have_seed || a->seconds < 0 || a->trace < 0) {
    *err = "need --workload, --seed, --seconds and --trace";
    return false;
  }
  return true;
}

// Linear-interpolated quantile of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What a replay produced, reduced to the bit-identity fingerprint plus
// the metrics read off it.
struct Outcome {
  std::string fingerprint;
  int64_t wire_bytes = 0;
  double error_pct = 0.0;
  std::vector<double> error_series;  // per accuracy sample, percent
  double case_error_pct = 0.0;
  double q1_f1_pct = 0.0;
  double q2_f1_pct = 0.0;
  bool audit_ok = true;
  std::string audit_error;
};

Outcome Summarize(const DistributedSystem& sys, const Input& in,
                  SpanRecorder* rec) {
  Outcome o;
  {
    ScopedSpan span(rec, "bench.fingerprint");
    rfid::Sha256 h;
    const rfid::Network& net = sys.network();
    HashValue(&h, net.total_bytes());
    HashValue(&h, net.total_messages());
    for (rfid::MessageKind k : AllKinds()) {
      HashValue(&h, net.BytesOfKind(k));
      HashValue(&h, net.MessagesOfKind(k));
    }
    for (const auto* series : {&sys.snapshots(), &sys.case_snapshots()}) {
      HashValue(&h, series->size());
      for (const DistributedSystem::ErrorSnapshot& s : *series) {
        HashValue(&h, s.epoch);
        HashValue(&h, s.error_percent);
      }
    }
    for (int q = 0; q < 2; ++q) {
      const std::vector<rfid::ExposureAlert> alerts = sys.AllAlerts(q);
      HashValue(&h, alerts.size());
      for (const rfid::ExposureAlert& a : alerts) {
        HashValue(&h, a.tag.raw());
        HashValue(&h, a.first_time);
        HashValue(&h, a.last_time);
        HashValue(&h, a.n_events);
      }
    }
    o.fingerprint = rfid::ToHex(h.Finish());
    o.wire_bytes = net.total_bytes();
    o.error_pct = sys.AverageContainmentErrorPercent();
    for (const DistributedSystem::ErrorSnapshot& s : sys.snapshots()) {
      o.error_series.push_back(s.error_percent);
    }
    o.case_error_pct = sys.AverageCaseContainmentErrorPercent();
    if (sys.options().attach_queries) {
      o.q1_f1_pct = AlertFMeasure(sys.AllAlerts(0), in.oracle_q1);
      o.q2_f1_pct = AlertFMeasure(sys.AllAlerts(1), in.oracle_q2);
    }
  }
  if (sys.durable()) {
    ScopedSpan span(rec, "bench.audit");
    for (rfid::SiteId s = 0; s < sys.num_processors(); ++s) {
      const rfid::AuditVerifyResult r = rfid::VerifyAuditLog(
          sys.durability(s)->audit_path(), rfid::SiteDurability::SiteKey(s));
      if (!r.ok) {
        o.audit_ok = false;
        o.audit_error = "site " + std::to_string(s) + ": " + r.error;
        break;
      }
    }
  }
  return o;
}

// A fresh durable directory for one system of a durable workload (null
// otherwise), pointed to by `opts`.
std::unique_ptr<ScratchDir> DurableDir(const Workload& w,
                                       DistributedOptions* opts) {
  if (!w.durable) return nullptr;
  auto dir = std::make_unique<ScratchDir>(std::string(kOutDir) + "/tmp");
  RFID_CHECK_OK(dir->ok() ? rfid::Status::OK()
                          : rfid::Status::IOError("mkdtemp failed under " +
                                                  std::string(kOutDir)));
  opts->durability.dir = dir->path();
  return dir;
}

// One replay: set up (generate the input from the seed, construct the
// system), run, summarize. Every replay generates its own copy of the
// input: where a process's long-lived input happens to sit in memory moves
// its replay times by tens of percent on shared hosts, and fresh copies
// turn that from a per-process bias into per-replay noise the median
// absorbs. Durable workloads get a fresh scratch directory, removed on
// every path out.
struct Replay {
  double generate_s = 0.0;
  double setup_s = 0.0;  // generation + system construction
  double run_s = 0.0;
  double user_s = 0.0;  // process CPU time during Run
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  std::string durable_dir;  // removed again when the replay ends
  Outcome outcome;
  std::unique_ptr<Input> input;
};

Replay RunReplay(const Workload& w, DistributedOptions opts,
                 SpanRecorder* rec,
                 const std::function<void(const DistributedSystem&)>& inspect =
                     nullptr) {
  Replay r;
  rfid::Stopwatch sw;
  std::unique_ptr<Input> in;
  {
    ScopedSpan span(rec, "bench.generate");
    in = Generate(w);
  }
  r.generate_s = sw.ElapsedSeconds();
  const std::unique_ptr<ScratchDir> dir = DurableDir(w, &opts);
  r.durable_dir = opts.durability.dir;
  std::unique_ptr<DistributedSystem> sys;
  {
    ScopedSpan span(rec, "bench.construct");
    sys = std::make_unique<DistributedSystem>(
        in->sim.get(), opts, w.queries ? &in->catalog : nullptr,
        w.queries ? &in->sensors : nullptr);
  }
  r.setup_s = sw.ElapsedSeconds();
  struct rusage before {};
  struct rusage after {};
  getrusage(RUSAGE_SELF, &before);
  sw.Restart();
  {
    ScopedSpan span(rec, "bench.run");
    sys->Run();
  }
  r.run_s = sw.ElapsedSeconds();
  getrusage(RUSAGE_SELF, &after);
  auto secs = [](const timeval& a, const timeval& b) {
    return static_cast<double>(b.tv_sec - a.tv_sec) +
           static_cast<double>(b.tv_usec - a.tv_usec) / 1e6;
  };
  r.user_s = secs(before.ru_utime, after.ru_utime);
  r.sys_s = secs(before.ru_stime, after.ru_stime);
  r.minor_faults = after.ru_minflt - before.ru_minflt;
  r.outcome = Summarize(*sys, *in, rec);
  if (inspect) inspect(*sys);
  sys.reset();  // before the input it replays
  r.input = std::move(in);
  return r;
}

// Per-layer numbers the system itself reports after a traced replay:
// phase histograms, per-site inference time, wire, directory, query and
// durability counters.
void SystemLayerMetrics(const DistributedSystem& sys,
                        std::map<std::string, double>* layer) {
  const rfid::obs::Telemetry& tel = *sys.telemetry();
  for (int p = 0; p < rfid::obs::kNumPhases; ++p) {
    const auto phase = static_cast<rfid::obs::Phase>(p);
    (*layer)[std::string("phase.") + rfid::obs::PhaseName(phase) + "_s"] =
        static_cast<double>(tel.phase_histogram(phase).Snapshot().sum) / 1e9;
  }
  (*layer)["inference.cpu_s"] = sys.TotalInferenceSeconds();
  std::vector<double> per_site;
  for (rfid::SiteId s = 0; s < sys.num_processors(); ++s) {
    double secs = sys.site(s).streaming().total_inference_seconds();
    if (sys.site(s).pallet_streaming() != nullptr) {
      secs += sys.site(s).pallet_streaming()->total_inference_seconds();
    }
    per_site.push_back(secs);
  }
  double sum = 0.0;
  for (double v : per_site) sum += v;
  const double mean = sum / static_cast<double>(per_site.size());
  const double max = *std::max_element(per_site.begin(), per_site.end());
  (*layer)["inference.site_skew"] = mean > 0 ? max / mean : 0.0;
  const rfid::Network& net = sys.network();
  for (rfid::MessageKind k : AllKinds()) {
    (*layer)["net.bytes." + rfid::ToString(k)] =
        static_cast<double>(net.BytesOfKind(k));
  }
  (*layer)["net.messages"] = static_cast<double>(net.total_messages());
  (*layer)["net.acks"] =
      static_cast<double>(net.MessagesOfKind(rfid::MessageKind::kAck));
  (*layer)["net.retransmits"] =
      static_cast<double>(net.reliable_stats().retransmits);
  (*layer)["net.fault_drops"] = static_cast<double>(net.fault_stats().drops);
  const rfid::Ons& ons = sys.ons();
  const double hits = static_cast<double>(ons.cache_hits());
  const double lookups = static_cast<double>(ons.charged_lookups());
  (*layer)["ons.updates"] = static_cast<double>(ons.updates());
  (*layer)["ons.lookups"] = lookups;
  (*layer)["ons.cache_hit_ratio"] =
      hits + lookups > 0 ? hits / (hits + lookups) : 0.0;
  (*layer)["ons.dir_bytes"] =
      static_cast<double>(net.BytesOfKind(rfid::MessageKind::kDirectory));
  (*layer)["query.alerts"] = static_cast<double>(
      sys.AllAlerts(0).size() + sys.AllAlerts(1).size());
  (*layer)["query.state_bytes"] = static_cast<double>(
      net.BytesOfKind(rfid::MessageKind::kQueryState));
  const rfid::DurabilityStats d = sys.DurabilityTotals();
  (*layer)["wal.bytes"] = static_cast<double>(d.wal_bytes);
  (*layer)["wal.fsyncs"] = static_cast<double>(d.wal_fsyncs);
  (*layer)["checkpoint.bytes"] = static_cast<double>(d.checkpoint_bytes);
}

// Wall time covered by at least one phase slice of the system's trace
// sink, in seconds.
double PhaseCoveredSeconds(const DistributedSystem& sys) {
  const rfid::obs::Telemetry* tel = sys.telemetry();
  if (tel == nullptr || tel->sink() == nullptr) return 0.0;
  auto parsed = rfid::obs::ParseJson(tel->sink()->ToJson(sys.num_processors()));
  if (!parsed.ok()) return 0.0;
  const JsonValue* events = parsed.value().Find("traceEvents");
  if (events == nullptr) return 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const JsonValue& e : events->items()) {
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* dur = e.Find("dur");
    if (ph == nullptr || ph->AsString() != "X" || ts == nullptr ||
        dur == nullptr) {
      continue;
    }
    iv.emplace_back(ts->AsDouble(), ts->AsDouble() + dur->AsDouble());
  }
  std::sort(iv.begin(), iv.end());
  double covered_us = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (const auto& [lo, hi] : iv) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered_us += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered_us += cur_hi - cur_lo;
  return covered_us / 1e6;
}

// The host's memory latency, as a pointer chase measures it: one random
// cycle through a buffer eight times the L2 cache, so every step is a
// dependent load from DRAM. On a shared host this latency drifts by a
// fifth and more over minutes as neighbours come and go, and the replays,
// whose cost is dominated by such loads, drift with it. The timed loop
// probes it between replays, and the end-to-end times are scaled to a
// nominal latency by the law in NominalScale, so runs made at different
// moments compare.
class LatencyProbe {
 public:
  LatencyProbe() : cycle_(size_t{1} << 22) {
    // Sattolo's shuffle: a single cycle through every slot.
    for (size_t i = 0; i < cycle_.size(); ++i) {
      cycle_[i] = static_cast<uint32_t>(i);
    }
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (size_t i = cycle_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(cycle_[i], cycle_[x % i]);
    }
  }

  /// Nanoseconds per step of a chase through a fresh copy of the cycle.
  /// The copy is mapped anew each time: how fast a buffer is depends on
  /// the physical pages the host happened to back it with, and the
  /// replays' own memory is allocated afresh too. Negative on failure.
  double MeasureNs() {
    const size_t bytes = cycle_.size() * sizeof(uint32_t);
    void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) return -1.0;
    auto* next = static_cast<uint32_t*>(mem);
    std::memcpy(next, cycle_.data(), bytes);
    constexpr int kSteps = 500000;
    rfid::Stopwatch sw;
    uint32_t p = 0;
    // The empty asm statements tie the chase to the timed span: its start
    // depends on one, the other consumes its end, so the compiler can
    // neither drop the chase nor move it out.
    asm volatile("" : "+r"(p));
    for (int i = 0; i < kSteps; ++i) p = next[p];
    asm volatile("" : "+r"(p));
    const double ns = sw.ElapsedSeconds() * 1e9 / kSteps;
    munmap(mem, bytes);
    return ns;
  }

 private:
  std::vector<uint32_t> cycle_;
};

// Memory latency the end-to-end times are scaled to.
constexpr double kNominalLatencyNs = 100.0;

// The factor that takes a time measured at `latency_ns` to the nominal
// latency: replay time is taken as proportional to memory latency. On a
// 4-vCPU Xeon VM sharing its host, the scaled throughput's spread over
// ten seeds fell from 10-27% to 5-13%, and its drift between runs an
// hour apart from about 35% to about 20%. The replays slow somewhat
// faster than the probe when neighbours load the host (they lose cache
// share too), but a steeper law amplified the probe's own errors.
double NominalScale(double latency_ns) {
  return kNominalLatencyNs / latency_ns;
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("  %-36s %18.6f %s\n", name.c_str(), value, unit.c_str());
}

int Run(const Args& args) {
  // Input k of the run is the workload made with InputSeed(seed, k).
  std::vector<Workload> inputs;
  {
    Workload base;
    rfid::Status st =
        MakeWorkload(args.workload, args.seed, args.overrides, &base);
    for (int k = 0; st.ok() && k < base.inputs; ++k) {
      Workload wk;
      st = MakeWorkload(args.workload, InputSeed(args.seed, k),
                        args.overrides, &wk);
      inputs.push_back(std::move(wk));
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  const Workload& w = inputs[0];
  const size_t num_inputs = inputs.size();
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  SpanRecorder recorder;
  SpanRecorder* rec = args.trace == 1 ? &recorder : nullptr;

  std::printf("perfbench workload=%s seed=%llu inputs=%zu seconds=%g "
              "trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              num_inputs, args.seconds, args.trace);
  // Inputs differ only in their seeds (and the fault and crash schedules
  // drawn from them); input 0 stands for all.
  std::printf("config: %s\n", DescribeOptions(w.options).Dump(0).c_str());
  {
    JsonValue b = JsonValue::Object();
    b.Set("compiler", PERFBENCH_COMPILER);
    b.Set("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("build: %s\n", b.Dump(0).c_str());
  }

  // What the serial in-process reference replay of each input produced.
  struct Reference {
    std::string digest;
    double readings = 0.0;
    Outcome outcome;
  };
  std::vector<Reference> refs;
  int attempted = 0;
  int failed = 0;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  bool inputs_agree = true;
  auto check = [&](const Replay& r, const std::string& label,
                   const Reference* ref) {
    ++attempted;
    setup_s.push_back(r.setup_s);
    generate_s.push_back(r.generate_s);
    bool same = true;
    if (ref != nullptr) {
      if (r.input->digest != ref->digest) inputs_agree = false;
      same = r.outcome.fingerprint == ref->outcome.fingerprint;
    }
    const bool ok = same && r.outcome.audit_ok;
    if (!ok) ++failed;
    const double readings =
        static_cast<double>(r.input->sim->total_readings());
    std::printf("%s: setup %.4f s, run %.4f s (cpu %.2f user %.2f sys, %lld "
                "faults), %.0f readings/s, fingerprint %s%s%s%s%s\n",
                label.c_str(), r.setup_s, r.run_s, r.user_s, r.sys_s,
                static_cast<long long>(r.minor_faults), readings / r.run_s,
                same ? "ok" : "MISMATCH", r.outcome.audit_ok ? "" : ", audit ",
                r.outcome.audit_error.c_str(),
                r.durable_dir.empty() ? "" : ", dir ", r.durable_dir.c_str());
  };

  // ---- References: every input replayed serially, in-process. ----
  rfid::Sha256 input_digest;
  rfid::Sha256 run_fingerprint;
  JsonValue input_desc = JsonValue::Object();
  int64_t total_readings = 0;
  int64_t total_transfers = 0;
  int64_t total_sensors = 0;
  int64_t total_oracle = 0;
  double peak_rss = 0.0;
  for (size_t k = 0; k < num_inputs; ++k) {
    const Replay r = RunReplay(inputs[k], ReferenceOptions(inputs[k]), rec);
    const Input& in = *r.input;
    const rfid::SupplyChainSim& sim = *in.sim;
    JsonValue j = JsonValue::Object();
    j.Set("seed", std::to_string(inputs[k].seed));
    j.Set("sites", sim.config().num_warehouses);
    j.Set("horizon", static_cast<int64_t>(sim.config().horizon));
    j.Set("readings", static_cast<int64_t>(sim.total_readings()));
    j.Set("transfers", static_cast<int64_t>(sim.transfers().size()));
    j.Set("digest", in.digest);
    std::printf("input[%zu]: %s\n", k, j.Dump(0).c_str());
    total_readings += static_cast<int64_t>(sim.total_readings());
    total_transfers += static_cast<int64_t>(sim.transfers().size());
    total_sensors += static_cast<int64_t>(in.sensors.size());
    total_oracle +=
        static_cast<int64_t>(in.oracle_q1.size() + in.oracle_q2.size());
    input_desc.Set("sites", sim.config().num_warehouses);
    input_desc.Set("horizon", static_cast<int64_t>(sim.config().horizon));
    input_digest.Update(reinterpret_cast<const uint8_t*>(in.digest.data()),
                        in.digest.size());
    check(r, "reference " + std::to_string(k), nullptr);
    const std::string& fp = r.outcome.fingerprint;
    run_fingerprint.Update(reinterpret_cast<const uint8_t*>(fp.data()),
                           fp.size());
    refs.push_back({in.digest, static_cast<double>(sim.total_readings()),
                    r.outcome});
    // Peak RSS through the first reference replay: later ones reuse what
    // the allocator kept, and the timed replays' worker threads add
    // per-thread arenas whose size depends on scheduling, not on the data.
    if (k == 0) peak_rss = PeakRssMb();
  }
  const std::string fingerprint = rfid::ToHex(run_fingerprint.Finish());
  input_desc.Set("inputs", static_cast<int64_t>(num_inputs));
  input_desc.Set("readings", total_readings);
  input_desc.Set("transfers", total_transfers);
  input_desc.Set("sensor_samples", total_sensors);
  input_desc.Set("oracle_alerts", total_oracle);
  input_desc.Set("digest", rfid::ToHex(input_digest.Finish()));
  std::printf("input: %s\n", input_desc.Dump(0).c_str());
  if (w.durable) {
    ScratchDir probe(std::string(kOutDir) + "/tmp");
    JsonValue j = JsonValue::Object();
    j.Set("parent", std::string(kOutDir) + "/tmp");
    j.Set("fstype", probe.FsType());
    std::printf("durable_dir: %s\n", j.Dump(0).c_str());
  }

  // ---- Closed-loop timed replays with the workload's own options. ----
  // The inputs take turns; the loop ends at the first replay that finishes
  // after the window closed, once every input has had one.
  std::vector<std::vector<double>> run_s(num_inputs);
  std::vector<double> rps;
  LatencyProbe probe;
  std::vector<double> latency_ns;
  rfid::Stopwatch window;
  for (size_t i = 0;; ++i) {
    const double ns = probe.MeasureNs();
    if (ns > 0) latency_ns.push_back(ns);
    const size_t k = i % num_inputs;
    const Replay r = RunReplay(inputs[k], inputs[k].options, rec);
    check(r,
          "replay " + std::to_string(i + 1) + " (input " + std::to_string(k) +
              ")",
          &refs[k]);
    run_s[k].push_back(r.run_s);
    rps.push_back(refs[k].readings / r.run_s);
    if (i + 1 >= num_inputs && window.ElapsedSeconds() >= args.seconds) break;
  }
  // Each input's throughput is its readings over its median replay time;
  // the run's is the median over inputs, so that neither one slow replay
  // nor one costly input sets it. Inputs differ in cost by up to 2x: a
  // mean would follow how many costly ones a seed happened to draw.
  std::vector<double> input_rps;
  for (size_t k = 0; k < num_inputs; ++k) {
    input_rps.push_back(refs[k].readings / Quantile(run_s[k], 0.5));
  }
  const double raw_rps = Quantile(input_rps, 0.5);
  const double raw_setup_s = Quantile(setup_s, 0.5);
  if (latency_ns.empty()) {
    std::fprintf(stderr, "perfbench: the memory latency probe failed\n");
    return 1;
  }
  const double latency = Quantile(latency_ns, 0.5);
  const double to_nominal = NominalScale(latency);
  std::printf("memory latency: median %.1f ns, min %.1f, max %.1f over %zu "
              "probes; times scaled by %.4f\n",
              latency, *std::min_element(latency_ns.begin(), latency_ns.end()),
              *std::max_element(latency_ns.begin(), latency_ns.end()),
              latency_ns.size(), to_nominal);
  const bool correct = failed == 0 && inputs_agree;
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("accuracy series of input 0 (%%):");
  for (double e : refs[0].outcome.error_series) std::printf(" %.2f", e);
  std::printf("\n");
  std::printf("replays: %zu, readings/s min %.0f q1 %.0f median %.0f q3 %.0f "
              "max %.0f\n",
              rps.size(), *std::min_element(rps.begin(), rps.end()),
              Quantile(rps, 0.25), Quantile(rps, 0.5), Quantile(rps, 0.75),
              *std::max_element(rps.begin(), rps.end()));
  if (!inputs_agree) std::printf("input generation is not deterministic\n");

  // Exact for a seed: the same at every thread count and transport. Each
  // is the mean over the run's inputs.
  std::map<std::string, double> outputs;
  const double n = static_cast<double>(num_inputs);
  int64_t wire_bytes = 0;
  for (const Reference& r : refs) {
    wire_bytes += r.outcome.wire_bytes;
    outputs["containment_error_pct"] += r.outcome.error_pct / n;
    if (w.options.site.hierarchical) {
      outputs["case_error_pct"] += r.outcome.case_error_pct / n;
    }
    if (w.queries) {
      outputs["q1_f1_pct"] += r.outcome.q1_f1_pct / n;
      outputs["q2_f1_pct"] += r.outcome.q2_f1_pct / n;
    }
  }
  std::map<std::string, double> e2e = {
      {"readings_per_s_at_100ns", raw_rps / to_nominal},
      {"setup_s", raw_setup_s * to_nominal},
      {"peak_rss_mb", peak_rss},
      {"wire_bytes", static_cast<double>(wire_bytes)},
  };
  std::printf("end-to-end (untraced):\n");
  for (const MetricSpec& m : EndToEndSpecs()) {
    PrintMetric(m.name, e2e[m.name], m.unit);
  }
  for (const auto& [name, value] : outputs) PrintMetric(name, value, "%");

  JsonValue metrics = JsonValue::Object();
  if (args.trace == 0) {
    for (const MetricSpec& m : EndToEndSpecs()) {
      JsonValue v = JsonValue::Object();
      v.Set("value", e2e[m.name]);
      v.Set("unit", m.unit);
      metrics.Set(m.name, std::move(v));
    }
  } else {
    // ---- Traced replay: the system's own phase telemetry on. ----
    DistributedOptions opts = w.options;
    opts.collect_metrics = true;
    opts.trace = true;
    std::filesystem::create_directories(std::string(kOutDir) + "/traces", ec);
    const std::string stem = std::string(kOutDir) + "/traces/" + w.name +
                             "_seed" + std::to_string(w.seed);
    opts.trace_path = stem + ".phases.json";
    std::map<std::string, double> layer;
    double phase_covered_s = 0.0;
    const Replay traced = RunReplay(
        w, opts, rec,
        [&](const DistributedSystem& sys) {
          SystemLayerMetrics(sys, &layer);
          phase_covered_s = PhaseCoveredSeconds(sys);
        });
    check(traced, "traced replay (input 0)", &refs[0]);
    const double threads = std::max(1, w.options.num_threads);
    layer["unattributed_s"] = traced.run_s - phase_covered_s;
    layer["executor.busy_frac"] =
        layer["phase.inference_s"] / (threads * traced.run_s);
    // Traced and untraced throughput of the same input, input 0.
    const double readings = refs[0].readings;
    const double untraced = readings / Quantile(run_s[0], 0.5);
    layer["raw_readings_per_s"] = raw_rps;
    layer["raw_setup_s"] = raw_setup_s;
    layer["host.mem_latency_ns"] = latency;
    layer["untraced_readings_per_s"] = untraced;
    layer["traced_readings_per_s"] = readings / traced.run_s;
    layer["tracing_overhead_pct"] =
        100.0 * (untraced / layer["traced_readings_per_s"] - 1.0);

    // ---- Layer replay of the same input inside the benchmark's spans. ----
    LayerCounts counts;
    {
      ScopedSpan span(rec, "layer.replay");
      counts = ReplayLayers(w, *traced.input, rec);
    }
    const std::map<std::string, double> totals = recorder.TotalSeconds();
    const std::map<std::string, double> self = recorder.SelfSeconds();
    auto total_of = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    layer["sim.generate_s"] = Quantile(generate_s, 0.5);
    layer["sim.readings"] = readings;
    layer["sim.transfers"] =
        static_cast<double>(traced.input->sim->transfers().size());
    layer["trace.seal_s"] = total_of("trace.append_seal");
    layer["inference.colocation_s"] = total_of("inference.colocation");
    layer["inference.boundary_p50_ms"] = Quantile(counts.boundary_ms, 0.50);
    layer["inference.boundary_p99_ms"] = Quantile(counts.boundary_ms, 0.99);
    layer["inference.em_iterations"] =
        static_cast<double>(counts.em_iterations);
    layer["inference.candidates_per_object"] =
        counts.candidate_objects > 0
            ? static_cast<double>(counts.candidates) /
                  static_cast<double>(counts.candidate_objects)
            : 0.0;
    layer["inference.buffered_readings"] =
        static_cast<double>(counts.max_buffered_readings);
    layer["query.events"] = static_cast<double>(counts.query_events);
    layer["query.event_us"] =
        counts.query_events > 0
            ? 1e6 * total_of("query.feed") /
                  static_cast<double>(counts.query_events)
            : 0.0;
    for (const std::string& span : SpanNames()) {
      const auto it = self.find(span);
      layer["self." + span + "_s"] = it == self.end() ? 0.0 : it->second;
    }
    const rfid::Status st = recorder.WriteJson(stem + ".spans.json");
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("traces: %s.phases.json %s.spans.json\n", stem.c_str(),
                stem.c_str());
    std::printf("per-layer (traced):\n");
    for (const MetricSpec& m : PerLayerSpecs()) {
      PrintMetric(m.name, layer[m.name], m.unit);
      JsonValue v = JsonValue::Object();
      v.Set("value", layer[m.name]);
      v.Set("unit", m.unit);
      metrics.Set(m.name, std::move(v));
    }
  }

  PrintMetric("failed_runs_pct", 100.0 * failed / std::max(1, attempted),
              "%");
  {
    JsonValue j = JsonValue::Object();
    for (const auto& [name, value] : outputs) j.Set(name, value);
    j.Set("failed_runs_pct", 100.0 * failed / std::max(1, attempted));
    std::printf("outputs: %s\n", j.Dump(0).c_str());
  }

  JsonValue result = JsonValue::Object();
  result.Set("correct", correct && failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(0).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (args.manifest) {
    std::printf("%s\n", perfbench::Manifest().Dump(2).c_str());
    return 0;
  }
  return perfbench::Run(args);
}
