#include "layers.h"

#include <algorithm>
#include <memory>

#include "dist/ons.h"
#include "inference/colocation.h"
#include "inference/streaming.h"
#include "obs/json.h"
#include "query/queries.h"
#include "trace/trace.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, int64_t boundary) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.boundary = boundary;
  s.start_ns = Now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::map<std::string, double> SpanRecorder::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

rfid::Status SpanRecorder::WriteJson(const std::string& path) const {
  using rfid::obs::JsonValue;
  JsonValue arr = JsonValue::Array();
  for (const Span& s : spans_) {
    JsonValue j = JsonValue::Object();
    j.Set("name", s.name);
    j.Set("parent", s.parent);
    j.Set("boundary", s.boundary);
    j.Set("start_ns", s.start_ns);
    j.Set("end_ns", s.end_ns);
    arr.Append(std::move(j));
  }
  return rfid::obs::WriteJsonFile(arr, path);
}

namespace {

using rfid::Epoch;
using rfid::RawReading;

// One processor of the replay topology: its reading stream, engines,
// queries and sensor slice.
struct Processor {
  std::vector<RawReading> readings;  // canonical (time-sorted) order
  size_t cursor = 0;
  std::unique_ptr<rfid::StreamingInference> items;
  std::unique_ptr<rfid::StreamingInference> cases;  // two-level only
  std::unique_ptr<rfid::ExposureQuery> q1;
  std::unique_ptr<rfid::ExposureQuery> q2;
  std::vector<rfid::SensorReading> sensors;
  size_t sensor_cursor = 0;
  Epoch event_watermark = -1;
};

size_t FirstAfter(const std::vector<RawReading>& rs, Epoch t) {
  return static_cast<size_t>(
      std::upper_bound(rs.begin(), rs.end(), t,
                       [](Epoch v, const RawReading& r) { return v < r.time; }) -
      rs.begin());
}

}  // namespace

LayerCounts ReplayLayers(const Workload& w, const Input& input,
                         SpanRecorder* rec) {
  const rfid::SupplyChainSim& sim = *input.sim;
  const bool central = w.options.mode == rfid::ProcessingMode::kCentralized;
  const rfid::StreamingOptions& sopts = w.options.site.streaming;
  const Epoch horizon = sim.config().horizon;
  const Epoch period = sopts.inference_period;
  LayerCounts counts;

  std::vector<Processor> procs;
  std::unique_ptr<rfid::Ons> ons;
  {
    ScopedSpan span(rec, "layer.setup");
    const int n = central ? 1 : sim.config().num_warehouses;
    procs.resize(static_cast<size_t>(n));
    for (int p = 0; p < n; ++p) {
      Processor& pr = procs[static_cast<size_t>(p)];
      pr.readings = central ? sim.MergedTrace().readings()
                            : sim.site_trace(p).readings();
      pr.items = std::make_unique<rfid::StreamingInference>(
          &sim.model(), &sim.schedule(), sopts);
      if (w.options.site.hierarchical) {
        pr.cases = std::make_unique<rfid::StreamingInference>(
            &sim.model(), &sim.schedule(), sopts);
        pr.cases->SetUniverseKinds(rfid::TagKind::kPallet,
                                   rfid::TagKind::kCase);
      }
      if (w.queries) {
        pr.q1 = std::make_unique<rfid::ExposureQuery>(&input.catalog,
                                                      w.options.q1);
        pr.q2 = std::make_unique<rfid::ExposureQuery>(&input.catalog,
                                                      w.options.q2);
        for (const rfid::SensorReading& r : input.sensors) {
          if (central || sim.layout().SiteOfLocation(r.loc) == p) {
            pr.sensors.push_back(r);
          }
        }
      }
    }
    if (!central) {
      rfid::OnsOptions oo;
      oo.num_shards = n;
      oo.num_sites = n;
      oo.resolver_cache = w.options.directory_cache;
      ons = std::make_unique<rfid::Ons>(oo);
    }
  }

  std::vector<const rfid::ObjectTransfer*> by_depart;
  for (const rfid::ObjectTransfer& tr : sim.transfers()) {
    by_depart.push_back(&tr);
  }
  std::stable_sort(by_depart.begin(), by_depart.end(),
                   [](const rfid::ObjectTransfer* a,
                      const rfid::ObjectTransfer* b) {
                     return a->depart < b->depart;
                   });
  size_t transfer_cursor = 0;

  std::vector<RawReading> upper;
  Epoch prev = -1;
  for (Epoch t = period; prev < horizon; t += period) {
    if (t > horizon) t = horizon;
    ScopedSpan boundary(rec, "layer.boundary", t);
    int64_t buffered = 0;
    for (Processor& pr : procs) {
      const size_t end = FirstAfter(pr.readings, t);
      const RawReading* window = pr.readings.data() + pr.cursor;
      const size_t n = end - pr.cursor;
      pr.cursor = end;
      {
        // The window index and co-location counts the engine builds inside
        // each run, rebuilt here from the recent history so that the two
        // layers can be timed from outside.
        const size_t lo = FirstAfter(pr.readings, t - sopts.recent_history);
        rfid::Trace history;
        {
          ScopedSpan span(rec, "trace.append_seal", t);
          history.Append(pr.readings.data() + lo, end - lo);
          history.Seal();
        }
        ScopedSpan span(rec, "inference.colocation", t);
        const rfid::CoLocationCounter counter =
            rfid::CoLocationCounter::FromTrace(
                history, t - sopts.recent_history + 1, t);
        (void)counter;
      }
      {
        ScopedSpan span(rec, "inference.observe", t);
        pr.items->ObserveBatch(window, n);
        if (pr.cases != nullptr) {
          upper.clear();
          for (size_t i = 0; i < n; ++i) {
            if (!window[i].tag.is_item()) upper.push_back(window[i]);
          }
          if (!upper.empty()) pr.cases->ObserveBatch(upper.data(), upper.size());
        }
      }
      int ran = 0;
      {
        const auto start = std::chrono::steady_clock::now();
        ScopedSpan span(rec, "inference.advance", t);
        if (pr.cases != nullptr) pr.cases->AdvanceTo(t);
        ran = pr.items->AdvanceTo(t);
        if (ran > 0) {
          counts.boundary_ms.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
      }
      buffered += static_cast<int64_t>(pr.items->buffered_readings());
      if (pr.cases != nullptr) {
        buffered += static_cast<int64_t>(pr.cases->buffered_readings());
      }
      if (ran == 0) continue;
      const rfid::RFInfer& engine = pr.items->engine();
      counts.em_iterations += engine.iterations_used();
      for (rfid::TagId o : engine.object_tags()) {
        ++counts.candidate_objects;
        counts.candidates +=
            static_cast<int64_t>(engine.CandidatesOf(o).size());
      }
      if (pr.q1 == nullptr) continue;
      // As the site does: keep item events past the previous boundary, in
      // time order, joined with the latest sensor sample.
      std::vector<rfid::ObjectEvent> events;
      {
        ScopedSpan span(rec, "inference.emit", t);
        for (const rfid::ObjectEvent& e : engine.EmitEvents()) {
          if (e.tag.is_item() && e.time > pr.event_watermark) {
            events.push_back(e);
          }
        }
        pr.event_watermark = t;
        std::stable_sort(events.begin(), events.end(),
                         [](const rfid::ObjectEvent& a,
                            const rfid::ObjectEvent& b) {
                           return a.time < b.time;
                         });
      }
      ScopedSpan span(rec, "query.feed", t);
      for (const rfid::ObjectEvent& e : events) {
        while (pr.sensor_cursor < pr.sensors.size() &&
               pr.sensors[pr.sensor_cursor].time <= e.time) {
          pr.q1->OnSensor(pr.sensors[pr.sensor_cursor]);
          pr.q2->OnSensor(pr.sensors[pr.sensor_cursor]);
          ++pr.sensor_cursor;
        }
        pr.q1->OnEvent(e);
        pr.q2->OnEvent(e);
      }
      counts.query_events += static_cast<int64_t>(events.size());
    }
    counts.max_buffered_readings =
        std::max(counts.max_buffered_readings, buffered);
    if (ons != nullptr) {
      // Directory traffic of the transfers departing in this window: the
      // departing site locates the pallet, then every tag of the group is
      // re-pointed at its destination (or dropped when it leaves).
      ScopedSpan span(rec, "ons.replay", t);
      while (transfer_cursor < by_depart.size() &&
             by_depart[transfer_cursor]->depart <= t) {
        const rfid::ObjectTransfer& tr = *by_depart[transfer_cursor++];
        ons->Resolve(tr.pallet, tr.from);
        auto move = [&](rfid::TagId tag) {
          if (tr.to != rfid::kNoSite) {
            ons->Register(tag, tr.to);
          } else {
            ons->Unregister(tag);
          }
        };
        move(tr.pallet);
        for (rfid::TagId c : tr.cases) move(c);
        for (rfid::TagId i : tr.items) move(i);
      }
    }
    prev = t;
  }
  return counts;
}

}  // namespace perfbench
