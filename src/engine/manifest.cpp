#include "engine/manifest.hpp"

#include <algorithm>
#include <vector>

#include "obs/json_util.hpp"
#include "obs/recorder.hpp"

namespace engine {

namespace {

/// Line-oriented JSON emitter: every scalar on its own line, fixed key
/// order, to_chars numbers — the whole file is greppable and diffable.
class JsonLines {
 public:
  explicit JsonLines(std::string& out) : out_(out) {}

  void open(const char* brace) {  // "{" or "["
    key(nullptr);
    out_ += brace;
    out_ += '\n';
    ++depth_;
    firstInScope_ = true;
  }
  void openKeyed(const char* name, const char* brace) {
    key(name);
    out_ += brace;
    out_ += '\n';
    ++depth_;
    firstInScope_ = true;
  }
  void close(const char* brace) {  // "}" or "]"
    --depth_;
    out_ += '\n';
    indent();
    out_ += brace;
    firstInScope_ = false;
  }

  void field(const char* name, const std::string& rendered) {
    key(name);
    out_ += rendered;
  }
  void str(const char* name, const std::string& value) {
    key(name);
    out_ += '"';
    obs::jsonEscapeTo(out_, value);
    out_ += '"';
  }
  void u64(const char* name, std::uint64_t value) {
    field(name, std::to_string(value));
  }
  void dbl(const char* name, double value) {
    field(name, obs::formatJsonDouble(value));
  }

 private:
  void key(const char* name) {
    if (!firstInScope_) {
      out_ += ",\n";
    }
    firstInScope_ = false;
    indent();
    if (name != nullptr) {
      out_ += '"';
      out_ += name;
      out_ += "\": ";
    }
  }
  void indent() { out_.append(2 * depth_, ' '); }

  std::string& out_;
  int depth_ = 0;
  bool firstInScope_ = true;
};

void writeJob(JsonLines& json, const JobResult& job,
              const ManifestOptions& opt) {
  json.open("{");
  json.u64("job", job.jobIndex);
  json.str("key", job.spec.toLine());
  json.str("status", job.ok ? "ok" : "error");
  if (!job.ok) json.str("error", job.error);
  json.u64("makespan_ns", job.makespanNs);
  json.dbl("slowdown", job.slowdown);
  json.u64("messages", job.net.messagesDelivered);
  json.u64("segments", job.net.segmentsDelivered);
  json.u64("events", job.net.eventsProcessed);
  json.u64("max_out_queue", job.net.maxOutputQueueDepth);
  json.u64("max_in_queue", job.net.maxInputQueueDepth);
  if (opt.includeHost) {
    json.dbl("wall_ms", static_cast<double>(job.wallNs) / 1e6);
    const double wallSec = static_cast<double>(job.wallNs) / 1e9;
    json.dbl("events_per_sec",
             wallSec > 0.0
                 ? static_cast<double>(job.net.eventsProcessed) / wallSec
                 : 0.0);
  }
  if (job.openLoop) {
    json.openKeyed("open_loop", "{");
    json.dbl("offered_load", job.offeredLoad);
    json.dbl("accepted_load", job.acceptedLoad);
    json.u64("latency_samples", job.latencySamples);
    json.u64("latency_p50_ns", job.latencyP50Ns);
    json.u64("latency_p99_ns", job.latencyP99Ns);
    json.close("}");
  }
  if (!job.spec.faults.empty()) {
    json.openKeyed("faults", "{");
    json.str("plan", job.spec.faults);
    json.u64("segments_rerouted", job.net.segmentsRerouted);
    json.u64("segments_stranded", job.net.segmentsStranded);
    json.u64("messages_dropped", job.net.messagesDropped);
    json.u64("link_down_ns", job.net.linkDownNs);
    json.close("}");
  }
  if (job.telemetry) {
    const obs::RecorderSummary t = job.telemetry->summary();
    json.openKeyed("telemetry", "{");
    json.u64("samples", t.samples);
    json.u64("effective_period_ns", t.effectivePeriodNs);
    json.u64("events_recorded", t.eventsRecorded);
    json.u64("events_dropped", t.eventsDropped);
    json.u64("messages_released", t.messagesReleased);
    json.u64("messages_delivered", t.messagesDelivered);
    json.u64("peak_inflight", t.peakInFlight);
    json.u64("peak_queued_segments", t.peakQueuedSegments);
    json.u64("peak_queue_depth", t.peakQueueDepth);
    json.u64("peak_queue_port", t.peakQueuePort);
    json.u64("peak_blocked_inputs", t.peakBlockedInputs);
    json.dbl("peak_group_util", t.peakGroupUtil);
    json.str("peak_group_label", t.peakGroupLabel);
    json.close("}");
  }
  json.close("}");
}

}  // namespace

void writeManifest(std::ostream& os, const CampaignResults& results,
                   const ManifestOptions& opt) {
  os << manifestToJson(results, opt);
}

std::string manifestToJson(const CampaignResults& results,
                           const ManifestOptions& opt) {
  std::vector<const JobResult*> ordered;
  ordered.reserve(results.jobs.size());
  for (const JobResult& job : results.jobs) ordered.push_back(&job);
  std::sort(ordered.begin(), ordered.end(),
            [](const JobResult* a, const JobResult* b) {
              return a->jobIndex < b->jobIndex;
            });

  // Faulted campaigns bump the schema (per-job "faults" blocks, degraded
  // cache counters), and campaigns that consulted interval-compressed
  // forwarding tables bump it again (compressed cache counters plus the
  // campaign "forwarding" memory block); campaigns using neither emit v1
  // byte-for-byte.  The compressed gate counts memo lookups, which are
  // per-job deterministic — never thread-count dependent.
  const bool faulted = results.hasFaultJobs();
  const bool compressed =
      results.cache.compressedHits + results.cache.compressedMisses > 0;
  std::string out;
  JsonLines json(out);
  json.open("{");
  json.str("schema", compressed ? "xgft-manifest-v3"
                     : faulted  ? "xgft-manifest-v2"
                                : "xgft-manifest-v1");
  json.openKeyed("campaign", "{");
  json.u64("jobs", results.jobs.size());
  if (opt.includeHost) {
    json.u64("threads", results.threadsUsed);
    json.dbl("wall_ms", static_cast<double>(results.wallTimeNs) / 1e6);
  }
  json.openKeyed("cache", "{");
  json.u64("topology_hits", results.cache.topologyHits);
  json.u64("topology_misses", results.cache.topologyMisses);
  json.u64("router_hits", results.cache.routerHits);
  json.u64("router_misses", results.cache.routerMisses);
  json.u64("table_hits", results.cache.tableHits);
  json.u64("table_misses", results.cache.tableMisses);
  json.u64("reference_hits", results.cache.referenceHits);
  json.u64("reference_misses", results.cache.referenceMisses);
  if (faulted) {
    json.u64("degraded_hits", results.cache.degradedHits);
    json.u64("degraded_misses", results.cache.degradedMisses);
  }
  if (compressed) {
    json.u64("compressed_hits", results.cache.compressedHits);
    json.u64("compressed_misses", results.cache.compressedMisses);
  }
  json.close("}");
  if (compressed) {
    // Deterministic memory picture: the compressed tables depend only on
    // the routers the jobs asked for.
    json.openKeyed("forwarding", "{");
    json.u64("table_bytes_flat", results.forwarding.tableBytesFlat);
    json.u64("table_bytes_compressed",
             results.forwarding.tableBytesCompressed);
    json.close("}");
  }
  json.close("}");
  json.openKeyed("jobs", "[");
  for (const JobResult* job : ordered) writeJob(json, *job, opt);
  json.close("]");
  json.close("}");
  out += '\n';
  return out;
}

}  // namespace engine
