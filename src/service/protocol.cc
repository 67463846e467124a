#include "service/protocol.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "dag/spec_io.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "workload/job_profile.h"

namespace dagperf {

namespace {

Json ErrorResponseWithCode(const Json* id, const std::string& code,
                           bool retryable, const std::string& message,
                           double retry_after_ms = 0.0) {
  Json error = Json::MakeObject();
  error.Set("code", Json::MakeString(code));
  error.Set("retryable", Json::MakeBool(retryable));
  error.Set("message", Json::MakeString(message));
  // Server-paced backoff hint (queue-full / fair-share sheds). Emitted only
  // when the server actually set one, so existing error shapes are stable.
  if (retry_after_ms > 0) {
    error.Set("retry_after_ms", Json::MakeNumber(retry_after_ms));
  }
  Json response = Json::MakeObject();
  if (id != nullptr) response.Set("id", *id);
  response.Set("ok", Json::MakeBool(false));
  response.Set("error", std::move(error));
  return response;
}

Json ErrorResponse(const Json* id, const Status& status) {
  return ErrorResponseWithCode(id, ErrorCodeName(status.code()),
                               IsRetryable(status.code()), status.message(),
                               status.retry_after_ms());
}

/// The explicit-null id for responses to lines that never yielded a request
/// object — clients matching pipelined replies by id see the slot consumed.
const Json& NullId() {
  static const Json* null_id = new Json();
  return *null_id;
}

Json OkResponse(const Json* id, Json result) {
  Json response = Json::MakeObject();
  if (id != nullptr) response.Set("id", *id);
  response.Set("ok", Json::MakeBool(true));
  response.Set("result", std::move(result));
  return response;
}

Json StageSpansToJson(const DagWorkflow& flow, const DagEstimate& estimate) {
  Json stages = Json::MakeArray();
  for (const StageSpanEstimate& span : estimate.stages) {
    Json s = Json::MakeObject();
    s.Set("job", Json::MakeString(flow.job(span.job).name));
    s.Set("kind", Json::MakeString(StageKindName(span.kind)));
    s.Set("start_s", Json::MakeNumber(span.start));
    s.Set("end_s", Json::MakeNumber(span.end));
    stages.Append(std::move(s));
  }
  return stages;
}

Json EstimateToJson(const WorkflowEstimate& served, bool explain) {
  Json result = Json::MakeObject();
  result.Set("workflow", Json::MakeString(served.workflow));
  result.Set("cluster", Json::MakeString(served.cluster));
  result.Set("makespan_s", Json::MakeNumber(served.estimate.makespan.seconds()));
  result.Set("states", Json::MakeNumber(
                           static_cast<double>(served.estimate.states.size())));
  result.Set("queue_wait_ms", Json::MakeNumber(served.queue_wait_ms));
  result.Set("service_ms", Json::MakeNumber(served.service_ms));
  // Coalesce tag, emitted only when set so the usual response shape is
  // unchanged: this answer was a copy of an identical in-flight
  // computation's result.
  if (served.coalesced) {
    result.Set("coalesced", Json::MakeBool(true));
  }
  result.Set("stages", StageSpansToJson(*served.flow, served.estimate));
  if (explain) {
    Json path = Json::MakeArray();
    for (const CriticalSegment& segment : served.critical_path) {
      Json s = Json::MakeObject();
      s.Set("job", Json::MakeString(served.flow->job(segment.job).name));
      s.Set("kind", Json::MakeString(StageKindName(segment.kind)));
      s.Set("start_s", Json::MakeNumber(segment.start));
      s.Set("duration_s", Json::MakeNumber(segment.duration));
      path.Append(std::move(s));
    }
    result.Set("critical_path", std::move(path));
  }
  return result;
}

Json SweepToJson(const ServiceSweepResult& served) {
  Json result = Json::MakeObject();
  result.Set("workflow", Json::MakeString(served.workflow));
  result.Set("cluster", Json::MakeString(served.cluster));
  result.Set("service_ms", Json::MakeNumber(served.service_ms));
  Json candidates = Json::MakeArray();
  for (std::size_t i = 0; i < served.sweep.estimates.size(); ++i) {
    const Result<DagEstimate>& estimate = served.sweep.estimates[i];
    Json c = Json::MakeObject();
    if (i < served.nodes_list.size()) {
      c.Set("nodes", Json::MakeNumber(served.nodes_list[i]));
    }
    c.Set("ok", Json::MakeBool(estimate.ok()));
    if (estimate.ok()) {
      c.Set("makespan_s", Json::MakeNumber(estimate.value().makespan.seconds()));
    } else {
      c.Set("code", Json::MakeString(ErrorCodeName(estimate.status().code())));
      c.Set("message", Json::MakeString(estimate.status().message()));
    }
    candidates.Append(std::move(c));
  }
  result.Set("candidates", std::move(candidates));
  const SweepStats& stats = served.sweep.stats;
  if (stats.best_index >= 0 &&
      stats.best_index < static_cast<int>(served.nodes_list.size())) {
    Json best = Json::MakeObject();
    best.Set("nodes", Json::MakeNumber(served.nodes_list[stats.best_index]));
    best.Set("makespan_s", Json::MakeNumber(stats.best_makespan.seconds()));
    result.Set("best", std::move(best));
  }
  Json sweep_stats = Json::MakeObject();
  sweep_stats.Set("completed", Json::MakeNumber(stats.completed));
  sweep_stats.Set("failures", Json::MakeNumber(stats.failures));
  sweep_stats.Set("cancelled", Json::MakeNumber(stats.cancelled));
  sweep_stats.Set("deadline_exceeded", Json::MakeNumber(stats.deadline_exceeded));
  sweep_stats.Set("cache_hit_rate", Json::MakeNumber(stats.cache_hit_rate));
  Json incremental = Json::MakeObject();
  incremental.Set("prefix_hits",
                  Json::MakeNumber(static_cast<double>(stats.prefix_hits)));
  incremental.Set("prefix_misses",
                  Json::MakeNumber(static_cast<double>(stats.prefix_misses)));
  incremental.Set("resumed_states",
                  Json::MakeNumber(static_cast<double>(stats.resumed_states)));
  incremental.Set(
      "checkpoints_stored",
      Json::MakeNumber(static_cast<double>(stats.checkpoints_stored)));
  sweep_stats.Set("incremental", std::move(incremental));
  result.Set("stats", std::move(sweep_stats));
  return result;
}

Json StatsToJson(const ServiceStats& stats) {
  Json result = Json::MakeObject();
  result.Set("submitted", Json::MakeNumber(static_cast<double>(stats.submitted)));
  result.Set("completed", Json::MakeNumber(static_cast<double>(stats.completed)));
  result.Set("failed", Json::MakeNumber(static_cast<double>(stats.failed)));
  result.Set("shed", Json::MakeNumber(static_cast<double>(stats.shed)));
  result.Set("expired_in_queue",
             Json::MakeNumber(static_cast<double>(stats.expired_in_queue)));
  result.Set("queue_depth", Json::MakeNumber(stats.queue_depth));
  result.Set("draining", Json::MakeBool(stats.draining));
  // `ready` is what a health check keys on: false once draining.
  result.Set("ready", Json::MakeBool(stats.ready));
  // Which warm-state epoch the cache/incremental rates below belong to —
  // bumped whenever a drain resets the memo and checkpoint stores, so
  // clients never mix pre- and post-drain hit rates.
  result.Set("stats_epoch",
             Json::MakeNumber(static_cast<double>(stats.stats_epoch)));
  result.Set("workflows", Json::MakeNumber(stats.workflows));
  result.Set("clusters", Json::MakeNumber(stats.clusters));
  Json coalesce = Json::MakeObject();
  coalesce.Set("leaders",
               Json::MakeNumber(static_cast<double>(stats.coalesce_leaders)));
  coalesce.Set("attached",
               Json::MakeNumber(static_cast<double>(stats.coalesce_attached)));
  result.Set("coalesce", std::move(coalesce));
  Json cache = Json::MakeObject();
  cache.Set("hits", Json::MakeNumber(static_cast<double>(stats.cache.hits)));
  cache.Set("misses", Json::MakeNumber(static_cast<double>(stats.cache.misses)));
  cache.Set("entries", Json::MakeNumber(static_cast<double>(stats.cache.entries)));
  cache.Set("hit_rate", Json::MakeNumber(stats.cache.hit_rate()));
  cache.Set("shards", Json::MakeNumber(static_cast<double>(stats.cache.shards)));
  result.Set("cache", std::move(cache));
  Json incremental = Json::MakeObject();
  incremental.Set("hits",
                  Json::MakeNumber(static_cast<double>(stats.incremental.hits)));
  incremental.Set(
      "misses", Json::MakeNumber(static_cast<double>(stats.incremental.misses)));
  incremental.Set(
      "inserts", Json::MakeNumber(static_cast<double>(stats.incremental.inserts)));
  incremental.Set(
      "resumed_states",
      Json::MakeNumber(static_cast<double>(stats.incremental.resumed_states)));
  incremental.Set(
      "entries", Json::MakeNumber(static_cast<double>(stats.incremental.entries)));
  incremental.Set(
      "bytes", Json::MakeNumber(static_cast<double>(stats.incremental.bytes)));
  incremental.Set("hit_rate", Json::MakeNumber(stats.incremental.hit_rate()));
  result.Set("incremental", std::move(incremental));
  Json tenants = Json::MakeArray();
  for (const TenantRegistry::TenantStats& tenant : stats.tenants) {
    Json t = Json::MakeObject();
    t.Set("name", Json::MakeString(tenant.name));
    t.Set("inflight", Json::MakeNumber(tenant.inflight));
    t.Set("queued", Json::MakeNumber(tenant.queued));
    t.Set("submitted",
          Json::MakeNumber(static_cast<double>(tenant.submitted)));
    t.Set("completed",
          Json::MakeNumber(static_cast<double>(tenant.completed)));
    t.Set("failed", Json::MakeNumber(static_cast<double>(tenant.failed)));
    t.Set("shed_total",
          Json::MakeNumber(static_cast<double>(tenant.shed_total)));
    t.Set("cpu_ms", Json::MakeNumber(tenant.cpu_ms));
    t.Set("ema_cost_ms", Json::MakeNumber(tenant.ema_cost_ms));
    tenants.Append(std::move(t));
  }
  result.Set("tenants", std::move(tenants));
  return result;
}

Json WindowReportToJson(const obs::SloTracker::WindowReport& w) {
  Json j = Json::MakeObject();
  j.Set("window_s", Json::MakeNumber(w.window_seconds));
  j.Set("count", Json::MakeNumber(static_cast<double>(w.count)));
  j.Set("errors", Json::MakeNumber(static_cast<double>(w.errors)));
  j.Set("rps", Json::MakeNumber(w.rps));
  j.Set("p50_ms", Json::MakeNumber(w.p50_ms));
  j.Set("p99_ms", Json::MakeNumber(w.p99_ms));
  j.Set("mean_ms", Json::MakeNumber(w.mean_ms));
  j.Set("error_rate", Json::MakeNumber(w.error_rate));
  j.Set("deadline_hit_rate", Json::MakeNumber(w.deadline_hit_rate));
  j.Set("frac_over_objective", Json::MakeNumber(w.frac_over_objective));
  j.Set("availability_burn", Json::MakeNumber(w.availability_burn));
  j.Set("latency_burn", Json::MakeNumber(w.latency_burn));
  return j;
}

Json SloReportToJson(const obs::SloTracker::Report& report) {
  Json result = Json::MakeObject();
  Json objectives = Json::MakeObject();
  objectives.Set("p99_ms", Json::MakeNumber(report.objectives.p99_ms));
  objectives.Set("availability",
                 Json::MakeNumber(report.objectives.availability));
  result.Set("objectives", std::move(objectives));
  Json total = Json::MakeArray();
  for (const auto& window : report.total) {
    total.Append(WindowReportToJson(window));
  }
  result.Set("total", std::move(total));
  Json by_class = Json::MakeObject();
  for (const auto& cls : report.by_class) {
    Json windows = Json::MakeArray();
    for (const auto& window : cls.windows) {
      windows.Append(WindowReportToJson(window));
    }
    by_class.Set(obs::OpClassName(cls.op), std::move(windows));
  }
  result.Set("by_class", std::move(by_class));
  return result;
}

/// Parses one wire line into a request object. Returns false (and fills
/// *error_line with the protocol-shaped error response) when the line is
/// not valid JSON or not an object.
bool ParseRequestLine(const std::string& line, Json* request,
                      std::string* error_line) {
  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) {
    // Malformed JSON is a protocol-level failure, not a service error: the
    // stable code PARSE_ERROR (never retryable — resending the same bytes
    // cannot help) with an explicit null id, so a pipelining client sees
    // the response slot consumed instead of a silent skip.
    *error_line = ErrorResponseWithCode(&NullId(), "PARSE_ERROR", false,
                                        parsed.status().message())
                      .DumpCompact();
    return false;
  }
  if (parsed.value().type() != Json::Type::kObject) {
    *error_line =
        ErrorResponse(&NullId(),
                      Status::InvalidArgument("request must be a JSON object"))
            .DumpCompact();
    return false;
  }
  *request = std::move(parsed).value();
  return true;
}

/// Builds a request from the fields every estimating op shares (workflow /
/// inline flow / cluster / tenant / deadline). Fails on a malformed inline
/// flow or field value.
Result<EstimateRequest> RequestFromWire(const Json& request) {
  std::string workflow = request.GetString("workflow", "");
  std::shared_ptr<const DagWorkflow> flow;
  if (const Json* inline_flow = request.Get("flow"); inline_flow != nullptr) {
    Result<DagWorkflow> parsed = WorkflowFromJson(*inline_flow);
    if (!parsed.ok()) return parsed.status();
    flow = std::make_shared<const DagWorkflow>(std::move(parsed).value());
  }
  if (workflow.empty() && flow == nullptr) {
    return Status::InvalidArgument(
        "request must carry \"workflow\" (a registered name) or an inline "
        "\"flow\" document");
  }
  if (!workflow.empty() && flow != nullptr) {
    return Status::InvalidArgument(
        "\"workflow\" and \"flow\" are mutually exclusive");
  }
  const double deadline_s = request.GetNumber("deadline_s", 0.0);
  if (deadline_s < 0) {
    return Status::InvalidArgument("\"deadline_s\" must be >= 0");
  }
  EstimateRequest built = flow != nullptr
                              ? EstimateRequest::For(std::move(flow))
                              : EstimateRequest::For(std::move(workflow));
  built.OnCluster(request.GetString("cluster", ""))
      .AsTenant(request.GetString("tenant", ""))
      .WithBudget(Budget::Within(deadline_s));
  return built;
}

}  // namespace

Protocol::Protocol(EstimationService* service) : service_(service) {}

std::string Protocol::HandleLine(const std::string& line) {
  ++requests_handled_;
  Json request;
  std::string error_line;
  if (!ParseRequestLine(line, &request, &error_line)) return error_line;
  return HandleRequest(request);
}

void Protocol::HandleLineStreaming(const std::string& line,
                                   const LineSink& sink) {
  ++requests_handled_;
  Json request;
  std::string error_line;
  if (!ParseRequestLine(line, &request, &error_line)) {
    sink(error_line);
    return;
  }
  if (request.GetString("op", "") == "watch") {
    RunWatch(request, request.Get("id"), sink, /*single_frame=*/false);
    return;
  }
  sink(HandleRequest(request));
}

std::string Protocol::HandleRequest(const Json& request) {
  const Json* id = request.Get("id");
  const std::string op = request.GetString("op", "");

  if (op == "estimate" || op == "explain") {
    Result<EstimateRequest> built = RequestFromWire(request);
    if (!built.ok()) return ErrorResponse(id, built.status()).DumpCompact();
    const double nodes = request.GetNumber("nodes", 0.0);
    const int node_count = static_cast<int>(nodes);
    if (nodes < 0 || nodes != static_cast<double>(node_count)) {
      return ErrorResponse(
                 id, Status::InvalidArgument("\"nodes\" must be a non-negative "
                                             "integer"))
          .DumpCompact();
    }
    EstimateRequest& estimate = built.value();
    estimate.WithNodes(node_count).WithExplain(op == "explain");
    // Wire "coalesce": false opts this request out of in-flight coalescing.
    if (!request.GetBool("coalesce", true)) estimate.WithoutCoalescing();
    Result<EstimateResponse> served = service_->Submit(std::move(estimate)).get();
    if (!served.ok()) return ErrorResponse(id, served.status()).DumpCompact();
    return OkResponse(id, EstimateToJson(*served.value().estimate,
                                         op == "explain"))
        .DumpCompact();
  }

  if (op == "sweep") {
    Result<EstimateRequest> built = RequestFromWire(request);
    if (!built.ok()) return ErrorResponse(id, built.status()).DumpCompact();
    const Json* nodes_list = request.Get("nodes_list");
    if (nodes_list == nullptr || nodes_list->type() != Json::Type::kArray) {
      return ErrorResponse(id, Status::InvalidArgument(
                                   "sweep requires a \"nodes_list\" array"))
          .DumpCompact();
    }
    std::vector<int> node_counts;
    for (const Json& entry : nodes_list->AsArray()) {
      if (entry.type() != Json::Type::kNumber || entry.AsNumber() < 1 ||
          entry.AsNumber() != std::floor(entry.AsNumber())) {
        return ErrorResponse(id, Status::InvalidArgument(
                                     "\"nodes_list\" entries must be integers "
                                     ">= 1"))
            .DumpCompact();
      }
      node_counts.push_back(static_cast<int>(entry.AsNumber()));
    }
    if (node_counts.empty()) {
      return ErrorResponse(id, Status::InvalidArgument(
                                   "sweep has an empty nodes list"))
          .DumpCompact();
    }
    // A wire "hedge" field (hedged sweeps, removed in 0.10) is accepted and
    // ignored, so old clients get the same answer as before.
    built.value().SweepNodes(std::move(node_counts));
    Result<EstimateResponse> served = service_->Submit(std::move(built).value()).get();
    if (!served.ok()) return ErrorResponse(id, served.status()).DumpCompact();
    return OkResponse(id, SweepToJson(*served.value().sweep)).DumpCompact();
  }

  if (op == "stats") {
    return OkResponse(id, StatsToJson(service_->Stats())).DumpCompact();
  }

  if (op == "slo") {
    const obs::SloTracker::Report report = service_->slo_tracker().Snapshot();
    // Refresh the slo.* gauges alongside the report so a Prometheus scrape
    // racing this verb sees the same windowed figures.
    service_->slo_tracker().PublishGauges(report);
    return OkResponse(id, SloReportToJson(report)).DumpCompact();
  }

  if (op == "flightrecorder") {
    // FlightRecorder serialises itself (obs sits below common and cannot
    // use common/json); round-trip through the parser to splice the dump
    // into the response document.
    Result<Json> dump = Json::Parse(service_->flight_recorder().ToJson());
    if (!dump.ok()) {
      return ErrorResponse(id, Status::Internal("flight recorder dump: " +
                                                dump.status().message()))
          .DumpCompact();
    }
    return OkResponse(id, std::move(dump).value()).DumpCompact();
  }

  if (op == "metrics") {
    const std::string format = request.GetString("format", "json");
    if (format == "prom") {
      Json result = Json::MakeObject();
      result.Set("content_type",
                 Json::MakeString("text/plain; version=0.0.4; charset=utf-8"));
      result.Set("text", Json::MakeString(obs::WritePrometheusText()));
      return OkResponse(id, std::move(result)).DumpCompact();
    }
    if (format != "json") {
      return ErrorResponse(id,
                           Status::InvalidArgument(
                               "\"format\" must be \"json\" or \"prom\""))
          .DumpCompact();
    }
    Result<Json> parsed = Json::Parse(obs::MetricsRegistry::Default().ToJson());
    if (!parsed.ok()) {
      return ErrorResponse(id, Status::Internal("metrics snapshot: " +
                                                parsed.status().message()))
          .DumpCompact();
    }
    return OkResponse(id, std::move(parsed).value()).DumpCompact();
  }

  if (op == "watch") {
    // One-shot entry point: a single frame, immediately. Streaming happens
    // only through HandleLineStreaming, where the transport can observe
    // backpressure and disconnects.
    std::string frame;
    RunWatch(request, id,
             [&frame](const std::string& response_line) {
               frame = response_line;
               return true;
             },
             /*single_frame=*/true);
    return frame;
  }

  if (op == "drain") {
    Result<int> inflight = service_->Drain();
    if (!inflight.ok()) return ErrorResponse(id, inflight.status()).DumpCompact();
    drain_requested_ = true;
    Json result = Json::MakeObject();
    result.Set("drained", Json::MakeBool(true));
    result.Set("inflight", Json::MakeNumber(inflight.value()));
    return OkResponse(id, std::move(result)).DumpCompact();
  }

  return ErrorResponse(
             id, Status::InvalidArgument(
                     op.empty()
                         ? "request carries no \"op\""
                         : "unknown op \"" + op +
                               "\" (estimate|explain|sweep|stats|slo|"
                               "flightrecorder|metrics|watch|drain)"))
      .DumpCompact();
}

void Protocol::RunWatch(const Json& request, const Json* id,
                        const LineSink& sink, bool single_frame) {
  const double interval_raw = request.GetNumber("interval_ms", 1000.0);
  if (interval_raw < 0) {
    sink(ErrorResponse(id, Status::InvalidArgument(
                               "\"interval_ms\" must be >= 0"))
             .DumpCompact());
    return;
  }
  const double interval_ms = std::min(60000.0, std::max(10.0, interval_raw));
  const double count_raw = request.GetNumber("count", 0.0);
  if (count_raw < 0 || count_raw != std::floor(count_raw)) {
    sink(ErrorResponse(id, Status::InvalidArgument(
                               "\"count\" must be a non-negative integer "
                               "(0 = unbounded)"))
             .DumpCompact());
    return;
  }
  const std::uint64_t max_frames = static_cast<std::uint64_t>(count_raw);
  std::uint64_t seq = 0;
  for (;;) {
    ++seq;  // Frames are 1-based: "seq":1 is the first frame of the stream.
    const obs::SloTracker::Report report = service_->slo_tracker().Snapshot();
    service_->slo_tracker().PublishGauges(report);
    Json frame = Json::MakeObject();
    frame.Set("seq", Json::MakeNumber(static_cast<double>(seq)));
    frame.Set("ts_us", Json::MakeNumber(obs::MonotonicUs()));
    frame.Set("stats", StatsToJson(service_->Stats()));
    frame.Set("slo_10s", WindowReportToJson(report.total[0]));
    frame.Set("slo_1m", WindowReportToJson(report.total[1]));
    // Per-cluster breaker states (0 closed / 1 open / 2 half-open) so a
    // watch client renders serving health without a second round-trip.
    Json breakers = Json::MakeObject();
    const obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::Default().Snap();
    for (const auto& [name, value] : snap.gauges) {
      if (name.rfind("resilience.breaker_state", 0) == 0) {
        breakers.Set(name, Json::MakeNumber(value));
      }
    }
    frame.Set("breakers", std::move(breakers));
    if (!sink(OkResponse(id, std::move(frame)).DumpCompact())) return;
    if (single_frame) return;
    if (max_frames != 0 && seq >= max_frames) return;
    if (service_->draining()) return;
    // Sleep in short slices so a drain cuts the subscription off promptly
    // instead of holding shutdown hostage for a full interval.
    double remaining_ms = interval_ms;
    while (remaining_ms > 0.0) {
      const double slice_ms = std::min(remaining_ms, 50.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice_ms));
      remaining_ms -= slice_ms;
      if (service_->draining()) return;
    }
  }
}

std::string Protocol::TransportErrorLine(const Status& status) {
  return ErrorResponse(&NullId(), status).DumpCompact();
}

}  // namespace dagperf
