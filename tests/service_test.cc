// Tests of the estimation service layer (src/service/): admission control
// and load shedding, deadline expiry inside the queue, graceful drain with
// requests in flight, cross-request memo reuse (asserted through the obs
// counters), and the NDJSON wire protocol.

#include "service/service.h"

#include <cmath>
#include <future>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "dag/spec_io.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service_testing.h"
#include "workloads/suite.h"
#include "workloads/web_analytics.h"

namespace dagperf {
namespace {

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

TEST(ServiceTest, EstimatesRegisteredWorkflow) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<WorkflowEstimate> served = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GT(served.value().estimate.makespan.seconds(), 0.0);
  EXPECT_EQ(served.value().workflow, "q6");
  EXPECT_EQ(served.value().cluster, "default");
  EXPECT_TRUE(served.value().critical_path.empty());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceTest, ExplainFillsCriticalPath) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Result<WorkflowEstimate> served =
      ServeEstimate(service, EstimateRequest::For("q6").WithExplain());
  ASSERT_TRUE(served.ok());
  ASSERT_FALSE(served.value().critical_path.empty());
  // Critical-path segments partition the timeline: durations sum to the
  // makespan.
  double total = 0.0;
  for (const CriticalSegment& s : served.value().critical_path) {
    total += s.duration;
  }
  EXPECT_NEAR(total, served.value().estimate.makespan.seconds(), 1e-9);
}

TEST(ServiceTest, UnknownNamesFailFast) {
  EstimationService service;
  Result<WorkflowEstimate> served =
      ServeEstimate(service, EstimateRequest::For("no-such-flow"));
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), ErrorCode::kNotFound);

  Result<WorkflowEstimate> empty = ServeEstimate(service, EstimateRequest());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kInvalidArgument);

  Result<WorkflowEstimate> cluster =
      ServeEstimate(service, EstimateRequest::For("no-such-flow")
                                 .OnCluster("no-such-cluster"));
  EXPECT_FALSE(cluster.ok());
}

TEST(ServiceTest, RegistrationRunsValidationFirewall) {
  EstimationService service;
  ClusterSpec bad = ClusterSpec::PaperCluster();
  bad.num_nodes = -3;
  const Status status = service.RegisterCluster("bad", bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(ServiceTest, QueueFullShedsWithResourceExhausted) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // First request occupies the only worker, blocked inside the source.
  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // The queue (depth 1) is now full: the next submit must be shed, not
  // queued — its future is ready immediately.
  std::future<Result<EstimateResponse>> shed = service.Submit(EstimateRequest::For("q6"));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  Result<EstimateResponse> shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(shed_result.status().code()));

  gate.Open();
  ASSERT_TRUE(inflight.get().ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
}

TEST(ServiceTest, DeadlineExpiresInQueue) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Queued behind the blocked worker with a deadline that expires while it
  // waits: the worker must reject it at dequeue without estimating. Opted
  // out of coalescing — attaching to the in-flight computation would serve
  // it from the leader instead of letting it expire in the queue.
  std::future<Result<EstimateResponse>> expired =
      service.Submit(EstimateRequest::For("q6").WithoutCoalescing().WithDeadline(0.01));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  Result<EstimateResponse> result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
  ASSERT_TRUE(inflight.get().ok());
  EXPECT_EQ(service.Stats().expired_in_queue, 1u);
}

TEST(ServiceTest, DrainWaitsForInflightAndRejectsNewWork) {
  ServiceOptions options;
  options.threads = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  std::promise<Result<int>> drained_promise;
  std::future<Result<int>> drained = drained_promise.get_future();
  std::thread drainer([&] { drained_promise.set_value(service.Drain()); });

  // The drain must not finish while the estimate is still blocked.
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_TRUE(service.draining());

  // New work is rejected while draining, with a non-retryable code.
  Result<WorkflowEstimate> rejected = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kFailedPrecondition);

  gate.Open();
  drainer.join();
  Result<int> drain_result = drained.get();
  ASSERT_TRUE(drain_result.ok());
  EXPECT_GE(drain_result.value(), 1);
  ASSERT_TRUE(inflight.get().ok());
}

TEST(ServiceTest, MemoIsReusedAcrossRequests) {
  obs::SetMetricsEnabled(true);
  obs::Counter& hits = obs::MetricsRegistry::Default().GetCounter("memo.hits");
  const std::uint64_t hits_before = hits.value();

  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  Result<WorkflowEstimate> cold = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_TRUE(cold.ok());
  const TaskTimeMemo::Stats after_cold = service.Stats().cache;
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.misses, 0u);

  // The identical request again resumes from the cross-request checkpoint
  // store — the whole replay is skipped, so the memo is never even queried —
  // and the answer must be bit-identical.
  Result<WorkflowEstimate> warm = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().estimate.makespan.seconds(),
            cold.value().estimate.makespan.seconds());
  const PrefixCheckpointStore::Stats incremental = service.Stats().incremental;
  EXPECT_GT(incremental.hits, 0u);
  EXPECT_GT(incremental.resumed_states, 0u);

  // With the checkpoints gone the request replays in full, and every
  // task-time query must hit the cross-request memo.
  service.checkpoints().Clear();
  Result<WorkflowEstimate> replay = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().estimate.makespan.seconds(),
            cold.value().estimate.makespan.seconds());

  const TaskTimeMemo::Stats after_warm = service.Stats().cache;
  EXPECT_GT(after_warm.hits, 0u);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hit_rate(), 0.0);

  // The memo's own obs counter observed the hits too (the service shares
  // the library-wide "memo.*" instrumentation).
  EXPECT_GT(hits.value(), hits_before);
  obs::SetMetricsEnabled(false);
}

TEST(ServiceTest, PerClusterCacheScopesNeverAlias) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  // Halve every I/O path so task times differ no matter which resource the
  // flow bottlenecks on.
  ClusterSpec other = ClusterSpec::PaperCluster();
  other.node.disk_read_bw = Rate::MBps(100);
  other.node.disk_write_bw = Rate::MBps(90);
  other.node.network_bw = Rate::MBps(60);
  ASSERT_TRUE(service.RegisterCluster("big-nodes", other).ok());

  Result<WorkflowEstimate> base = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_TRUE(base.ok());

  // Same workflow on different hardware: the scoped memo must not serve the
  // default cluster's entries, so the answers differ.
  Result<WorkflowEstimate> big =
      ServeEstimate(service, EstimateRequest::For("q6").OnCluster("big-nodes"));
  ASSERT_TRUE(big.ok());
  EXPECT_NE(base.value().estimate.makespan.seconds(),
            big.value().estimate.makespan.seconds());
}

TEST(ServiceTest, SweepSharesMemoAndFindsBest) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Result<ServiceSweepResult> served =
      ServeSweep(service, EstimateRequest::For("q6").SweepNodes({2, 4, 8}));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const SweepResult& result = served.value().sweep;
  ASSERT_EQ(result.estimates.size(), 3u);
  EXPECT_EQ(result.stats.completed, 3);
  ASSERT_GE(result.stats.best_index, 0);
  // More nodes, faster: best candidate is the largest cluster.
  EXPECT_EQ(served.value().nodes_list[result.stats.best_index], 8);
}

TEST(ServiceTest, SweepWhileDrainingFailsPrecondition) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  ASSERT_TRUE(service.Drain().ok());

  Result<ServiceSweepResult> rejected =
      ServeSweep(service, EstimateRequest::For("q6").SweepNodes({2, 4}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kFailedPrecondition);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed, 0u);
}

TEST(ServiceTest, SweepAgainstFullQueueIsShed) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> inflight =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // A sweep takes one admission slot like an estimate: with the only slot
  // held it is shed at once, with a retry hint.
  std::future<Result<EstimateResponse>> shed =
      service.Submit(EstimateRequest::For("q6").SweepNodes({2, 4, 8}));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  Result<EstimateResponse> shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_GT(shed_result.status().retry_after_ms(), 0.0);

  gate.Open();
  ASSERT_TRUE(inflight.get().ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].name, "default");
  EXPECT_EQ(stats.tenants[0].shed_total, 1u);
}

TEST(ServiceTest, TenantAccountingBalancesAcrossEstimatesAndSweeps) {
  ServiceOptions options;
  options.threads = 2;
  options.max_queue_depth = 4;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::vector<std::future<Result<EstimateResponse>>> futures;
  futures.push_back(service.Submit(EstimateRequest::For("q6").AsTenant("alice")));
  gate.WaitUntilEntered();
  // A burst against a four-slot queue while the gate holds the first
  // estimate: some requests queue, some attach, the rest are shed, and one
  // names no registered workflow, so it fails on its worker.
  futures.push_back(service.Submit(
      EstimateRequest::For("q6").AsTenant("bob").SweepNodes({2, 4})));
  futures.push_back(service.Submit(EstimateRequest::For("q6").AsTenant("alice")));
  futures.push_back(
      service.Submit(EstimateRequest::For("no-such-flow").AsTenant("bob")));
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(
        EstimateRequest::For("q6").AsTenant("alice").SweepNodes({4, 8})));
    futures.push_back(service.Submit(
        EstimateRequest::For("q6").AsTenant("bob").WithNodes(4 + i)));
  }
  gate.Open();
  for (auto& future : futures) future.get();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.shed);
  EXPECT_GE(stats.failed, 1u);
  EXPECT_GE(stats.shed, 1u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  std::uint64_t tenant_shed = 0;
  for (const TenantRegistry::TenantStats& tenant : stats.tenants) {
    EXPECT_EQ(tenant.submitted,
              tenant.completed + tenant.failed + tenant.shed_total +
                  static_cast<std::uint64_t>(tenant.inflight + tenant.queued))
        << tenant.name;
    EXPECT_EQ(tenant.inflight, 0) << tenant.name;
    EXPECT_EQ(tenant.queued, 0) << tenant.name;
    tenant_shed += tenant.shed_total;
  }
  EXPECT_EQ(tenant_shed, stats.shed);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(ServiceTest, BatchAdmitsIndependently) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(EstimateRequest::For("q6")));
  }
  // Queue depth 2: the burst's tail is shed, the head is queued.
  ASSERT_EQ(futures[2].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(futures[2].get().status().code(), ErrorCode::kResourceExhausted);
  gate.Open();
  EXPECT_TRUE(futures[0].get().ok());
  EXPECT_TRUE(futures[1].get().ok());
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ProtocolTest, EstimateRoundTrip) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);

  const std::string response =
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":42})");
  Result<Json> parsed = Json::Parse(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed.value().GetBool("ok", false));
  EXPECT_EQ(parsed.value().GetNumber("id", -1), 42);
  const Json* result = parsed.value().Get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->GetNumber("makespan_s", 0.0), 0.0);
  EXPECT_EQ(result->GetString("workflow", ""), "q6");
  // One line, compact: the NDJSON framing invariant.
  EXPECT_EQ(response.find('\n'), std::string::npos);
}

TEST(ProtocolTest, ErrorsUseStableCodeVocabulary) {
  EstimationService service;
  Protocol protocol(&service);

  const auto error_code = [&](const std::string& line) {
    Result<Json> parsed = Json::Parse(protocol.HandleLine(line));
    EXPECT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().GetBool("ok", true));
    const Json* error = parsed.value().Get("error");
    return error == nullptr ? std::string() : error->GetString("code", "");
  };

  // Malformed JSON is the protocol-level PARSE_ERROR (never retryable, with
  // an explicit null id); valid-but-wrong-shaped documents keep the status
  // vocabulary.
  EXPECT_EQ(error_code("this is not json"), "PARSE_ERROR");
  EXPECT_EQ(error_code("[1,2,3]"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"bogus"})"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"estimate"})"), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"estimate","workflow":"nope"})"), "NOT_FOUND");
  EXPECT_EQ(error_code(R"({"op":"sweep","workflow":"nope"})"),
            "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(R"({"op":"sweep","workflow":"nope","nodes_list":[]})"),
            "INVALID_ARGUMENT");
  EXPECT_FALSE(protocol.drain_requested());
}

TEST(ProtocolTest, SweepIgnoresWireHedgeField) {
  // Hedged sweeps were removed in 0.10: a client still sending "hedge":true
  // gets exactly the answer of the same line without it, and no response
  // carries hedge accounting. One worker keeps the memo counts repeatable.
  const auto sweep_result = [](const std::string& line) {
    ServiceOptions options;
    options.threads = 1;
    EstimationService service(options);
    EXPECT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
    Protocol protocol(&service);
    const std::string response = protocol.HandleLine(line);
    EXPECT_EQ(response.find("hedges"), std::string::npos) << response;
    Result<Json> parsed = Json::Parse(response);
    if (!parsed.ok() || !parsed.value().GetBool("ok", false)) {
      ADD_FAILURE() << response;
      return std::string();
    }
    Json result = *parsed.value().Get("result");
    result.Set("service_ms", Json::MakeNumber(0.0));  // Wall-clock timing.
    return result.DumpCompact();
  };
  EXPECT_EQ(
      sweep_result(
          R"({"op":"sweep","workflow":"q6","nodes_list":[2,4,8],"hedge":true})"),
      sweep_result(R"({"op":"sweep","workflow":"q6","nodes_list":[2,4,8]})"));
}

TEST(ProtocolTest, InputsThatOnceAbortedTheWaterFillAnswerOk) {
  // Both estimates reach the rate solver's water-fill with wants that fit a
  // resource when summed in sorted order but not in input order; the
  // resource is unsaturated and each request must answer.
  struct Case {
    const char* workflow;
    double scale;
    int nodes;
  };
  for (const Case& c : {Case{"WC-Q20", 0.2, 7}, Case{"TS-Q18", 1.0, 61}}) {
    EstimationService service;
    Result<NamedFlow> named = TableThreeFlow(c.workflow, c.scale);
    ASSERT_TRUE(named.ok()) << named.status().ToString();
    ASSERT_TRUE(
        service.RegisterWorkflow(c.workflow, std::move(named).value().flow).ok());
    Protocol protocol(&service);
    const std::string response = protocol.HandleLine(
        std::string(R"({"op":"estimate","workflow":")") + c.workflow +
        R"(","nodes":)" + std::to_string(c.nodes) + "}");
    Result<Json> parsed = Json::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    ASSERT_TRUE(parsed.value().GetBool("ok", false)) << response;
    const double makespan =
        parsed.value().Get("result")->GetNumber("makespan_s", 0.0);
    EXPECT_TRUE(std::isfinite(makespan)) << response;
    EXPECT_GT(makespan, 0.0) << response;
  }
}

TEST(ProtocolTest, StatsAndDrainVerbs) {
  EstimationService service;
  Protocol protocol(&service);

  Result<Json> stats = Json::Parse(protocol.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().GetBool("ok", false));
  EXPECT_FALSE(protocol.drain_requested());

  Result<Json> drain = Json::Parse(protocol.HandleLine(R"({"op":"drain"})"));
  ASSERT_TRUE(drain.ok());
  EXPECT_TRUE(drain.value().GetBool("ok", false));
  EXPECT_TRUE(protocol.drain_requested());
  EXPECT_TRUE(service.draining());
}

TEST(ProtocolTest, InlineFlowDocument) {
  EstimationService service;
  Protocol protocol(&service);
  Result<DagWorkflow> flow = WebAnalyticsFlow(Bytes::FromGB(1));
  ASSERT_TRUE(flow.ok());
  Json request = Json::MakeObject();
  request.Set("op", Json::MakeString("estimate"));
  request.Set("flow", WorkflowToJson(flow.value()));
  Result<Json> parsed = Json::Parse(protocol.HandleLine(request.DumpCompact()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().GetBool("ok", false))
      << protocol.HandleLine(request.DumpCompact());
  EXPECT_GT(parsed.value().Get("result")->GetNumber("makespan_s", 0.0), 0.0);
}

TEST(ServerTest, ServeLinesPumpsUntilDrain) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  std::istringstream in(
      "{\"op\":\"estimate\",\"workflow\":\"q6\",\"id\":1}\n"
      "\n"
      "{\"op\":\"stats\",\"id\":2}\n"
      "{\"op\":\"drain\",\"id\":3}\n"
      "{\"op\":\"stats\",\"id\":4}\n");
  std::ostringstream out;
  const ServeSummary summary = ServeLines(service, in, out);
  EXPECT_EQ(summary.requests, 3u);  // Blank skipped; nothing after drain.
  EXPECT_TRUE(summary.drained);
  // Exactly one response line per request.
  int lines = 0;
  for (char c : out.str()) lines += c == '\n';
  EXPECT_EQ(lines, 3);
}

TEST(ServiceTest, CoalescesIdenticalInflightRequests) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // Leader occupies the only worker, blocked inside the source with the
  // coalesce group registered.
  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Identical submissions attach synchronously — Submit returns with the
  // waiter registered, no pool task, no queue slot consumed.
  std::vector<std::future<Result<EstimateResponse>>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(service.Submit(EstimateRequest::For("q6")));
  }
  EXPECT_EQ(service.Stats().coalesce_attached, 3u);

  gate.Open();
  Result<EstimateResponse> lead = leader.get();
  ASSERT_TRUE(lead.ok()) << lead.status().ToString();
  EXPECT_FALSE(lead.value().estimate->coalesced);
  for (auto& follower : followers) {
    Result<EstimateResponse> served = follower.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const WorkflowEstimate& estimate = *served.value().estimate;
    // Bit-identical to the leader's computation, marked as attached, with
    // zero service time (the waiter never ran the estimator).
    EXPECT_TRUE(estimate.coalesced);
    EXPECT_EQ(estimate.estimate.makespan.seconds(),
              lead.value().estimate->estimate.makespan.seconds());
    EXPECT_EQ(estimate.service_ms, 0.0);
    EXPECT_EQ(estimate.workflow, "q6");
  }

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.coalesce_leaders, 1u);
  EXPECT_EQ(stats.coalesce_attached, 3u);
}

TEST(ServiceTest, CancellingOneWaiterDoesNotCancelTheLeader) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> leader =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  CancelToken waiter_cancel = CancelToken::Cancellable();
  std::future<Result<EstimateResponse>> waiter =
      service.Submit(EstimateRequest::For("q6").WithCancel(waiter_cancel));
  ASSERT_EQ(service.Stats().coalesce_attached, 1u);

  // The waiter gives up; the leader (whose caller never cancelled) must
  // keep computing — group abandonment requires every member to cancel.
  waiter_cancel.Cancel();
  gate.Open();

  Result<EstimateResponse> lead = leader.get();
  ASSERT_TRUE(lead.ok()) << lead.status().ToString();
  Result<EstimateResponse> cancelled = waiter.get();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), ErrorCode::kCancelled);
}

TEST(ServiceTest, CoalescingOptOutRunsItsOwnComputation) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> first =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();

  // Opted out: queues behind the worker instead of attaching.
  std::future<Result<EstimateResponse>> second =
      service.Submit(EstimateRequest::For("q6").WithoutCoalescing());
  EXPECT_EQ(service.Stats().coalesce_attached, 0u);

  gate.Open();
  Result<EstimateResponse> a = first.get();
  Result<EstimateResponse> b = second.get();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a.value().estimate->coalesced);
  EXPECT_FALSE(b.value().estimate->coalesced);

  const ServiceStats stats = service.Stats();
  // A leader with no attached waiters is not a coalesce leader.
  EXPECT_EQ(stats.coalesce_leaders, 0u);
  EXPECT_EQ(stats.coalesce_attached, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServiceTest, DrainResetsPerShardMemoCounters) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  // Two serves: the second hits the memo warmed by the first.
  for (int i = 0; i < 2; ++i) {
    Result<EstimateResponse> served =
        service.Submit(EstimateRequest::For("q6")).get();
    ASSERT_TRUE(served.ok());
  }
  const ServiceStats warm = service.Stats();
  EXPECT_GT(warm.cache.hits + warm.cache.misses, 0u);
  EXPECT_GT(warm.cache.entries, 0u);

  // Drain resets the warm state; the post-drain stats recompute must see
  // every per-shard counter zeroed — no pre-drain numerator can leak into
  // a hit rate computed in the new epoch.
  ASSERT_TRUE(service.Drain().ok());
  const ServiceStats cold = service.Stats();
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 0u);
  EXPECT_EQ(cold.cache.insert_races, 0u);
  EXPECT_EQ(cold.cache.entries, 0u);
  EXPECT_EQ(cold.cache.shards, TaskTimeMemo::kShardCount);
  EXPECT_EQ(cold.stats_epoch, warm.stats_epoch + 1);
}

}  // namespace
}  // namespace dagperf
