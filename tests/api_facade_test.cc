// Tests of the versioned public facade: <dagperf/dagperf.h> is
// self-sufficient (this file includes nothing else from the library), the
// version macros exist and are numerically comparable, and the one
// submission path, Submit(EstimateRequest), serves estimates and sweeps.

#include <dagperf/dagperf.h>

#include <gtest/gtest.h>

#ifndef DAGPERF_VERSION_MAJOR
#error "dagperf.h must provide DAGPERF_VERSION_MAJOR"
#endif
#ifndef DAGPERF_VERSION_MINOR
#error "dagperf.h must provide DAGPERF_VERSION_MINOR"
#endif

// The facade version gates features numerically; the service layer arrived
// in 0.4.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 4
#error "service layer requires dagperf >= 0.4"
#endif

// The resilience layer (CircuitBreaker, FaultInjector, graceful shutdown)
// arrived in 0.5.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 5
#error "resilience layer requires dagperf >= 0.5"
#endif

// Serving observability (request records + flight recorder, SLO windows,
// Prometheus export) arrived in 0.6.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 6
#error "serving observability requires dagperf >= 0.6"
#endif

// Multi-tenant serving (DRF fair-share admission, warm-state
// snapshot/restore) arrived in 0.7.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 7
#error "multi-tenant serving requires dagperf >= 0.7"
#endif

// The unified submission API (EstimateRequest builder, EstimateResponse,
// in-flight coalescing) arrived in 0.8.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 8
#error "unified submission API requires dagperf >= 0.8"
#endif

// protocol::LineClient, the shared NDJSON client framing, arrived in 0.9.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 9
#error "protocol::LineClient requires dagperf >= 0.9"
#endif

// One submission path: the pre-0.8 Submit/SubmitBatch/SubmitSweep shims,
// the out-param EstimateBatch/Estimate/Run overloads, hedged sweeps and the
// request watchdog were removed in 0.10.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 10
#error "the single submission path requires dagperf >= 0.10"
#endif

// One serving process: the multi-process router (`dagperf route`, shard
// ids) and scoped snapshot import were removed in 0.11.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 11
#error "the single-process serving surface requires dagperf >= 0.11"
#endif

// EstimationService::SubmitBatch was removed in 0.12: one Submit per request.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 12
#error "EstimationService without SubmitBatch requires dagperf >= 0.12"
#endif

// Admission is the queue bound plus DRF fair share: the overload brownout
// ladder, its ServiceOptions knobs and the client retry policy were removed
// in 0.13.
#if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR < 13
#error "admission without the brownout ladder requires dagperf >= 0.13"
#endif

namespace dagperf {
namespace {

TEST(ApiFacadeTest, VersionMacros) {
  EXPECT_GE(DAGPERF_VERSION_MAJOR, 0);
  EXPECT_GE(DAGPERF_VERSION_MINOR, 4);
  const std::string version = DAGPERF_VERSION_STRING;
  EXPECT_EQ(version, std::to_string(DAGPERF_VERSION_MAJOR) + "." +
                         std::to_string(DAGPERF_VERSION_MINOR));
}

TEST(ApiFacadeTest, FacadeCoversTheSupportedSurface) {
  // Touch one symbol from each facade section; compiling this file with
  // only <dagperf/dagperf.h> is the actual assertion.
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  EXPECT_GT(cluster.num_nodes, 0);
  const Status status = Status::ResourceExhausted("x");
  EXPECT_TRUE(IsRetryable(status.code()));
  EXPECT_STREQ(ErrorCodeName(status.code()), "RESOURCE_EXHAUSTED");
  const Budget budget = Budget::Within(60.0);
  EXPECT_TRUE(budget.limited());
  EstimationService service;
  EXPECT_FALSE(service.draining());
  EXPECT_EQ(service.Stats().clusters, 1);
}

TEST(ApiFacadeTest, ResilienceSurfaceIsReachableThroughTheFacade) {
  // UNAVAILABLE joined the stable vocabulary in 0.5 and is retryable.
  const Status unavailable = Status::Unavailable("x");
  EXPECT_STREQ(ErrorCodeName(unavailable.code()), "UNAVAILABLE");
  EXPECT_TRUE(IsRetryable(unavailable.code()));

  resilience::CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  resilience::CircuitBreaker breaker(breaker_options);
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kOpen);
  EXPECT_EQ(breaker.Allow().code(), ErrorCode::kUnavailable);

  // The fault injector is reachable (and off by default).
  EXPECT_FALSE(resilience::FaultInjector::Default().armed());
}

TEST(ApiFacadeTest, MultiTenantServingSurfaceIsReachableThroughTheFacade) {
  // 0.7 surface: tenant registry, warm snapshots.
  TenantRegistry tenants;
  EXPECT_EQ(TenantRegistry::Canonical(""), "default");
  EXPECT_TRUE(tenants.Admit("alice").ok());

  TaskTimeMemo memo;
  PrefixCheckpointStore store;
  const Status missing =
      LoadWarmSnapshot("no-such-snapshot-file", &memo, &store, nullptr);
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(ApiFacadeTest, ObservabilitySurfaceIsReachableThroughTheFacade) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);

  obs::RequestRecord record;
  record.id = 1;
  record.end_us = 10.0;
  obs::FlightRecorder recorder(obs::FlightRecorderOptions{.capacity = 4});
  recorder.Record(record);
  EXPECT_EQ(recorder.total_recorded(), 1u);

  obs::SloTracker slo(obs::SloObjectives{.p99_ms = 100.0,
                                         .availability = 0.999});
  slo.RecordOutcome(obs::OpClass::kEstimate, 5.0, /*ok=*/true,
                    /*had_deadline=*/false, /*deadline_met=*/false);
  const obs::SloTracker::Report report = slo.Snapshot();
  EXPECT_EQ(report.total.back().count, 1u);  // 5m window sees the request.

  // Prometheus text rendering is reachable through the facade.
  const std::string prom = obs::WritePrometheusText();
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);

  obs::SetMetricsEnabled(was_enabled);
}

Result<DagWorkflow> FacadeFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  if (!named.ok()) return named.status();
  return std::move(named).value().flow;
}

TEST(ApiFacadeTest, UnifiedSubmitServesEstimatesAndSweeps) {
  // 0.8 surface: one builder, one entry point, one response union.
  Result<DagWorkflow> flow = FacadeFlow();
  ASSERT_TRUE(flow.ok());
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", *flow).ok());

  Result<EstimateResponse> estimate =
      service.Submit(EstimateRequest::For("q6").WithExplain()).get();
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ASSERT_FALSE(estimate.value().is_sweep());
  ASSERT_TRUE(estimate.value().estimate.has_value());
  EXPECT_GT(estimate.value().estimate->estimate.makespan.seconds(), 0.0);
  EXPECT_FALSE(estimate.value().estimate->critical_path.empty());

  Result<EstimateResponse> sweep =
      service.Submit(EstimateRequest::For("q6").SweepNodes({4, 8})).get();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_TRUE(sweep.value().is_sweep());
  ASSERT_TRUE(sweep.value().sweep.has_value());
  ASSERT_EQ(sweep.value().sweep->sweep.estimates.size(), 2u);
  EXPECT_TRUE(sweep.value().sweep->sweep.estimates[0].ok());
  EXPECT_TRUE(sweep.value().sweep->sweep.estimates[1].ok());
}

TEST(ApiFacadeTest, BuilderFieldsReachTheService) {
  // Every chainer maps onto what the service executes: the named cluster,
  // the node override, explain, and the tenant the request is accounted to.
  Result<DagWorkflow> flow = FacadeFlow();
  ASSERT_TRUE(flow.ok());
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", *flow).ok());

  Result<EstimateResponse> base = service.Submit(EstimateRequest::For("q6")).get();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EstimateRequest request = EstimateRequest::For("q6");
  request.OnCluster("default").AsTenant("alice").WithNodes(2).WithExplain();
  request.WithoutCoalescing();
  Result<EstimateResponse> built = service.Submit(std::move(request)).get();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const WorkflowEstimate& served = *built.value().estimate;
  EXPECT_EQ(served.workflow, "q6");
  EXPECT_EQ(served.cluster, "default");
  EXPECT_FALSE(served.critical_path.empty());
  EXPECT_GT(served.estimate.makespan.seconds(),
            base.value().estimate->estimate.makespan.seconds());

  bool alice_served = false;
  for (const TenantRegistry::TenantStats& tenant : service.Stats().tenants) {
    if (tenant.name == "alice") alice_served = tenant.completed == 1;
  }
  EXPECT_TRUE(alice_served);
}

}  // namespace
}  // namespace dagperf
