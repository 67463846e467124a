// Tests of the resilience layer (src/resilience/): deterministic fault
// injection (same seed => same fire pattern), circuit-breaker state
// transitions, and their integration into the estimation service (a parked
// request's deadline surfacing as DEADLINE_EXCEEDED without opening the
// breaker, bounded shutdown mapped to UNAVAILABLE, per-cluster breakers
// fast-failing while open).

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "resilience/circuit_breaker.h"
#include "resilience/fault.h"
#include "service/service.h"
#include "service_testing.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::CircuitBreakerOptions;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultPoint;

/// Every test that touches the (process-global) injector goes through this
/// guard so a failing assertion cannot leak an armed schedule into the next
/// test.
struct InjectorReset {
  InjectorReset() { FaultInjector::Default().ResetAll(); }
  ~InjectorReset() { FaultInjector::Default().ResetAll(); }
};

std::vector<int> FiredIndices(FaultPoint& point, int evaluations) {
  std::vector<int> fired;
  for (int i = 0; i < evaluations; ++i) {
    if (point.Evaluate().fired) fired.push_back(i);
  }
  return fired;
}

TEST(FaultInjector, DisarmedPointIsFreeAndNeverFires) {
  InjectorReset guard;
  FaultPoint& point = FaultInjector::Default().GetPoint("test.disarmed");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(point.Evaluate().fired);
  }
  // Disarmed evaluations do not even count (the armed path owns counters).
  EXPECT_EQ(point.evaluations(), 0u);
}

TEST(FaultInjector, SameSeedSameFirePattern) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(
      injector.Configure("test.pattern", {.probability = 0.3}).ok());
  FaultPoint& point = injector.GetPoint("test.pattern");

  injector.Arm(1234);
  const std::vector<int> first = FiredIndices(point, 200);
  injector.Arm(1234);  // Re-arming restarts the schedule.
  const std::vector<int> second = FiredIndices(point, 200);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 30u);  // ~60 expected at p=0.3.
  EXPECT_LT(first.size(), 120u);

  injector.Arm(99);
  const std::vector<int> other_seed = FiredIndices(point, 200);
  EXPECT_NE(first, other_seed);
}

TEST(FaultInjector, SkipFirstAndMaxFiresBoundTheSchedule) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("test.bounded", {.probability = 1.0,
                                              .max_fires = 3,
                                              .skip_first = 5})
                  .ok());
  FaultPoint& point = injector.GetPoint("test.bounded");
  injector.Arm(1);
  const std::vector<int> fired = FiredIndices(point, 20);
  EXPECT_EQ(fired, (std::vector<int>{5, 6, 7}));
  EXPECT_EQ(point.fires(), 3u);
}

TEST(FaultInjector, InjectedStatusCarriesThePlannedCode) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("test.error", {.probability = 1.0,
                                            .error = ErrorCode::kUnavailable})
                  .ok());
  injector.Arm(7);
  const Status injected =
      resilience::InjectAt(injector.GetPoint("test.error"));
  EXPECT_EQ(injected.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(injected.code()));

  injector.Disarm();
  EXPECT_TRUE(resilience::InjectAt(injector.GetPoint("test.error")).ok());
}

TEST(FaultInjector, ConfigureRejectsMalformedPlans) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  EXPECT_EQ(injector.Configure("", {.probability = 0.5}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(injector.Configure("x", {.probability = 1.5}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(injector.Configure("x", {.probability = -0.1}).code(),
            ErrorCode::kInvalidArgument);
  FaultPlan negative_latency;
  negative_latency.probability = 0.5;
  negative_latency.latency_ms = -1;
  EXPECT_EQ(injector.Configure("x", negative_latency).code(),
            ErrorCode::kInvalidArgument);
}

TEST(FaultInjector, ThreadPoolSubmitSeamFiresThroughTheHook) {
  InjectorReset guard;
  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector.Configure("pool.submit", {.probability = 1.0}).ok());
  injector.Arm(5);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([] {});
    }
    pool.Wait();
  }
  EXPECT_GE(injector.GetPoint("pool.submit").fires(), 8u);
  injector.Disarm();
  const std::uint64_t after_disarm = injector.GetPoint("pool.submit").fires();
  {
    ThreadPool pool(2);
    pool.Submit([] {});
    pool.Wait();
  }
  EXPECT_EQ(injector.GetPoint("pool.submit").fires(), after_disarm);
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndRejectsRetryably) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_seconds = 60.0;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  const Status rejected = breaker.Allow();
  EXPECT_EQ(rejected.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(rejected.code()));
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.stats().rejected, 1u);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  CircuitBreaker breaker(options);
  breaker.Allow().ok();
  breaker.RecordFailure();
  breaker.Allow().ok();
  breaker.RecordSuccess();  // Streak broken.
  breaker.Allow().ok();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOrReopens) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_seconds = 0.02;
  {
    CircuitBreaker breaker(options);
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.Allow().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // Cooldown over: one probe is admitted, a second is rejected while the
    // first is still in flight.
    ASSERT_TRUE(breaker.Allow().ok());
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_FALSE(breaker.Allow().ok());
    breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  {
    CircuitBreaker breaker(options);
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();  // Probe failed: straight back to open.
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_FALSE(breaker.Allow().ok());
  }
}

TEST(CircuitBreaker, NeutralOutcomesReleaseProbesWithoutJudging) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_seconds = 0.02;
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(breaker.Allow().ok());
  // A NOT_FOUND probe outcome proves nothing: the slot frees, the state
  // stays half-open, and the next probe is admitted.
  breaker.Record(Status::NotFound("no such workflow"));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow().ok());
}

TEST(CircuitBreaker, CountsOnlyServingPathFailures) {
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(ErrorCode::kInternal));
  // A deadline is the caller's own budget, not the path's health.
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(ErrorCode::kDeadlineExceeded));
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(ErrorCode::kUnavailable));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(ErrorCode::kNotFound));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(ErrorCode::kCancelled));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(ErrorCode::kResourceExhausted));
}

TEST(CircuitBreaker, DisabledBreakerIsTransparent) {
  CircuitBreakerOptions options;
  options.failure_threshold = 0;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, GaugeMirrorsState) {
  obs::SetMetricsEnabled(true);
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_seconds = 60.0;
  options.gauge_name = "test.breaker_state";
  CircuitBreaker breaker(options);
  obs::Gauge& gauge =
      obs::MetricsRegistry::Default().GetGauge("test.breaker_state");
  EXPECT_EQ(gauge.value(), 0.0);
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_EQ(gauge.value(), 1.0);
  obs::SetMetricsEnabled(false);
}

// ---------------------------------------------------------------------------
// Service integration.

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

TEST(ServiceResilience, ParkedRequestPastDeadlineSurfacesAsDeadlineExceeded) {
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::future<Result<EstimateResponse>> future =
      service.Submit(EstimateRequest::For("q6").WithDeadline(0.05));
  gate.WaitUntilEntered(1);

  // Hold the worker well past the request's deadline, then release it: the
  // estimator's next budget poll sees the deadline and unwinds.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate.Open();

  Result<EstimateResponse> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST(ServiceResilience, CallerDeadlinesNeverOpenTheBreaker) {
  ServiceOptions options;
  options.threads = 2;
  options.breaker_failure_threshold = 2;
  options.breaker_open_seconds = 60.0;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  // Two independent computations (no coalescing), both parked mid-estimate
  // until well past their 50 ms deadline: as many consecutive expiries as
  // the breaker threshold.
  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (int i = 0; i < 2; ++i) {
    futures.push_back(service.Submit(
        EstimateRequest::For("q6").WithDeadline(0.05).WithoutCoalescing()));
  }
  gate.WaitUntilEntered(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate.Open();
  for (std::future<Result<EstimateResponse>>& future : futures) {
    Result<EstimateResponse> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded)
        << result.status().ToString();
  }

  // The expiries were the callers' own budgets: a request without a
  // deadline is still served, not failed fast by an open breaker.
  Result<WorkflowEstimate> served =
      ServeEstimate(service, EstimateRequest::For("q6"));
  EXPECT_TRUE(served.ok()) << served.status().ToString();
}

TEST(ServiceResilience, ShutdownUnderLoadAnswersEveryRequestRetryably) {
  ServiceOptions options;
  options.threads = 4;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());

  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    // The eight requests are value-identical; since 0.8 they would coalesce
    // onto one leader and only one worker would ever enter the gate. This
    // test needs eight independent in-flight computations to park.
    futures.push_back(
        service.Submit(EstimateRequest::For("q6").WithoutCoalescing()));
  }
  gate.WaitUntilEntered(4);  // All workers parked, 4 more requests queued.

  std::thread release([&] {
    // Open the gate only after the grace period has expired and the
    // shutdown token fired — the parked workers then unwind cooperatively.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    gate.Open();
  });
  const EstimationService::ShutdownReport report = service.Shutdown(0.05);
  release.join();

  EXPECT_EQ(report.inflight_at_shutdown, 8);
  EXPECT_FALSE(report.graceful);
  EXPECT_GT(report.cancelled, 0);

  // Hard guarantee: every future resolves, and every cancelled request is
  // answered with the retryable UNAVAILABLE, never a silent drop.
  for (std::future<Result<EstimateResponse>>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    Result<EstimateResponse> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(IsRetryable(result.status().code()));
  }

  // Admission is closed for good after shutdown.
  Result<WorkflowEstimate> rejected = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(ServiceResilience, GracefulShutdownWithIdleServiceReportsClean) {
  EstimationService service;
  const EstimationService::ShutdownReport report = service.Shutdown(1.0);
  EXPECT_TRUE(report.graceful);
  EXPECT_EQ(report.inflight_at_shutdown, 0);
  EXPECT_EQ(report.cancelled, 0);
}

TEST(ServiceResilience, BreakerOpensOnInjectedFailuresAndFastFails) {
  InjectorReset guard;
  ServiceOptions options;
  options.threads = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_open_seconds = 60.0;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("service.execute",
                             {.probability = 1.0, .error = ErrorCode::kInternal})
                  .ok());
  injector.Arm(11);
  for (int i = 0; i < 2; ++i) {
    Result<WorkflowEstimate> result = ServeEstimate(service, EstimateRequest::For("q6"));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kInternal);
  }
  injector.Disarm();

  // The breaker is open: the healthy path is not even tried.
  Result<WorkflowEstimate> rejected = ServeEstimate(service, EstimateRequest::For("q6"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(rejected.status().code()));
  EXPECT_NE(rejected.status().message().find("breaker"), std::string::npos);
}

TEST(ServiceResilience, ClientErrorsNeverOpenTheBreaker) {
  ServiceOptions options;
  options.threads = 1;
  options.breaker_failure_threshold = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  for (int i = 0; i < 10; ++i) {
    Result<WorkflowEstimate> result =
        ServeEstimate(service, EstimateRequest::For("missing"));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  }
  // A good request still flows: NOT_FOUND never tripped the breaker.
  EXPECT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
}

TEST(ServiceResilience, InjectedAdmitFaultShedsWithoutLeakingSlots) {
  InjectorReset guard;
  ServiceOptions options;
  options.threads = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  FaultInjector& injector = FaultInjector::Default();
  ASSERT_TRUE(injector
                  .Configure("service.admit",
                             {.probability = 1.0,
                              .error = ErrorCode::kResourceExhausted,
                              .max_fires = 3})
                  .ok());
  injector.Arm(3);
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    Result<WorkflowEstimate> result = ServeEstimate(service, EstimateRequest::For("q6"));
    if (!result.ok() &&
        result.status().code() == ErrorCode::kResourceExhausted) {
      ++rejected;
    }
  }
  injector.Disarm();
  EXPECT_EQ(rejected, 3);
  // Slots were backed out: the queue is empty and a real request succeeds.
  EXPECT_EQ(service.Stats().queue_depth, 0);
  EXPECT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());
}

}  // namespace
}  // namespace dagperf
