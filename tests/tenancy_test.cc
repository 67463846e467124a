// Multi-tenant admission tests: the DRF fair-share TenantRegistry, per-tenant
// accounting through the service, and the wire-visible surface (tenant field,
// per-tenant stats, retry_after_ms on a shed).

#include <future>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service_testing.h"
#include "service/tenancy.h"
#include "workloads/suite.h"

namespace dagperf {
namespace {

TEST(TenantRegistryTest, CanonicalMapsEmptyToDefault) {
  EXPECT_EQ(TenantRegistry::Canonical(""), "default");
  EXPECT_EQ(TenantRegistry::Canonical("alice"), "alice");
}

TEST(TenantRegistryTest, SoleTenantMayFillTheWholeQueue) {
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  TenantRegistry registry(options);

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(registry.Admit("solo").ok()) << "slot " << i;
  }
  const Status fifth = registry.Admit("solo");
  ASSERT_FALSE(fifth.ok());
  EXPECT_EQ(fifth.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(fifth.code()));
  EXPECT_NE(fifth.message().find("fair share"), std::string::npos)
      << fifth.message();

  const std::vector<TenantRegistry::TenantStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "solo");
  EXPECT_EQ(stats[0].queued, 4);
  EXPECT_EQ(stats[0].submitted, 5u);  // Arrivals, including the shed one.
  EXPECT_EQ(stats[0].shed_total, 1u);
}

TEST(TenantRegistryTest, RollbackReturnsTheQueuedSlot) {
  TenantRegistry::Options options;
  options.capacity_slots = 2;
  TenantRegistry registry(options);
  ASSERT_TRUE(registry.Admit("t").ok());
  ASSERT_TRUE(registry.Admit("t").ok());
  ASSERT_FALSE(registry.Admit("t").ok());
  registry.OnAdmitRollback("t");
  EXPECT_TRUE(registry.Admit("t").ok());
}

TEST(TenantRegistryTest, LightTenantAdmitsPastASaturatedHeavyOne) {
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  TenantRegistry registry(options);

  // "heavy" floods until its fair share rejects it...
  int admitted = 0;
  while (admitted < 16 && registry.Admit("heavy").ok()) ++admitted;
  ASSERT_GE(admitted, 1);
  ASSERT_FALSE(registry.Admit("heavy").ok());
  // ...and "light"'s first request still fits inside its own share.
  EXPECT_TRUE(registry.Admit("light").ok());
}

TEST(TenantRegistryTest, OutcomeAndCostAccounting) {
  TenantRegistry::Options options;
  options.ema_alpha = 1.0;  // EMA == last observation, easy to assert.
  TenantRegistry registry(options);

  ASSERT_TRUE(registry.Admit("t").ok());
  registry.OnExecuteStart("t");
  registry.OnDone("t", /*ok=*/true, /*cpu_ms=*/100.0);
  ASSERT_TRUE(registry.Admit("t").ok());
  registry.OnExecuteStart("t");
  registry.OnDone("t", /*ok=*/false, /*cpu_ms=*/20.0);
  registry.OnShed("t");

  const std::vector<TenantRegistry::TenantStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].inflight, 0);
  EXPECT_EQ(stats[0].queued, 0);
  EXPECT_EQ(stats[0].completed, 1u);
  EXPECT_EQ(stats[0].failed, 1u);
  EXPECT_EQ(stats[0].shed_total, 1u);
  EXPECT_EQ(stats[0].cpu_ms, 120.0);
  EXPECT_EQ(stats[0].ema_cost_ms, 20.0);
}

TEST(TenantRegistryTest, ExpensiveTenantGetsFewerSlotsThanCheapOne) {
  // DRF prices admission in two resources: queue slots and expected cpu-ms.
  // A tenant whose EMA cost is 100x another's has cpu-ms as its dominant
  // resource and must be capped below the full queue while the cheap
  // tenant's next request still fits.
  TenantRegistry::Options options;
  options.capacity_slots = 4;
  options.ema_alpha = 1.0;
  TenantRegistry registry(options);

  ASSERT_TRUE(registry.Admit("spender").ok());
  registry.OnExecuteStart("spender");
  registry.OnDone("spender", true, 100.0);
  ASSERT_TRUE(registry.Admit("frugal").ok());
  registry.OnExecuteStart("frugal");
  registry.OnDone("frugal", true, 1.0);

  // frugal holds one queued slot while spender floods.
  ASSERT_TRUE(registry.Admit("frugal").ok());
  int admitted = 0;
  while (admitted < 4 && registry.Admit("spender").ok()) ++admitted;
  EXPECT_GE(admitted, 1);
  EXPECT_LT(admitted, 3) << "a 100x-cost tenant must not take "
                            "a cheap tenant's share of the queue";
  EXPECT_TRUE(registry.Admit("frugal").ok())
      << "the cheap tenant must still be admitted";
}

DagWorkflow TestFlow() {
  Result<NamedFlow> named = TableThreeFlow("TS-Q6", 0.01);
  EXPECT_TRUE(named.ok()) << named.status().ToString();
  return std::move(named).value().flow;
}

TEST(ServiceTenancyTest, PerTenantStatsFlowThroughService) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());

  ASSERT_TRUE(service.Submit(EstimateRequest::For("q6").AsTenant("alice")).get().ok());
  ASSERT_TRUE(service.Submit(EstimateRequest::For("q6")).get().ok());

  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);  // Name-ordered: alice, default.
  EXPECT_EQ(stats.tenants[0].name, "alice");
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].inflight, 0);
  EXPECT_EQ(stats.tenants[0].queued, 0);
  EXPECT_GT(stats.tenants[0].ema_cost_ms, 0.0);
  EXPECT_EQ(stats.tenants[1].name, "default");
  EXPECT_EQ(stats.tenants[1].completed, 1u);
}

TEST(ProtocolTenancyTest, TenantsReachTheStatsVerb) {
  EstimationService service;
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  Protocol protocol(&service);

  Result<Json> served = Json::Parse(protocol.HandleLine(
      R"({"op":"estimate","workflow":"q6","tenant":"alice","id":1})"));
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().GetBool("ok", false));

  const std::string stats = protocol.HandleLine(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"tenants\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"alice\""), std::string::npos) << stats;
}

TEST(ProtocolTenancyTest, ShedResponsesCarryTheRetryHint) {
  // One queue slot, held by a request parked mid-estimate: the next request
  // is shed at the global queue bound, and the wire error must carry the
  // server's retry hint.
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.RegisterWorkflow("q6", TestFlow()).ok());
  GateSource gate;
  ASSERT_TRUE(service.RegisterSource("default", &gate, "gate").ok());
  Protocol protocol(&service);

  std::future<Result<EstimateResponse>> parked =
      service.Submit(EstimateRequest::For("q6"));
  gate.WaitUntilEntered();
  Result<Json> parsed = Json::Parse(
      protocol.HandleLine(R"({"op":"estimate","workflow":"q6","id":2})"));
  gate.Open();
  EXPECT_TRUE(parked.get().ok());

  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().GetBool("ok", true));
  const Json* error = parsed.value().Get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "RESOURCE_EXHAUSTED");
  EXPECT_TRUE(error->GetBool("retryable", false));
  EXPECT_GT(error->GetNumber("retry_after_ms", 0.0), 0.0);
}

}  // namespace
}  // namespace dagperf
