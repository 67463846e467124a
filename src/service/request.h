#ifndef DAGPERF_SERVICE_REQUEST_H_
#define DAGPERF_SERVICE_REQUEST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "dag/dag_workflow.h"
#include "model/explain.h"
#include "model/state_estimator.h"
#include "model/sweep.h"

namespace dagperf {

/// The request/response vocabulary of the submission API: one typed builder
/// (EstimateRequest) and one response union (EstimateResponse). A request
/// either prices one configuration or sweeps a candidate list, and the
/// builder is the single place every per-request knob (tenant, budget,
/// explain, coalescing) lives.

/// A served estimate: the model output plus resolved names and the
/// service-side timing the caller would otherwise have to measure.
struct WorkflowEstimate {
  DagEstimate estimate;
  /// Filled when the request was built WithExplain().
  std::vector<CriticalSegment> critical_path;
  /// The flow that was estimated (registered or caller-supplied) — kept so
  /// renderers (protocol explain reports) can name jobs without a second
  /// registry lookup.
  std::shared_ptr<const DagWorkflow> flow;
  std::string workflow;
  std::string cluster;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  /// True when this request never ran the estimator: it attached to an
  /// identical in-flight computation (singleflight coalescing) and received
  /// a copy of the leader's answer — bit-identical to what its own run
  /// would have produced. Wire field "coalesced" (emitted only when true).
  bool coalesced = false;
};

struct ServiceSweepResult {
  SweepResult sweep;
  std::vector<int> nodes_list;
  std::string workflow;
  std::string cluster;
  double service_ms = 0.0;
};

/// The one request type EstimationService::Submit accepts. A request starts
/// from a workflow (registered name or inline flow) and is refined by
/// chaining; calling SweepNodes switches it into sweep mode, which prices
/// the workflow at every node count on one service turn, sharing the
/// persistent memo across candidates.
///
///   auto response = service.Submit(
///       EstimateRequest::For("daily-etl").OnCluster("prod")
///           .WithDeadline(0.5).WithExplain());
class EstimateRequest {
 public:
  EstimateRequest() = default;

  /// A request against a registered workflow name.
  static EstimateRequest For(std::string workflow) {
    EstimateRequest request;
    request.workflow_ = std::move(workflow);
    return request;
  }

  /// A request carrying its own workflow (shared ownership: the flow must
  /// stay alive for the async execution, and shared_ptr makes that so).
  static EstimateRequest For(std::shared_ptr<const DagWorkflow> flow) {
    EstimateRequest request;
    request.flow_ = std::move(flow);
    return request;
  }

  EstimateRequest& OnCluster(std::string cluster) {
    cluster_ = std::move(cluster);
    return *this;
  }

  EstimateRequest& AsTenant(std::string tenant) {
    tenant_ = std::move(tenant);
    return *this;
  }

  /// Single-estimate mode: override the cluster's node count (> 0).
  EstimateRequest& WithNodes(int nodes) {
    nodes_ = nodes;
    return *this;
  }

  /// Sweep mode: price every node count in `nodes_list`. A non-empty list
  /// makes this request a sweep (EstimateResponse::sweep is filled).
  EstimateRequest& SweepNodes(std::vector<int> nodes_list) {
    nodes_list_ = std::move(nodes_list);
    return *this;
  }

  EstimateRequest& WithBudget(Budget budget) {
    budget_ = std::move(budget);
    return *this;
  }

  /// Deadline `seconds` from submission (<= 0 keeps the budget's deadline).
  EstimateRequest& WithDeadline(double seconds) {
    if (seconds > 0) budget_.deadline = Deadline::AfterSeconds(seconds);
    return *this;
  }

  EstimateRequest& WithCancel(CancelToken cancel) {
    budget_.cancel = std::move(cancel);
    return *this;
  }

  /// Attribute bottlenecks and derive the critical path.
  EstimateRequest& WithExplain(bool explain = true) {
    explain_ = explain;
    return *this;
  }

  /// Opt this request out of in-flight coalescing (single-estimate mode).
  EstimateRequest& WithoutCoalescing() {
    coalesce_ = false;
    return *this;
  }

  /// Whether SweepNodes was called — decides which half of the response the
  /// service fills.
  bool is_sweep() const { return !nodes_list_.empty(); }

 private:
  /// The service reads the fields directly on its one request path.
  friend class EstimationService;

  std::string workflow_;
  std::shared_ptr<const DagWorkflow> flow_;
  std::string cluster_;
  std::string tenant_;
  int nodes_ = 0;
  std::vector<int> nodes_list_;
  Budget budget_;
  bool explain_ = false;
  bool coalesce_ = true;
};

/// What the unified Submit resolves to: exactly one of the two members is
/// engaged, matching EstimateRequest::is_sweep() of the request that
/// produced it.
struct EstimateResponse {
  std::optional<WorkflowEstimate> estimate;
  std::optional<ServiceSweepResult> sweep;

  bool is_sweep() const { return sweep.has_value(); }
};

}  // namespace dagperf

#endif  // DAGPERF_SERVICE_REQUEST_H_
