// Helpers for tests that drive EstimationService through its one entry
// point, Submit(EstimateRequest), and only care about one half of the
// EstimateResponse union.

#ifndef DAGPERF_TESTS_SERVICE_TESTING_H_
#define DAGPERF_TESTS_SERVICE_TESTING_H_

#include <utility>

#include "service/service.h"

namespace dagperf {

/// Submits a single-estimate request and waits for its answer.
inline Result<WorkflowEstimate> ServeEstimate(EstimationService& service,
                                              EstimateRequest request) {
  Result<EstimateResponse> response = service.Submit(std::move(request)).get();
  if (!response.ok()) return response.status();
  return std::move(*response.value().estimate);
}

/// Submits a sweep request and waits for its answer.
inline Result<ServiceSweepResult> ServeSweep(EstimationService& service,
                                             EstimateRequest request) {
  Result<EstimateResponse> response = service.Submit(std::move(request)).get();
  if (!response.ok()) return response.status();
  return std::move(*response.value().sweep);
}

}  // namespace dagperf

#endif  // DAGPERF_TESTS_SERVICE_TESTING_H_
