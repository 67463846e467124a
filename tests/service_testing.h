// Helpers for tests that drive EstimationService through its one entry
// point, Submit(EstimateRequest), and only care about one half of the
// EstimateResponse union, plus a task-time source that parks workers
// mid-estimate.

#ifndef DAGPERF_TESTS_SERVICE_TESTING_H_
#define DAGPERF_TESTS_SERVICE_TESTING_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#include "model/task_time_source.h"
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

/// A task-time source whose queries block until Open() — parks service
/// workers mid-estimate so tests observe requests genuinely in flight
/// (queue pile-ups, deadlines, shutdown).
class GateSource : public TaskTimeSource {
 public:
  Duration TaskTime(const EstimationContext&) const override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    return Duration::Seconds(1);
  }

  void Open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  /// Blocks until `count` queries have entered TaskTime.
  void WaitUntilEntered(int count = 1) const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable int entered_ = 0;
};

}  // namespace dagperf

#endif  // DAGPERF_TESTS_SERVICE_TESTING_H_
