#include "resilience/circuit_breaker.h"

#include <algorithm>

#include "obs/metrics.h"

namespace dagperf {
namespace resilience {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(std::move(options)) {
  options_.open_seconds = std::max(0.0, options_.open_seconds);
  options_.half_open_probes = std::max(1, options_.half_open_probes);
  options_.half_open_successes = std::max(1, options_.half_open_successes);
  if (!options_.gauge_name.empty()) {
    gauge_ = &obs::MetricsRegistry::Default().GetGauge(options_.gauge_name);
    gauge_->Set(static_cast<double>(BreakerState::kClosed));
  }
}

void CircuitBreaker::TransitionLocked(BreakerState next) {
  if (state_ == next) return;
  const BreakerState from = state_;
  state_ = next;
  ++stats_.transitions;
  if (next == BreakerState::kOpen) {
    ++stats_.opens;
    reopen_ = Deadline::AfterSeconds(options_.open_seconds);
  }
  if (next == BreakerState::kHalfOpen || next == BreakerState::kClosed) {
    half_open_inflight_ = 0;
    half_open_successes_ = 0;
  }
  if (next == BreakerState::kClosed) consecutive_failures_ = 0;
  if (gauge_ != nullptr) gauge_->Set(static_cast<double>(next));
  // Transition history: the gauge above is last-write-only, so every change
  // also bumps the process-wide counter and notifies the owner's hook.
  static obs::Counter* transitions =
      &obs::MetricsRegistry::Default().GetCounter(
          "resilience.breaker_transitions");
  transitions->Add(1);
  if (options_.on_transition) options_.on_transition(from, next);
}

Status CircuitBreaker::Allow() {
  if (options_.failure_threshold <= 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kOpen) {
    if (!reopen_.expired()) {
      ++stats_.rejected;
      return Status::Unavailable("circuit breaker open");
    }
    TransitionLocked(BreakerState::kHalfOpen);
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (half_open_inflight_ >= options_.half_open_probes) {
      ++stats_.rejected;
      return Status::Unavailable("circuit breaker half-open, probes in flight");
    }
    ++half_open_inflight_;
  }
  ++stats_.allowed;
  return Status::Ok();
}

void CircuitBreaker::RecordSuccess() {
  if (options_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.successes;
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    half_open_inflight_ = std::max(0, half_open_inflight_ - 1);
    if (++half_open_successes_ >= options_.half_open_successes) {
      TransitionLocked(BreakerState::kClosed);
    }
  }
}

void CircuitBreaker::RecordFailure() {
  if (options_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.failures;
  if (state_ == BreakerState::kHalfOpen) {
    // A failed probe proves the path is still unhealthy: straight back to
    // open, fresh cooldown.
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    TransitionLocked(BreakerState::kOpen);
  }
}

void CircuitBreaker::Record(const Status& status) {
  if (status.ok()) {
    RecordSuccess();
    return;
  }
  if (CountsAsFailure(status.code())) {
    RecordFailure();
    return;
  }
  if (options_.failure_threshold <= 0) return;
  // Neutral outcome (client error, cancellation, the caller's own deadline):
  // release the probe slot a half-open Allow() claimed without judging the
  // path either way.
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kHalfOpen) {
    half_open_inflight_ = std::max(0, half_open_inflight_ - 1);
  }
}

bool CircuitBreaker::CountsAsFailure(ErrorCode code) {
  return code == ErrorCode::kInternal || code == ErrorCode::kUnavailable;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace resilience
}  // namespace dagperf
