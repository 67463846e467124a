#ifndef DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_
#define DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/cancel.h"
#include "common/status.h"

namespace dagperf {
namespace obs {
class Gauge;
}  // namespace obs

namespace resilience {

/// Circuit breaker guarding a failure-prone execution path (the estimation
/// service wraps one around each registered cluster's estimate path).
///
/// States:
///   kClosed   — traffic flows; `failure_threshold` *consecutive* failures
///               trip the breaker.
///   kOpen     — Allow() fails fast with UNAVAILABLE{retryable} for
///               `open_seconds`, shedding work from a path that is only
///               producing failures.
///   kHalfOpen — after the cooldown, up to `half_open_probes` concurrent
///               calls are admitted as probes; `half_open_successes`
///               successes close the breaker, any failure re-opens it.
///
/// Only failures that indicate path trouble should be recorded — the service
/// feeds it through CountsAsFailure, which ignores client errors (invalid
/// input, unknown names), deliberate cancellation and expired deadlines.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  /// Consecutive failures that open the breaker. <= 0 disables it entirely
  /// (Allow always Ok, Record* are no-ops) so call sites need no branch.
  int failure_threshold = 5;
  /// How long an open breaker rejects before probing.
  double open_seconds = 1.0;
  /// Probes admitted concurrently while half-open.
  int half_open_probes = 1;
  /// Probe successes required to close.
  int half_open_successes = 1;
  /// Name of the obs gauge mirroring the state (0 closed / 1 open /
  /// 2 half-open). Empty = no gauge. The service registers
  /// "resilience.breaker_state" for the default cluster and
  /// "resilience.breaker_state.<cluster>" for the rest.
  std::string gauge_name;

  /// Invoked on every state transition, after the state (and gauge) have
  /// moved. The gauge only shows the last write; this hook is how transition
  /// *history* escapes — the service feeds it into the flight recorder and
  /// the "resilience.breaker_transitions" counter. Called with the breaker
  /// mutex held: must be cheap and must not call back into this breaker.
  std::function<void(BreakerState from, BreakerState to)> on_transition;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Gate before the guarded call: Ok to proceed (and, half-open, claims a
  /// probe slot), or Unavailable{retryable} naming the remaining cooldown.
  /// Every Ok *must* be matched by exactly one RecordSuccess/RecordFailure.
  Status Allow();

  void RecordSuccess();
  void RecordFailure();

  /// Record* from a Status: success on Ok, failure only when
  /// CountsAsFailure; other codes release the in-flight probe slot without
  /// moving the state (a NOT_FOUND on a half-open probe proves nothing
  /// about the path's health).
  void Record(const Status& status);

  /// Whether a failed estimate indicts the serving path rather than the
  /// request: internal errors and upstream unavailability count; invalid
  /// input, unknown names, load shedding, cancellation and expired deadlines
  /// do not. A deadline is the caller's own budget, so one tenant sending
  /// short deadlines must not fail every tenant's requests.
  static bool CountsAsFailure(ErrorCode code);

  BreakerState state() const;

  struct Stats {
    std::uint64_t allowed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t opens = 0;
    /// Every state change (open + half-open + close), not just opens.
    std::uint64_t transitions = 0;
  };
  Stats stats() const;

 private:
  void TransitionLocked(BreakerState next);

  CircuitBreakerOptions options_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_inflight_ = 0;
  int half_open_successes_ = 0;
  Deadline reopen_;
  Stats stats_;
  obs::Gauge* gauge_ = nullptr;
};

}  // namespace resilience
}  // namespace dagperf

#endif  // DAGPERF_RESILIENCE_CIRCUIT_BREAKER_H_
