#ifndef DAGPERF_VERSION_H_
#define DAGPERF_VERSION_H_

/// Version of the dagperf public API (the <dagperf/dagperf.h> facade and the
/// serve wire protocol). Pre-1.0 semantics: a MINOR bump may change or
/// remove any surface that is not listed as stable in docs/api.md; MAJOR
/// stays 0 until the first stability promise. Compare numerically:
///
///   #if DAGPERF_VERSION_MAJOR == 0 && DAGPERF_VERSION_MINOR >= 10
///     // one submission path: EstimationService::Submit(EstimateRequest)
///   #endif
#define DAGPERF_VERSION_MAJOR 0
#define DAGPERF_VERSION_MINOR 13

/// "MAJOR.MINOR" as a string literal.
#define DAGPERF_VERSION_STRING "0.13"

#endif  // DAGPERF_VERSION_H_
