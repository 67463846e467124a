#include "model/sweep.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dagperf {

namespace {

/// Sweep-engine metrics (obs/metrics.h): cumulative candidate/failure
/// counts, the last batch's cache behaviour, and the memo hit-rate gauge the
/// CLI's --metrics-json surfaces next to `sweep --json` output.
struct SweepMetrics {
  obs::Counter& candidates;
  obs::Counter& failures;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& cache_hit_rate;
  obs::Counter& cancelled;
  obs::Counter& deadline_exceeded;
  obs::Counter& retries;

  SweepMetrics()
      : candidates(
            obs::MetricsRegistry::Default().GetCounter("sweep.candidates")),
        failures(obs::MetricsRegistry::Default().GetCounter("sweep.failures")),
        cache_hits(
            obs::MetricsRegistry::Default().GetCounter("sweep.cache_hits")),
        cache_misses(
            obs::MetricsRegistry::Default().GetCounter("sweep.cache_misses")),
        cache_hit_rate(
            obs::MetricsRegistry::Default().GetGauge("sweep.cache_hit_rate")),
        cancelled(obs::MetricsRegistry::Default().GetCounter("sweep.cancelled")),
        deadline_exceeded(obs::MetricsRegistry::Default().GetCounter(
            "sweep.deadline_exceeded")),
        retries(obs::MetricsRegistry::Default().GetCounter("sweep.retries")) {}
};

SweepMetrics& Metrics() {
  static SweepMetrics* metrics = new SweepMetrics();
  return *metrics;
}

Result<DagEstimate> EstimateOne(const SweepCandidate& request,
                                const SchedulerConfig& scheduler,
                                const TaskTimeSource& source,
                                const EstimatorOptions& estimator_options) {
  if (request.flow == nullptr) {
    return Status::InvalidArgument("sweep request has no workflow");
  }
  // The estimator is the firewall here: its constructor validates the
  // cluster (every violation, not just the first) and Estimate() validates
  // the flow, so an invalid candidate yields a full diagnostic.
  const StateBasedEstimator estimator(request.cluster, scheduler,
                                      estimator_options);
  return estimator.Estimate(*request.flow, source);
}

}  // namespace

SweepResult EstimateBatch(const std::vector<SweepCandidate>& requests,
                          const SchedulerConfig& scheduler,
                          const TaskTimeSource& source, const SweepOptions& options) {
  SweepResult result;
  result.stats.candidates = static_cast<int>(requests.size());
  if (requests.empty()) return result;

  // Cache wiring. An external memo wins; otherwise a batch-local shared memo
  // or one private memo per candidate.
  TaskTimeMemo* shared_memo = options.memo;
  std::optional<TaskTimeMemo> local_memo;
  if (options.memoize && shared_memo == nullptr && options.share_cache) {
    local_memo.emplace();
    shared_memo = &*local_memo;
  }
  const TaskTimeMemo::Stats before =
      shared_memo != nullptr ? shared_memo->stats() : TaskTimeMemo::Stats{};

  // Checkpoint-store wiring mirrors the memo: an external store wins,
  // otherwise an incremental shared-cache batch gets a batch-local store so
  // candidates still resume from each other's prefixes.
  PrefixCheckpointStore* store = options.checkpoints;
  std::optional<PrefixCheckpointStore> local_store;
  if (options.incremental && store == nullptr && options.share_cache) {
    local_store.emplace();
    store = &*local_store;
  }
  if (!options.incremental) store = nullptr;
  const PrefixCheckpointStore::Stats cp_before =
      store != nullptr ? store->stats() : PrefixCheckpointStore::Stats{};

  std::vector<std::unique_ptr<TaskTimeMemo>> private_memos;
  if (options.memoize && shared_memo == nullptr) {
    private_memos.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      private_memos.push_back(std::make_unique<TaskTimeMemo>());
    }
  }

  // Batch-level budget propagates into each candidate's estimator (unless
  // the caller set estimator-level signals), so a firing budget also unwinds
  // the candidate currently mid-estimate, not just unstarted ones.
  EstimatorOptions estimator_options = options.estimator;
  estimator_options.budget = estimator_options.budget.MergedWith(options.budget);
  if (store != nullptr) {
    estimator_options.checkpoints = store;
    estimator_options.checkpoint_scope = options.cache_scope;
  }

  // Per-candidate global fingerprints, computed in the ordering block below
  // (before any evaluation) and handed to the estimator so it does not
  // re-serialise them for its checkpoint lookups; per-job fingerprints come
  // precomputed on each immutable flow. Empty when incremental is off.
  struct CandidateFingerprints {
    std::string global;
    std::vector<std::size_t> sig;  // hash(global), then per-job fp hashes.
  };
  std::vector<CandidateFingerprints> fingerprints;

  std::atomic<int> retries{0};

  /// One evaluation attempt of candidate `i`.
  const auto once = [&](size_t i) -> Result<DagEstimate> {
    EstimatorOptions candidate_options = estimator_options;
    if (i < fingerprints.size() && !fingerprints[i].sig.empty()) {
      candidate_options.checkpoint_global_fp = &fingerprints[i].global;
    }
    if (!options.memoize) {
      return EstimateOne(requests[i], scheduler, source, candidate_options);
    }
    TaskTimeMemo* memo =
        shared_memo != nullptr ? shared_memo : private_memos[i].get();
    const MemoizedTaskTimeSource cached(source, memo, options.cache_scope);
    return EstimateOne(requests[i], scheduler, cached, candidate_options);
  };

  const auto evaluate = [&](size_t i) -> Result<DagEstimate> {
    std::optional<obs::ScopedSpan> span;
    if (obs::TraceRecorder::Default().enabled()) {
      const std::string& label = requests[i].label;
      span.emplace("candidate " +
                       (label.empty()
                            ? (requests[i].flow != nullptr ? requests[i].flow->name()
                                                           : std::to_string(i))
                            : label),
                   "sweep");
    }
    const double eval_start_us = obs::MonotonicUs();
    Result<DagEstimate> estimate = once(i);
    int attempts = 0;
    while (!estimate.ok() && IsRetryable(estimate.status().code()) &&
           attempts < options.max_retries && !options.budget.exhausted()) {
      ++attempts;
      retries.fetch_add(1, std::memory_order_relaxed);
      estimate = once(i);
    }
    result.candidate_latency_ms[i] = (obs::MonotonicUs() - eval_start_us) * 1e-3;
    return estimate;
  };

  result.estimates.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    result.estimates.emplace_back(Status::Internal("not evaluated"));
  }
  result.candidate_latency_ms.assign(requests.size(), -1.0);
  // Which slots actually ran: under a firing budget, skipped slots keep the
  // placeholder and are stamped with the budget status below.
  std::vector<char> evaluated(requests.size(), 0);

  // Evaluation order. Results land in request-order slots regardless, and
  // each candidate's bits are order-independent (memo and checkpoints are
  // both bit-exact), so reordering only changes cache locality: with a
  // checkpoint store, sorting by structural fingerprint evaluates candidates
  // with shared workflow prefixes consecutively, maximising resume depth.
  //
  // The fingerprints are computed once per candidate here and passed through
  // to the estimator (EstimatorOptions::checkpoint_global_fp), which would
  // otherwise recompute the same bytes for its own checkpoint lookups — on a
  // warm dense neighborhood that recomputation is a double-digit fraction of
  // a resumed estimate. Ordering compares per-fingerprint hashes rather than
  // the multi-KB fingerprints themselves: any consistent order that keeps
  // equal prefixes adjacent clusters the candidates equally well.
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  if (store != nullptr) {
    fingerprints.resize(requests.size());
    const std::hash<std::string> hasher;
    for (size_t i = 0; i < requests.size(); ++i) {
      const DagWorkflow* flow = requests[i].flow;
      if (flow == nullptr) continue;
      CandidateFingerprints& fp = fingerprints[i];
      PrefixCheckpointStore::AppendGlobalFingerprint(
          options.cache_scope, requests[i].cluster, scheduler,
          estimator_options, &fp.global);
      fp.sig.reserve(flow->num_jobs() + 1);
      fp.sig.push_back(hasher(fp.global));
      for (JobId id = 0; id < flow->num_jobs(); ++id) {
        fp.sig.push_back(flow->job_fingerprint_hash(id));
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          fingerprints[a].sig.begin(), fingerprints[a].sig.end(),
          fingerprints[b].sig.begin(), fingerprints[b].sig.end());
    });
  }

  // A dedicated pool larger than the machine is pure context-switch
  // overhead: oversubscribed workers time-slice one another without adding
  // throughput. Clamp to the hardware, and degrade to the serial loop when
  // that leaves a single worker.
  int effective_threads = options.threads;
  if (options.pool == nullptr && effective_threads > 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && static_cast<unsigned>(effective_threads) > hw) {
      effective_threads = static_cast<int>(hw);
    }
  }

  Status budget_status = Status::Ok();
  if (options.pool == nullptr && effective_threads == 1) {
    for (const size_t i : order) {
      if (budget_status.ok()) {
        budget_status = options.budget.Check("sweep");
      }
      if (!budget_status.ok()) break;
      result.estimates[i] = evaluate(i);
      evaluated[i] = 1;
    }
  } else {
    std::optional<ThreadPool> dedicated;
    ThreadPool* pool = options.pool;
    if (pool == nullptr && effective_threads > 1) {
      dedicated.emplace(effective_threads);
      pool = &*dedicated;
    }
    size_t start = 0;
    if (shared_memo != nullptr || store != nullptr) {
      // Prime the shared caches on the calling thread: one candidate fills
      // the memo/checkpoint entries the rest of the batch will hit, instead
      // of every worker racing to compute the same misses in parallel.
      budget_status = options.budget.Check("sweep");
      if (budget_status.ok()) {
        result.estimates[order[0]] = evaluate(order[0]);
        evaluated[order[0]] = 1;
        start = 1;
      }
    }
    if (budget_status.ok() && start < order.size()) {
      const size_t remaining = order.size() - start;
      // Warm cached candidates are microseconds of work; batch several per
      // pool task so dispatch overhead cannot swamp them (this is what keeps
      // parallel-cached throughput above serial-cached).
      size_t chunk = 1;
      if (shared_memo != nullptr || store != nullptr) {
        const size_t workers = static_cast<size_t>(
            pool != nullptr ? pool->size() : DefaultPool().size());
        chunk = std::max<size_t>(1, remaining / (std::max<size_t>(workers, 1) * 4));
      }
      // Chunks are prefix-affine: a boundary never splits a run of
      // candidates with equal fingerprints, which the ordering above made
      // adjacent. The run's first candidate stores the checkpoint and its
      // twins on the same worker resume from it, instead of racing it on
      // other workers and each replaying the whole workflow. Batches of
      // distinct candidates get plain `chunk`-sized chunks.
      const auto same_prefix = [&](size_t a, size_t b) {
        return !fingerprints.empty() && !fingerprints[a].sig.empty() &&
               fingerprints[a].sig == fingerprints[b].sig;
      };
      std::vector<size_t> bounds{start};
      while (bounds.back() < order.size()) {
        size_t hi = std::min(order.size(), bounds.back() + chunk);
        while (hi < order.size() && same_prefix(order[hi - 1], order[hi])) ++hi;
        bounds.push_back(hi);
      }
      const auto run_chunk = [&](std::int64_t c) {
        for (size_t k = bounds[c]; k < bounds[c + 1]; ++k) {
          result.estimates[order[k]] = evaluate(order[k]);
          evaluated[order[k]] = 1;
        }
      };
      budget_status =
          ParallelFor(0, static_cast<std::int64_t>(bounds.size()) - 1,
                      run_chunk, options.budget, pool);
    }
  }
  if (!budget_status.ok()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!evaluated[i]) result.estimates[i] = budget_status;
    }
  }

  for (size_t i = 0; i < result.estimates.size(); ++i) {
    const Result<DagEstimate>& estimate = result.estimates[i];
    if (!estimate.ok()) {
      switch (estimate.status().code()) {
        case ErrorCode::kCancelled:
          ++result.stats.cancelled;
          break;
        case ErrorCode::kDeadlineExceeded:
          ++result.stats.deadline_exceeded;
          break;
        default:
          ++result.stats.failures;
          break;
      }
      continue;
    }
    ++result.stats.completed;
    if (estimate->makespan < result.stats.best_makespan) {
      result.stats.best_makespan = estimate->makespan;
      result.stats.best_index = static_cast<int>(i);
    }
  }
  result.stats.retries = retries.load(std::memory_order_relaxed);

  if (shared_memo != nullptr) {
    const TaskTimeMemo::Stats after = shared_memo->stats();
    result.stats.cache_hits = after.hits - before.hits;
    result.stats.cache_misses = after.misses - before.misses;
  } else {
    for (const auto& memo : private_memos) {
      const TaskTimeMemo::Stats s = memo->stats();
      result.stats.cache_hits += s.hits;
      result.stats.cache_misses += s.misses;
    }
  }
  const std::uint64_t queries = result.stats.cache_hits + result.stats.cache_misses;
  result.stats.cache_hit_rate =
      queries == 0 ? 0.0
                   : static_cast<double>(result.stats.cache_hits) /
                         static_cast<double>(queries);

  if (store != nullptr) {
    const PrefixCheckpointStore::Stats cp_after = store->stats();
    result.stats.prefix_hits = cp_after.hits - cp_before.hits;
    result.stats.prefix_misses = cp_after.misses - cp_before.misses;
    result.stats.resumed_states = cp_after.resumed_states - cp_before.resumed_states;
    result.stats.checkpoints_stored = cp_after.inserts - cp_before.inserts;
  }

  SweepMetrics& metrics = Metrics();
  metrics.candidates.Add(static_cast<std::uint64_t>(result.stats.candidates));
  metrics.failures.Add(static_cast<std::uint64_t>(result.stats.failures));
  metrics.cache_hits.Add(result.stats.cache_hits);
  metrics.cache_misses.Add(result.stats.cache_misses);
  metrics.cache_hit_rate.Set(result.stats.cache_hit_rate);
  metrics.cancelled.Add(static_cast<std::uint64_t>(result.stats.cancelled));
  metrics.deadline_exceeded.Add(
      static_cast<std::uint64_t>(result.stats.deadline_exceeded));
  metrics.retries.Add(static_cast<std::uint64_t>(result.stats.retries));
  return result;
}

Result<std::vector<DagWorkflow>> BuildReducerCandidates(
    const JobSpec& job, const std::vector<int>& reducer_counts) {
  if (job.num_reduce_tasks == 0) {
    return Status::InvalidArgument(job.name + ": map-only job has no reducers");
  }
  std::vector<DagWorkflow> flows;
  flows.reserve(reducer_counts.size());
  for (int reducers : reducer_counts) {
    if (reducers < 1) return Status::InvalidArgument("candidate reducers < 1");
    JobSpec candidate = job;
    candidate.num_reduce_tasks = reducers;
    DagBuilder builder(job.name + "-r" + std::to_string(reducers));
    builder.AddJob(candidate);
    Result<DagWorkflow> flow = std::move(builder).Build();
    if (!flow.ok()) return flow.status();
    flows.push_back(std::move(flow).value());
  }
  return flows;
}

}  // namespace dagperf
