#include "tuner/tuner.h"

#include <algorithm>
#include <set>

#include "boe/boe_model.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"

namespace dagperf {

namespace {

/// Every tuning decision prices candidates with the same model stack: BOE
/// task times (1 s container overhead) fed to the state-based estimator.
constexpr double kContainerOverheadS = 1.0;

/// Rebuilds a workflow from its compiled job specs with extra edges.
Result<DagWorkflow> RebuildWithExtraEdges(
    const DagWorkflow& flow, const std::vector<std::pair<JobId, JobId>>& extra) {
  DagBuilder builder(flow.name() + "-variant");
  for (const auto& job : flow.jobs()) builder.AddJob(job.spec);
  for (const auto& [from, to] : flow.edges()) builder.AddEdge(from, to);
  for (const auto& [from, to] : extra) builder.AddEdge(from, to);
  return std::move(builder).Build();
}

/// Predicted makespans of all candidate flows on one cluster, evaluated by
/// the sweep engine (parallel across candidates, task-time cache shared —
/// knob sweeps leave most stages untouched, so most states recur).
Result<std::vector<Duration>> PredictAll(const std::vector<const DagWorkflow*>& flows,
                                         const ClusterSpec& cluster,
                                         const SchedulerConfig& scheduler,
                                         TaskTimeMemo* memo = nullptr) {
  const BoeModel boe(cluster.node);
  const BoeTaskTimeSource source(boe, Duration::Seconds(kContainerOverheadS));
  std::vector<SweepCandidate> requests;
  requests.reserve(flows.size());
  for (const DagWorkflow* flow : flows) requests.push_back({flow, cluster, ""});
  SweepOptions options;
  options.memo = memo;
  const SweepResult result = EstimateBatch(requests, scheduler, source, options);
  std::vector<Duration> times;
  times.reserve(flows.size());
  for (const auto& estimate : result.estimates) {
    if (!estimate.ok()) return estimate.status();
    times.push_back(estimate->makespan);
  }
  return times;
}

}  // namespace

Result<ReducerTuning> TuneReducers(const JobSpec& job, const ClusterSpec& cluster,
                                   const SchedulerConfig& scheduler,
                                   std::vector<int> candidates) {
  if (job.num_reduce_tasks == 0) {
    return Status::InvalidArgument(job.name + ": map-only job has no reducers");
  }
  if (candidates.empty()) {
    // Wave-aligned defaults: fractions and multiples of the slot count,
    // plus the library's auto heuristic.
    const DrfAllocator allocator(cluster, scheduler);
    const int slots = allocator.ClusterSlots(job.reduce_slot);
    std::set<int> grid;
    for (double factor : {0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0}) {
      const int c = static_cast<int>(slots * factor);
      if (c >= 1) grid.insert(c);
    }
    JobSpec auto_spec = job;
    auto_spec.num_reduce_tasks = kAutoReducers;
    grid.insert(ResolveReducers(auto_spec));
    candidates.assign(grid.begin(), grid.end());
  }

  Result<std::vector<DagWorkflow>> flows = BuildReducerCandidates(job, candidates);
  if (!flows.ok()) return flows.status();
  std::vector<const DagWorkflow*> flow_ptrs;
  flow_ptrs.reserve(flows->size());
  for (const DagWorkflow& flow : *flows) flow_ptrs.push_back(&flow);
  Result<std::vector<Duration>> times = PredictAll(flow_ptrs, cluster, scheduler);
  if (!times.ok()) return times.status();

  ReducerTuning result;
  result.best_time = Duration::Infinite();
  for (size_t i = 0; i < candidates.size(); ++i) {
    result.explored.push_back({candidates[i], (*times)[i]});
    if ((*times)[i] < result.best_time) {
      result.best_time = (*times)[i];
      result.best_reducers = candidates[i];
    }
  }
  return result;
}

Result<CompressionDecision> DecideCompression(const JobSpec& job,
                                              const ClusterSpec& cluster,
                                              const SchedulerConfig& scheduler) {
  const auto build = [&](bool compress) -> Result<DagWorkflow> {
    JobSpec candidate = job;
    candidate.compress_map_output = compress;
    DagBuilder builder(job.name + "-tuning");
    builder.AddJob(candidate);
    return std::move(builder).Build();
  };
  Result<DagWorkflow> on = build(true);
  if (!on.ok()) return on.status();
  Result<DagWorkflow> off = build(false);
  if (!off.ok()) return off.status();
  Result<std::vector<Duration>> times =
      PredictAll({&*on, &*off}, cluster, scheduler);
  if (!times.ok()) return times.status();
  CompressionDecision decision;
  decision.with_compression = (*times)[0];
  decision.without_compression = (*times)[1];
  decision.compress = (*times)[0] < (*times)[1];
  return decision;
}

Result<BranchDecision> DecideBranchPolicy(const DagWorkflow& flow,
                                          const ClusterSpec& cluster,
                                          const SchedulerConfig& scheduler) {
  const std::vector<JobId> sources = flow.Sources();
  if (sources.size() < 2) {
    return Status::InvalidArgument(flow.name() + ": fewer than two source jobs");
  }
  // Serialise: chain each source behind the previous one.
  std::vector<std::pair<JobId, JobId>> chain;
  for (size_t i = 0; i + 1 < sources.size(); ++i) {
    chain.emplace_back(sources[i], sources[i + 1]);
  }
  Result<DagWorkflow> serial_flow = RebuildWithExtraEdges(flow, chain);
  if (!serial_flow.ok()) return serial_flow.status();

  Result<std::vector<Duration>> times =
      PredictAll({&flow, &*serial_flow}, cluster, scheduler);
  if (!times.ok()) return times.status();
  BranchDecision decision;
  decision.corun_time = (*times)[0];
  decision.serialized_time = (*times)[1];
  decision.policy = decision.corun_time <= decision.serialized_time
                        ? BranchPolicy::kCoRun
                        : BranchPolicy::kSerialize;
  return decision;
}

Result<ClusterSizing> SizeCluster(const DagWorkflow& flow, Duration deadline,
                                  const ClusterSpec& node_template,
                                  const SchedulerConfig& scheduler, int max_nodes) {
  if (deadline.seconds() <= 0) {
    return Status::InvalidArgument("deadline must be positive");
  }
  if (max_nodes < 1) return Status::InvalidArgument("max_nodes must be >= 1");

  ClusterSizing sizing;
  // The task-time cache is shared across every probe: changing the node
  // count changes per-stage parallelism, but many states (and all states of
  // small upstream jobs) recur between probes.
  TaskTimeMemo memo;
  const auto predict = [&](const std::vector<int>& node_counts)
      -> Result<std::vector<Duration>> {
    std::vector<ClusterSpec> clusters;
    clusters.reserve(node_counts.size());
    for (int nodes : node_counts) {
      ClusterSpec cluster = node_template;
      cluster.num_nodes = nodes;
      clusters.push_back(cluster);
    }
    std::vector<const DagWorkflow*> flows(node_counts.size(), &flow);
    // All probes share the template's node type, so one BOE source serves
    // every cluster size (task times depend on per-node populations, which
    // the estimation context carries).
    const BoeModel boe(node_template.node);
    const BoeTaskTimeSource source(boe, Duration::Seconds(kContainerOverheadS));
    std::vector<SweepCandidate> requests;
    requests.reserve(node_counts.size());
    for (size_t i = 0; i < node_counts.size(); ++i) {
      requests.push_back({flows[i], clusters[i], ""});
    }
    SweepOptions options;
    options.memo = &memo;
    const SweepResult result = EstimateBatch(requests, scheduler, source, options);
    std::vector<Duration> times;
    times.reserve(node_counts.size());
    for (size_t i = 0; i < result.estimates.size(); ++i) {
      if (!result.estimates[i].ok()) return result.estimates[i].status();
      times.push_back(result.estimates[i]->makespan);
      sizing.explored.push_back({node_counts[i], result.estimates[i]->makespan});
    }
    return times;
  };

  // Exponential ladder, evaluated as one parallel batch; the predicted
  // makespan is monotone non-increasing in the node count, so the first
  // ladder rung meeting the deadline brackets the answer.
  std::vector<int> ladder;
  for (int nodes = 1;; nodes = std::min(nodes * 2, max_nodes)) {
    ladder.push_back(nodes);
    if (nodes >= max_nodes) break;
  }
  Result<std::vector<Duration>> ladder_times = predict(ladder);
  if (!ladder_times.ok()) return ladder_times.status();
  int passing = -1;
  for (size_t i = 0; i < ladder.size(); ++i) {
    if ((*ladder_times)[i] <= deadline) {
      passing = static_cast<int>(i);
      break;
    }
  }
  if (passing < 0) {
    return Status::NotFound("no cluster size within max_nodes meets the deadline");
  }
  int hi = ladder[passing];
  Duration hi_time = (*ladder_times)[passing];
  int lo = passing == 0 ? hi : ladder[passing - 1];

  // Invariant: predict(hi) <= deadline; predict(lo) > deadline or lo == hi.
  while (lo + 1 < hi) {
    const int mid = lo + (hi - lo) / 2;
    Result<std::vector<Duration>> mid_time = predict({mid});
    if (!mid_time.ok()) return mid_time.status();
    if ((*mid_time)[0] <= deadline) {
      hi = mid;
      hi_time = (*mid_time)[0];
    } else {
      lo = mid;
    }
  }
  sizing.nodes = hi;
  sizing.predicted = hi_time;
  return sizing;
}

}  // namespace dagperf
