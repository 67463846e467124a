// The traced run: replays the workload's lines in-process through
// successively lower public entry points and times each call from here.
// Each level keeps its own warm state, so every level sees the same state at
// a given line. Levels 1-5 take turns over blocks of lines in one forked
// child, the bare estimator and the micro-calls run in children of their own,
// and an aborting input costs only the call it was in. Self time of a level is
// its span minus the next-lower level's span on the same line.
#include <algorithm>
#include <fstream>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "boe/boe_model.h"
#include "cluster/cluster_spec.h"
#include "cluster/rate_solver.h"
#include "common/json.h"
#include "common/parallel.h"
#include "dag/spec_io.h"
#include "dag/validate.h"
#include "model/incremental.h"
#include "model/state_estimator.h"
#include "model/sweep.h"
#include "model/task_time_cache.h"
#include "model/task_time_source.h"
#include "perfbench.h"
#include "scheduler/drf.h"
#include "service/line_client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

namespace perfbench {

namespace {

using namespace dagperf;

/// Lines replayed per workload: all priming lines, then at most this many
/// timed lines, so a traced run's work does not grow with --seconds.
int TracedTimedLines(const std::string& workload) {
  if (workload == "recurring") return 20000;
  if (workload == "capacity-sweep") return 300;
  return 600;
}

constexpr std::size_t kFullHitProbes = 64;
constexpr int kMicroRepeats = 200;
const std::string kScope = "default";  // the service's default cluster entry

double Us() { return NowSeconds() * 1e6; }

/// Per-line record of one level: span start/duration (µs), level-specific
/// numbers, and the makespans it answered.
struct Record {
  double start = 0.0, dur = 0.0;
  std::vector<double> extra;
  std::vector<std::string> makespans;
};

std::string Encode(const Record& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.start << ' ' << r.dur;
  for (double x : r.extra) out << ' ' << x;
  out << " ;";
  for (const std::string& m : r.makespans) out << ' ' << m;
  return out.str();
}

Record Decode(const std::string& s) {
  Record r;
  const std::size_t semi = s.find(';');
  std::istringstream head(s.substr(0, semi));
  head >> r.start >> r.dur;
  for (double x; head >> x;) r.extra.push_back(x);
  std::istringstream tail(s.substr(semi + 1));
  for (std::string m; tail >> m;) r.makespans.push_back(m);
  return r;
}

std::unique_ptr<EstimationService> MakeService() {
  ServiceOptions options;
  options.threads = kServerThreads;
  options.breaker_failure_threshold = 8;  // as `dagperf serve` sets it
  auto service = std::make_unique<EstimationService>(options);
  for (auto& [name, flow] : RegisteredFlows()) {
    if (!service->RegisterWorkflow(name, std::move(flow)).ok()) {
      throw std::runtime_error("cannot register " + name);
    }
  }
  return service;
}

std::vector<std::string> Makespans(const SweepResult& sweep) {
  std::vector<std::string> out;
  for (const auto& e : sweep.estimates) {
    out.push_back(e.ok() ? WireNumber(e.value().makespan.seconds()) : "!failed");
  }
  return out;
}

/// Counts and times every query that reaches the wrapped source.
class TimedSource : public TaskTimeSource {
 public:
  explicit TimedSource(const TaskTimeSource& base) : base_(base) {}
  Duration TaskTime(const EstimationContext& context) const override {
    const double t0 = Us();
    const Duration d = base_.TaskTime(context);
    const double dt = Us() - t0;
    inside_us += dt;
    samples.push_back(dt);
    return d;
  }
  NormalParams TaskTimeDist(const EstimationContext& context) const override {
    return base_.TaskTimeDist(context);
  }
  mutable double inside_us = 0.0;
  mutable std::vector<double> samples;

 private:
  const TaskTimeSource& base_;
};

struct Level {
  const char* name;
  const char* category;
};
const Level kLevels[] = {
    {"wire.round_trip", "service/server"},
    {"protocol.handle_line", "service/protocol"},
    {"service.submit", "service/service"},
    {"sweep.estimate_batch.parallel", "model/sweep"},
    {"sweep.estimate_batch.serial", "model/incremental"},
    {"estimator.estimate_into", "model/state_estimator"},
};
constexpr int kLineLevels = 5;  // levels 0..4 replay lines; 5 replays candidates

struct Replay {
  const Workload* workload;
  std::vector<const Request*> lines;
  std::vector<std::shared_ptr<const DagWorkflow>> flows;
  std::vector<std::string> flow_docs;  ///< spec_io JSON text per flow
  std::vector<Candidate> candidates;   ///< distinct, in first-use order
};

std::vector<SweepCandidate> CandidatesOf(const Replay& replay, const Request& r) {
  std::vector<SweepCandidate> out;
  for (int nodes : r.nodes) {
    ClusterSpec spec = ClusterSpec::PaperCluster();
    spec.num_nodes = nodes;
    out.push_back({replay.flows[r.flow].get(), spec, std::to_string(nodes)});
  }
  return out;
}

/// Level 1: `ServeTcp` on its own service, called over loopback.
class WireStage {
 public:
  WireStage() : service_(MakeService()) {
    std::promise<int> port;
    tcp_.on_listen = [&port](int p) { port.set_value(p); };
    tcp_.stop = CancelToken::Cancellable();
    server_ = std::thread([this] { (void)ServeTcp(*service_, tcp_); });
    if (!client_.Connect(port.get_future().get()).ok()) ::_exit(4);
  }
  ~WireStage() {
    client_.Close();
    tcp_.stop.Cancel();
    server_.join();
  }
  WireStage(const WireStage&) = delete;
  WireStage& operator=(const WireStage&) = delete;

  Record Run(const Request& r) {
    Record rec;
    rec.start = Us();
    auto reply = client_.Call(r.line, 60.0);
    rec.dur = Us() - rec.start;
    if (!reply.ok()) ::_exit(5);
    rec.makespans = WireMakespans(r, reply.value());
    return rec;
  }

 private:
  std::unique_ptr<EstimationService> service_;
  TcpServerOptions tcp_;
  protocol::LineClient client_;
  std::thread server_;
};

/// Level 2: `Protocol::HandleLine`, then the parse and serialize cost of the
/// line's documents, timed apart.
class ProtocolStage {
 public:
  ProtocolStage() : service_(MakeService()), protocol_(service_.get()) {}

  Record Run(const Request& r) {
    Record rec;
    rec.start = Us();
    const std::string reply = protocol_.HandleLine(r.line);
    rec.dur = Us() - rec.start;
    const double p0 = Us();
    auto request = Json::Parse(r.line);
    const double parse_us = Us() - p0;
    auto response = Json::Parse(reply);
    const double d0 = Us();
    const std::string dumped = response.ok() ? response.value().DumpCompact() : "";
    const double dump_us = Us() - d0;
    if (!request.ok() || dumped.empty()) ::_exit(6);
    rec.extra = {static_cast<double>(reply.size()), parse_us, dump_us};
    rec.makespans = WireMakespans(r, reply);
    return rec;
  }

 private:
  std::unique_ptr<EstimationService> service_;
  Protocol protocol_;
};

/// Level 3: `EstimationService::Submit(EstimateRequest).get()`, after
/// timing the ingestion of the line's flow document (inline, or the
/// registered flow exported).
class ServiceStage {
 public:
  explicit ServiceStage(const Replay& replay) : replay_(replay), service_(MakeService()) {}

  Record Run(const Request& r) {
    const FlowRef& ref = replay_.workload->flows[r.flow];
    auto doc = Json::Parse(replay_.flow_docs[r.flow]);
    const double f0 = Us();
    auto parsed = WorkflowFromJson(doc.value());
    const double from_json_us = Us() - f0;
    if (!parsed.ok()) ::_exit(7);
    const double v0 = Us();
    const bool valid = ValidateWorkflow(parsed.value()).ok();
    const double validate_us = Us() - v0;
    if (!valid) ::_exit(8);
    EstimateRequest request =
        ref.name.empty()
            ? EstimateRequest::For(std::make_shared<const DagWorkflow>(
                  std::move(parsed).value()))
            : EstimateRequest::For(ref.name);
    if (r.sweep) {
      request.SweepNodes(r.nodes);
    } else {
      request.WithNodes(r.nodes[0]);
    }
    Record rec;
    rec.start = Us();
    Result<EstimateResponse> served = service_->Submit(std::move(request)).get();
    rec.dur = Us() - rec.start;
    double queue_wait_us = 0.0;
    if (!served.ok()) {
      rec.makespans = {"!error"};
    } else if (served.value().is_sweep()) {
      const ServiceSweepResult& sweep = *served.value().sweep;
      queue_wait_us = rec.dur - 1e3 * sweep.service_ms;
      rec.makespans = Makespans(sweep.sweep);
    } else {
      const WorkflowEstimate& e = *served.value().estimate;
      queue_wait_us = 1e3 * e.queue_wait_ms;
      rec.makespans = {WireNumber(e.estimate.makespan.seconds())};
    }
    rec.extra = {queue_wait_us, from_json_us, validate_us};
    return rec;
  }

 private:
  const Replay& replay_;
  std::unique_ptr<EstimationService> service_;
};

/// Levels 4 and 5: EstimateBatch over a service-lifetime memo and checkpoint
/// store, the way the service runs every request: on a 2-thread pool
/// (parallel) or in the caller (serial, whose counts must repeat exactly).
class BatchStage {
 public:
  BatchStage(const Replay& replay, bool parallel)
      : replay_(replay), model_(ClusterSpec::PaperCluster().node),
        source_(model_, Duration::Seconds(1)) {
    if (parallel) pool_.emplace(kServerThreads);
    options_.memo = &memo_;
    options_.cache_scope = kScope;
    options_.checkpoints = &checkpoints_;
    options_.pool = parallel ? &*pool_ : nullptr;
    options_.threads = 1;
  }

  Record Run(const Request& r) {
    const auto candidates = CandidatesOf(replay_, r);
    Record rec;
    rec.start = Us();
    const SweepResult result = EstimateBatch(candidates, SchedulerConfig{}, source_, options_);
    rec.dur = Us() - rec.start;
    double line_states = 0.0;
    for (const auto& e : result.estimates) {
      if (e.ok()) line_states += static_cast<double>(e.value().states.size());
    }
    states_ += line_states;
    rec.extra = {static_cast<double>(candidates.size()), line_states};
    rec.makespans = Makespans(result);
    return rec;
  }

  /// The store and memo counts, then a full-depth hit probe: re-estimates
  /// of candidates of the lines run, whose whole run is stored.
  std::string Counts(const std::vector<int>& lines) {
    const PrefixCheckpointStore::Stats ck = checkpoints_.stats();
    const TaskTimeMemo::Stats mm = memo_.stats();
    std::vector<double> full_hit_us;
    const MemoizedTaskTimeSource cached(source_, &memo_, kScope);
    for (std::size_t k = 0; k < lines.size() && full_hit_us.size() < kFullHitProbes; ++k) {
      for (const SweepCandidate& c : CandidatesOf(replay_, *replay_.lines[lines[k]])) {
        EstimatorOptions eo;
        eo.checkpoints = &checkpoints_;
        eo.checkpoint_scope = kScope;
        const StateBasedEstimator estimator(c.cluster, SchedulerConfig{}, eo);
        const double t0 = Us();
        auto e = estimator.Estimate(*c.flow, cached);
        const double dt = Us() - t0;
        if (e.ok() && e.value().resumed_states == static_cast<int>(e.value().states.size())) {
          full_hit_us.push_back(dt);
        }
      }
    }
    std::ostringstream out;
    out.precision(17);
    out << ck.hits << ' ' << ck.misses << ' ' << ck.inserts << ' ' << ck.resumed_states
        << ' ' << ck.bytes << ' ' << mm.hits << ' ' << mm.misses << ' ' << states_ << ' '
        << Median(full_hit_us) << ' ' << full_hit_us.size();
    return out.str();
  }

 private:
  const Replay& replay_;
  const BoeModel model_;
  const BoeTaskTimeSource source_;
  TaskTimeMemo memo_;
  PrefixCheckpointStore checkpoints_;
  std::optional<ThreadPool> pool_;
  SweepOptions options_;
  double states_ = 0.0;
};

/// Levels 1-5 take turns over blocks of kBlock lines, each with its own
/// state: within a block a level runs warm, and the spans subtracted for a
/// self time are taken at most a block apart. `order` lists the (line,
/// level) items in that order; each item is reported as it finishes.
constexpr int kBlock = 64;

std::vector<std::pair<int, int>> BlockOrder(int lines) {
  std::vector<std::pair<int, int>> order;
  for (int b = 0; b < lines; b += kBlock) {
    for (int level = 0; level < kLineLevels; ++level) {
      for (int i = b; i < std::min(lines, b + kBlock); ++i) order.push_back({i, level});
    }
  }
  return order;
}

void LineLevels(const Replay& replay, const std::vector<std::pair<int, int>>& order,
                int begin, int end, const Emit& emit, const EmitFinal& done) {
  WireStage wire;
  ProtocolStage protocol;
  ServiceStage service(replay);
  BatchStage parallel(replay, true);
  BatchStage serial(replay, false);
  std::vector<int> serial_lines;
  for (int k = begin; k < end; ++k) {
    const auto [i, level] = order[k];
    const Request& r = *replay.lines[i];
    Record rec;
    switch (level) {
      case 0: rec = wire.Run(r); break;
      case 1: rec = protocol.Run(r); break;
      case 2: rec = service.Run(r); break;
      case 3: rec = parallel.Run(r); break;
      default:
        rec = serial.Run(r);
        serial_lines.push_back(i);
    }
    emit(k, Encode(rec));
  }
  done(serial.Counts(serial_lines));
}

/// The bare estimator over each distinct candidate: no memo, no store, a
/// timing wrapper around the BOE source.
void BareLevel(const Replay& replay, int begin, int end, const Emit& emit,
               const EmitFinal& done) {
  std::vector<double> query_us;
  for (int i = begin; i < end; ++i) {
    const Candidate& c = replay.candidates[i];
    ClusterSpec spec = ClusterSpec::PaperCluster();
    spec.num_nodes = c.nodes;
    const BoeModel model(spec.node);
    const BoeTaskTimeSource boe(model, Duration::Seconds(1));
    const TimedSource timed(boe);
    const StateBasedEstimator estimator(spec, SchedulerConfig{}, EstimatorOptions{});
    DagEstimate out;
    Record rec;
    rec.start = Us();
    const Status st = estimator.EstimateInto(*replay.flows[c.flow], timed, &out);
    rec.dur = Us() - rec.start;
    rec.extra = {timed.inside_us, static_cast<double>(timed.samples.size()),
                 static_cast<double>(out.states.size())};
    rec.makespans = {st.ok() ? WireNumber(out.makespan.seconds()) : "!failed"};
    query_us.insert(query_us.end(), timed.samples.begin(), timed.samples.end());
    emit(i, Encode(rec));
  }
  std::ostringstream out;
  out.precision(17);
  out << Median(query_us);
  done(out.str());
}

/// Direct calls into the lowest layers, on inputs taken from the replayed
/// flows. Items: rate solver at 4/16/64 flows, DRF, BOE task, pool handoff.
void MicroLevel(const Replay& replay, int begin, int end, const Emit& emit,
                const EmitFinal& done) {
  const ClusterSpec cluster = ClusterSpec::PaperCluster();
  std::vector<const StageProfile*> stages;
  std::vector<const DagWorkflow*> flows;
  for (const Candidate& c : replay.candidates) {
    const DagWorkflow* flow = replay.flows[c.flow].get();
    if (std::find(flows.begin(), flows.end(), flow) != flows.end()) continue;
    flows.push_back(flow);
    for (const JobProfile& job : flow->jobs()) {
      stages.push_back(&job.map);
      if (job.has_reduce()) stages.push_back(&*job.reduce);
    }
    if (flows.size() >= 16) break;
  }
  std::vector<ResourceVector> demands;
  for (const StageProfile* s : stages) {
    for (const SubStageProfile& sub : s->substages) demands.push_back(sub.demand);
  }
  const auto timed = [](const auto& fn) {
    std::vector<double> us;
    for (int k = 0; k < kMicroRepeats; ++k) {
      const double t0 = Us();
      fn(k);
      us.push_back(Us() - t0);
    }
    return Median(us);
  };
  for (int i = begin; i < end; ++i) {
    double p50 = 0.0;
    if (i <= 2) {
      const int n = i == 0 ? 4 : i == 1 ? 16 : 64;
      ResourceVector caps;
      caps[Resource::kCpu] = 1.0;
      std::vector<Flow> in;
      for (int k = 0; k < n; ++k) {
        Flow f;
        f.population = 0.5 + 0.5 * (k % 6);
        f.demand = demands[k % demands.size()];
        f.per_task_cap = caps;
        in.push_back(f);
      }
      const ResourceVector capacities = cluster.node.Capacities();
      std::vector<FlowRate> rates;
      p50 = timed([&](int) { SolveRates(capacities, in, &rates); });
    } else if (i == 3) {
      const DrfAllocator drf(cluster, SchedulerConfig{});
      std::vector<std::vector<StageDemand>> sets;
      for (const DagWorkflow* flow : flows) {
        std::vector<StageDemand> set;
        for (const JobProfile& job : flow->jobs()) {
          set.push_back({job.map.slot, job.map.num_tasks});
        }
        sets.push_back(std::move(set));
      }
      std::vector<int> granted;
      p50 = timed([&](int k) { drf.Allocate(sets[k % sets.size()], &granted); });
    } else if (i == 4) {
      const BoeModel model(cluster.node);
      p50 = timed([&](int k) {
        volatile double d =
            model.EstimateTask(*stages[k % stages.size()], 6.0).duration.seconds();
        (void)d;
      });
    } else {
      ThreadPool pool(kServerThreads);
      p50 = timed([&](int) {
        pool.Submit([] {});
        pool.Wait();
      });
    }
    std::ostringstream out;
    out.precision(17);
    out << p50;
    emit(i, out.str());
  }
  done("");
}

}  // namespace

RunResult RunTraced(const RunOptions& options) {
  const Workload workload = MakeWorkload(options.workload, options.seed, options.seconds);
  Replay replay;
  replay.workload = &workload;
  for (const Request& r : workload.prime) replay.lines.push_back(&r);
  const int timed = std::min<int>(TracedTimedLines(options.workload),
                                  static_cast<int>(workload.timed.size()));
  for (int i = 0; i < timed; ++i) replay.lines.push_back(&workload.timed[i]);
  // Only the flows the replayed lines use are resolved; a flow's document
  // is the inline one, or the registered flow exported.
  const auto registered = RegisteredFlows();
  replay.flows.resize(workload.flows.size());
  replay.flow_docs.resize(workload.flows.size());
  for (const Request* r : replay.lines) {
    const FlowRef& ref = workload.flows[r->flow];
    if (replay.flows[r->flow]) continue;
    replay.flows[r->flow] = ResolveFlow(ref, registered);
    replay.flow_docs[r->flow] =
        ref.name.empty() ? ref.doc : WorkflowToJson(*replay.flows[r->flow]).DumpCompact();
  }
  std::set<Candidate> seen;
  for (const Request* r : replay.lines) {
    for (int nodes : r->nodes) {
      if (seen.insert({r->flow, nodes}).second) replay.candidates.push_back({r->flow, nodes});
    }
  }
  const auto reference = ComputeReference(workload, replay.candidates, HostCpus());

  const CpuTimes host0 = ReadHostCpu();
  const int n_lines = static_cast<int>(replay.lines.size());
  const auto order = BlockOrder(n_lines);
  const Isolated items = RunIsolated(static_cast<int>(order.size()), 1,
                                     [&](int b, int e, const Emit& emit, const EmitFinal& done) {
                                       LineLevels(replay, order, b, e, emit, done);
                                     });
  // Regroup the items by level.
  std::vector<Isolated> levels(kLineLevels);
  for (Isolated& level : levels) level.items.resize(n_lines);
  for (std::size_t k = 0; k < order.size(); ++k) {
    levels[order[k].second].items[order[k].first] = items.items[k];
  }
  levels[0].crashes = items.crashes;
  levels[4].finals = items.finals;
  levels.push_back(RunIsolated(static_cast<int>(replay.candidates.size()), 1,
                               [&](int b, int e, const Emit& emit, const EmitFinal& done) {
                                 BareLevel(replay, b, e, emit, done);
                               }));
  const Isolated micro = RunIsolated(6, 1, [&](int b, int e, const Emit& emit, const EmitFinal& done) {
    MicroLevel(replay, b, e, emit, done);
  });
  const CpuTimes host1 = ReadHostCpu();

  // Decode, check every answer against the reference, and write the trace.
  RunResult result;
  long mismatches = 0, errors = 0, crashes = 0;
  std::vector<std::vector<std::optional<Record>>> recs(levels.size());
  std::ostringstream trace;
  trace.precision(17);
  trace << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    crashes += levels[l].crashes;
    result.attempted += static_cast<long>(levels[l].items.size());
    for (std::size_t i = 0; i < levels[l].items.size(); ++i) {
      if (!levels[l].items[i]) {
        recs[l].push_back(std::nullopt);
        continue;
      }
      Record rec = Decode(*levels[l].items[i]);
      std::vector<std::pair<int, int>> keys;  // (flow, nodes) per makespan
      long id = static_cast<long>(i);
      if (l < kLineLevels) {
        for (int nodes : replay.lines[i]->nodes) keys.push_back({replay.lines[i]->flow, nodes});
      } else {
        keys.push_back({replay.candidates[i].flow, replay.candidates[i].nodes});
      }
      bool same = rec.makespans.size() == keys.size();
      for (std::size_t j = 0; same && j < keys.size(); ++j) {
        same = rec.makespans[j] == reference.at({keys[j].first, keys[j].second});
      }
      if (rec.makespans.size() == 1 && rec.makespans[0].rfind("!", 0) == 0) ++errors;
      else if (!same) ++mismatches;
      trace << (first ? "" : ",") << "{\"name\":\"" << kLevels[l].name
            << "\",\"cat\":\"" << kLevels[l].category << "\",\"ph\":\"X\",\"ts\":"
            << rec.start << ",\"dur\":" << rec.dur << ",\"pid\":1,\"tid\":" << l + 1
            << ",\"args\":{\"" << (l < kLineLevels ? "request" : "candidate")
            << "\":" << id << "}}";
      first = false;
      recs[l].push_back(std::move(rec));
    }
  }
  trace << "]}\n";
  const std::string trace_path = options.out_dir + "/trace-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  std::ofstream(trace_path) << trace.str();
  result.attempted += static_cast<long>(micro.items.size());
  crashes += micro.crashes;
  result.failed = mismatches + errors + crashes;
  result.correct = mismatches == 0;

  // Per-line self times, over lines every level answered.
  std::vector<double> wire, handle, protocol_self, bytes, parse, dump, from_json,
      validate, submit, service_self, queue_wait;
  double serial_us = 0.0, parallel_us = 0.0, batch_candidates = 0.0;
  for (int i = 0; i < n_lines; ++i) {
    bool all = true;
    for (int l = 0; l < kLineLevels; ++l) all = all && recs[l][i].has_value();
    if (!all) continue;
    const Record &w = *recs[0][i], &p = *recs[1][i], &s = *recs[2][i],
                 &bp = *recs[3][i], &bs = *recs[4][i];
    wire.push_back(w.dur - p.dur);
    handle.push_back(p.dur);
    protocol_self.push_back(p.dur - s.dur);
    bytes.push_back(p.extra[0]);
    parse.push_back(p.extra[1]);
    dump.push_back(p.extra[2]);
    submit.push_back(s.dur);
    service_self.push_back(s.dur - bp.dur);
    queue_wait.push_back(s.extra[0]);
    from_json.push_back(s.extra[1]);
    validate.push_back(s.extra[2]);
    parallel_us += bp.dur;
    serial_us += bs.dur;
    batch_candidates += bp.extra[0];
  }
  std::vector<double> estimator_self;
  double queries = 0.0, bare_estimates = 0.0;
  for (const auto& rec : recs[5]) {
    if (!rec) continue;
    estimator_self.push_back(rec->dur - rec->extra[0]);
    queries += rec->extra[1];
    bare_estimates += 1.0;
  }
  // Serial counts: summed over the children (one unless an input crashed);
  // the full-hit p50 and its probe count come from the first child.
  std::vector<double> counts(10, 0.0);
  for (std::size_t k = 0; k < levels[4].finals.size(); ++k) {
    std::istringstream in(levels[4].finals[k]);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      double v = 0.0;
      in >> v;
      if (j < 8 || k == 0) counts[j] += v;
    }
  }
  double query_p50 = 0.0;
  if (!levels[5].finals.empty()) query_p50 = std::stod(levels[5].finals[0]);
  const auto micro_us = [&](int i) {
    return micro.items[i] ? std::stod(*micro.items[i]) : 0.0;
  };
  const double memo_total = counts[5] + counts[6];
  result.metrics = {
      {"wire.rtt_us_p50", Median(wire), "us"},
      {"protocol.handle_line_us_p50", Median(handle), "us"},
      {"protocol.self_us_p50", Median(protocol_self), "us"},
      {"protocol.response_bytes", Median(bytes), "B"},
      {"json.parse_us_p50", Median(parse), "us"},
      {"json.dump_us_p50", Median(dump), "us"},
      {"spec_io.from_json_us_p50", Median(from_json), "us"},
      {"validate.us_p50", Median(validate), "us"},
      {"service.submit_us_p50", Median(submit), "us"},
      {"service.self_us_p50", Median(service_self), "us"},
      {"service.queue_wait_us_p50", Median(queue_wait), "us"},
      {"pool.handoff_us_p50", micro_us(5), "us"},
      {"sweep.estimates_per_s",
       parallel_us > 0 ? 1e6 * batch_candidates / parallel_us : 0.0, "1/s"},
      {"sweep.parallel_efficiency",
       parallel_us > 0 ? serial_us / (kServerThreads * parallel_us) : 0.0, "ratio"},
      {"checkpoint.full_hit_us_p50", counts[8], "us"},
      {"checkpoint.hits", counts[0], "count"},
      {"checkpoint.misses", counts[1], "count"},
      {"checkpoint.inserts", counts[2], "count"},
      {"checkpoint.resumed_states", counts[3], "count"},
      {"checkpoint.bytes", counts[4], "B"},
      {"memo.hits", counts[5], "count"},
      {"memo.misses", counts[6], "count"},
      {"memo.hit_rate", memo_total > 0 ? counts[5] / memo_total : 0.0, "ratio"},
      {"estimator.states_per_estimate",
       batch_candidates > 0 ? counts[7] / batch_candidates : 0.0, "count"},
      {"estimator.self_us_p50", Median(estimator_self), "us"},
      {"task_time.queries_per_estimate",
       bare_estimates > 0 ? queries / bare_estimates : 0.0, "count"},
      {"task_time.us_per_query_p50", query_p50, "us"},
      {"boe.estimate_task_us_p50", micro_us(4), "us"},
      {"rate_solver.solve_us.f4", micro_us(0), "us"},
      {"rate_solver.solve_us.f16", micro_us(1), "us"},
      {"rate_solver.solve_us.f64", micro_us(2), "us"},
      {"drf.allocate_us_p50", micro_us(3), "us"},
      {"host.steal_frac", StealFraction(host0, host1), "ratio"},
  };
  std::ostringstream note;
  note << "{\"traced\":{\"lines\":" << n_lines << ",\"candidates\":"
       << replay.candidates.size() << ",\"full_hit_probes\":" << counts[9]
       << ",\"mismatch\":" << mismatches << ",\"error\":" << errors
       << ",\"crashes\":" << crashes << ",\"trace\":\"" << trace_path
       << "\",\"nproc\":" << HostCpus() << ",\"service_threads\":" << kServerThreads
       << "}}";
  result.notes.push_back(note.str());
  return result;
}

}  // namespace perfbench
