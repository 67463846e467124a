// Shared declarations of the `dagperf serve` benchmark: generated request
// lists, the forked isolation harness, the serial uncached reference, and
// the two run modes (closed-loop TCP runs and the traced in-process replay).
#ifndef DAGPERF_PERFBENCH_PERFBENCH_H_
#define DAGPERF_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dag/dag_workflow.h"

namespace perfbench {

/// Every server and in-process service in the benchmark registers the Table
/// III suite at this scale, the way `dagperf serve --scale 0.2` does.
inline constexpr double kScale = 0.2;
/// Server pool threads: with at most two client connections this keeps
/// client plus server threads within a 4-core host.
inline constexpr int kServerThreads = 2;

/// splitmix64: a small generator whose sequence is fixed by the seed on
/// every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// One wire request and what its answer must contain.
struct Request {
  std::string line;      ///< The NDJSON line, without the trailing newline.
  bool sweep = false;    ///< `sweep` (one makespan per node count) or `estimate`.
  int flow = 0;          ///< Index into Workload::flows.
  std::vector<int> nodes;
};

/// A flow some request names: registered by name, or sent inline.
struct FlowRef {
  std::string name;      ///< Registered name; empty for inline flows.
  std::string doc;       ///< Compact spec_io JSON of inline flows.
};

struct Workload {
  std::string name;
  int connections = 1;
  std::vector<FlowRef> flows;
  std::vector<Request> prime;  ///< Untimed, sent in order over one connection.
  std::vector<Request> timed;
};

/// Builds the request lists of `name` from `seed`; the timed list holds a
/// fixed number of requests per second of `seconds` (see NOTES.md), so two
/// runs with the same arguments replay identical work.
Workload MakeWorkload(const std::string& name, std::uint64_t seed, int seconds);
/// FNV-1a over every generated line, prime and timed, in order.
std::uint64_t Digest(const Workload& workload);

/// The registered flows of `dagperf serve --scale <scale>`, by name.
std::map<std::string, dagperf::DagWorkflow> RegisteredFlows(double scale = kScale);

/// One estimate to check: a flow (index into Workload::flows) at a node count.
struct Candidate {
  int flow = 0;
  int nodes = 0;
  bool operator<(const Candidate& o) const {
    return flow != o.flow ? flow < o.flow : nodes < o.nodes;
  }
};

/// One flow reference resolved against the registered flows.
std::shared_ptr<const dagperf::DagWorkflow> ResolveFlow(
    const FlowRef& ref, const std::map<std::string, dagperf::DagWorkflow>& registered);

/// Makespan as the wire prints it (common/json number formatting).
std::string WireNumber(double value);
/// The makespan tokens of a response line exactly as printed: one for an
/// estimate, one per candidate for a sweep ("!failed" for a failed
/// candidate); {"!error"} when the response is an error.
std::vector<std::string> WireMakespans(const Request& request, const std::string& reply);

/// Outcome of one isolated item: its payload, or nullopt when the child
/// process died while computing it.
struct Isolated {
  std::vector<std::optional<std::string>> items;
  std::vector<std::string> finals;  ///< One per child that finished its range.
  int crashes = 0;
};

/// Runs items [0, n) in forked children, `workers` at a time, each child
/// over a contiguous range. `body(begin, end, emit, emit_final)` runs in the
/// child: it calls emit(i, payload) after item i and emit_final(payload)
/// once at the end. When a child dies mid-range, the item it was on is
/// recorded as crashed and a fresh child resumes at the next item, so one
/// aborting input never takes the rest of the run with it.
using Emit = std::function<void(int, const std::string&)>;
using EmitFinal = std::function<void(const std::string&)>;
using ChildBody = std::function<void(int, int, const Emit&, const EmitFinal&)>;
Isolated RunIsolated(int n, int workers, const ChildBody& body);

/// Serial uncached reference: StateBasedEstimator::Estimate over
/// BoeTaskTimeSource, no memo, no checkpoint store, one forked child per
/// worker. Returns the wire-formatted makespan per candidate, or "!crash" /
/// "!error <code>" when the library aborted or refused.
std::map<Candidate, std::string> ComputeReference(
    const Workload& workload, const std::vector<Candidate>& candidates,
    int workers);

/// Every distinct candidate the workload's requests ask for.
std::vector<Candidate> DistinctCandidates(const Workload& workload);

/// A named metric in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Diagnostics printed before the result line (host context, failure
  /// kinds, informational server counts).
  std::vector<std::string> notes;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  std::string dagperf;  ///< Path of the built dagperf binary.
  std::string out_dir;  ///< Scratch directory for logs, port files, traces.
};

RunResult RunEndToEnd(const RunOptions& options);
RunResult RunTraced(const RunOptions& options);
/// Sends the known aborting inputs to a live server and checks each is
/// counted as lost and followed by a restart; prints its own report.
int RunCrashCheck(const RunOptions& options);

// Small shared helpers.
double NowSeconds();
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Host user+nice+system+idle+iowait+irq+softirq+steal jiffies and steal.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTimes ReadHostCpu();
double StealFraction(const CpuTimes& a, const CpuTimes& b);
int HostCpus();

}  // namespace perfbench

#endif  // DAGPERF_PERFBENCH_PERFBENCH_H_
