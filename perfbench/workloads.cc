// Seeded request lists for the three workloads, plus the small helpers the
// run modes share. See NOTES.md for why each workload exists.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/json.h"
#include "common/units.h"
#include "dag/spec_io.h"
#include "perfbench.h"
#include "workloads/suite.h"
#include "workloads/web_analytics.h"

namespace perfbench {

using dagperf::DagWorkflow;
using dagperf::Json;

namespace {

/// Timed requests per second of --seconds. Fixed numbers, so a run's work
/// never depends on how fast the host happened to be; sized so that the
/// timed phase lasts about --seconds on a 4-core x86 host.
constexpr int kRecurringPerSecond = 18000;
constexpr int kSweepsPerSecond = 600;
constexpr int kResweepsPerSecond = 2000;

constexpr int kSweepWidth = 8;                // node counts per sweep
constexpr int kSweepNodesFirst = 2;           // smallest swept node count
constexpr int kRecurringNodes[] = {4, 8, 12, 16, 24, 32};
constexpr double kZipfExponent = 1.0;
/// The multi-job flows whose exported documents tuning-resweep edits.
const char* const kResweepBases[] = {"TS-Q21", "WC-Q21", "TS-Q8", "TS-Q9"};
constexpr int kResweepNodes = 11;             // the paper's cluster size
constexpr int kResweepLateJobs = 2;           // reducer counts changed on these
constexpr int kReducersFirst = 8;

std::vector<std::string> RegisteredNames() {
  std::vector<std::string> names;
  auto suite = dagperf::TableThreeSuite(kScale);
  if (!suite.ok()) throw std::runtime_error(suite.status().ToString());
  for (const auto& named : suite.value()) names.push_back(named.name);
  names.push_back("web-analytics");
  return names;
}

std::string EstimateLine(const std::string& workflow, int nodes, long id) {
  return "{\"op\":\"estimate\",\"workflow\":\"" + workflow +
         "\",\"nodes\":" + std::to_string(nodes) +
         ",\"id\":" + std::to_string(id) + "}";
}

Workload Recurring(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "recurring";
  w.connections = 2;
  Rng rng(seed);
  const std::vector<std::string> names = RegisteredNames();
  const int flows = static_cast<int>(names.size());
  for (const std::string& name : names) w.flows.push_back({name, ""});
  // Key rank k is workflow k % flows at node slot k / flows: every workflow
  // keeps the same share of traffic at every seed (so the response-size mix
  // is fixed), while the seed decides which node counts are hot.
  std::vector<std::vector<int>> slots(flows);
  for (auto& s : slots) {
    s.assign(std::begin(kRecurringNodes), std::end(kRecurringNodes));
    rng.Shuffle(s);
  }
  const int keys = flows * static_cast<int>(std::size(kRecurringNodes));
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (int k = 0; k < keys; ++k) {
    total += 1.0 / std::pow(k + 1.0, kZipfExponent);
    cdf[k] = total;
  }
  long id = 0;
  const auto make = [&](int k) {
    Request r;
    r.flow = k % flows;
    r.nodes = {slots[r.flow][k / flows]};
    r.line = EstimateLine(names[r.flow], r.nodes[0], id++);
    return r;
  };
  for (int k = 0; k < keys; ++k) w.prime.push_back(make(k));
  const long n = static_cast<long>(seconds) * kRecurringPerSecond;
  for (long i = 0; i < n; ++i) {
    const double u = rng.Unit() * total;
    const int k = static_cast<int>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    w.timed.push_back(make(std::min(k, keys - 1)));
  }
  return w;
}

Workload CapacitySweep(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "capacity-sweep";
  w.connections = 1;
  Rng rng(seed);
  const std::vector<std::string> names = RegisteredNames();
  const int flows = static_cast<int>(names.size());
  for (const std::string& name : names) w.flows.push_back({name, ""});
  // Every workflow is swept over every node count of one range, exactly
  // once, so the candidate set is the same at every seed. Sweep j of a
  // workflow covers the whole range at a stride, from 2 + j upwards, the way
  // a planner refines a coarse sweep; so all sweeps of a workflow cost about
  // the same. The seed decides the order of the sweeps and which offset
  // each workflow's k-th sweep gets.
  const int per_flow = std::max<long>(
      1, std::lround(static_cast<double>(seconds) * kSweepsPerSecond / flows));
  std::vector<int> order;
  for (int f = 0; f < flows; ++f) order.insert(order.end(), per_flow, f);
  rng.Shuffle(order);
  std::vector<std::vector<int>> pools(flows);
  for (auto& pool : pools) {
    for (int j = 0; j < per_flow; ++j) pool.push_back(j);
    rng.Shuffle(pool);
  }
  std::vector<int> cursor(flows, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Request r;
    r.sweep = true;
    r.flow = order[i];
    std::string list;
    const int offset = pools[r.flow][cursor[r.flow]++];
    for (int c = 0; c < kSweepWidth; ++c) {
      const int nodes = kSweepNodesFirst + offset + c * per_flow;
      r.nodes.push_back(nodes);
      if (c > 0) list += ',';
      list += std::to_string(nodes);
    }
    r.line = "{\"op\":\"sweep\",\"workflow\":\"" + names[r.flow] +
             "\",\"nodes_list\":[" + list + "],\"id\":" + std::to_string(i) + "}";
    w.timed.push_back(std::move(r));
  }
  return w;
}

Workload TuningResweep(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "tuning-resweep";
  w.connections = 1;
  Rng rng(seed);
  const std::map<std::string, DagWorkflow> registered = RegisteredFlows();
  // A base document split around the reducer counts of its two last jobs
  // in topological order: text[0] r text[1] r text[2].
  struct Base {
    std::string doc;
    std::vector<std::string> text;
    bool swapped = false;  ///< The later job's count comes first in the text.
  };
  std::vector<Base> bases;
  for (const char* name : kResweepBases) {
    const DagWorkflow& flow = registered.at(name);
    Base base;
    base.doc = dagperf::WorkflowToJson(flow).DumpCompact();
    const std::vector<dagperf::JobId> topo = flow.TopologicalOrder();
    // Job i's object holds the (i+1)-th "num_reduce_tasks" key of the text.
    std::vector<std::size_t> at;
    for (int j = 1; j <= kResweepLateJobs; ++j) {
      const std::string key = "\"num_reduce_tasks\":";
      std::size_t pos = 0;
      for (int k = 0; k <= topo[topo.size() - j]; ++k) {
        pos = base.doc.find(key, pos) + key.size();
      }
      at.push_back(pos);
    }
    base.swapped = at[0] < at[1];
    std::sort(at.begin(), at.end());
    std::size_t from = 0;
    for (std::size_t pos : at) {
      base.text.push_back(base.doc.substr(from, pos - from));
      from = base.doc.find_first_of(",}", pos);
    }
    base.text.push_back(base.doc.substr(from));
    bases.push_back(std::move(base));
  }
  long id = 0;
  const auto make = [&](std::string doc) {
    Request r;
    r.flow = static_cast<int>(w.flows.size());
    r.nodes = {kResweepNodes};
    r.line = "{\"op\":\"estimate\",\"flow\":" + doc +
             ",\"nodes\":" + std::to_string(kResweepNodes) +
             ",\"id\":" + std::to_string(id++) + "}";
    w.flows.push_back({"", std::move(doc)});
    return r;
  };
  for (const Base& base : bases) w.prime.push_back(make(base.doc));
  // Each base gets the same number of variants; its reducer pairs are a
  // seeded draw without replacement from a grid just large enough to hold
  // them, so nearly the same pairs are asked at every seed, in a seeded order.
  const int nb = static_cast<int>(bases.size());
  const long per_base = std::max<long>(
      1, std::lround(static_cast<double>(seconds) * kResweepsPerSecond / nb));
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(per_base))));
  std::vector<int> order;
  std::vector<std::vector<int>> pairs(nb);
  for (int b = 0; b < nb; ++b) {
    order.insert(order.end(), per_base, b);
    for (int k = 0; k < side * side; ++k) pairs[b].push_back(k);
    rng.Shuffle(pairs[b]);
  }
  rng.Shuffle(order);
  std::vector<std::size_t> cursor(nb, 0);
  for (int b : order) {
    const Base& base = bases[b];
    const int pair = pairs[b][cursor[b]++];
    // The one-before-last job's count, then the last job's, in text order.
    std::string first = std::to_string(kReducersFirst + pair % side);
    std::string second = std::to_string(kReducersFirst + pair / side);
    if (base.swapped) std::swap(first, second);
    w.timed.push_back(make(base.text[0] + first + base.text[1] + second + base.text[2]));
  }
  return w;
}

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed, int seconds) {
  // Mix the workload name into the seed so workloads never share a stream.
  std::uint64_t mixed = seed;
  for (char c : name) mixed = mixed * 131 + static_cast<unsigned char>(c);
  if (name == "recurring") return Recurring(mixed, seconds);
  if (name == "capacity-sweep") return CapacitySweep(mixed, seconds);
  if (name == "tuning-resweep") return TuningResweep(mixed, seconds);
  throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t Digest(const Workload& workload) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto* list : {&workload.prime, &workload.timed}) {
    for (const Request& r : *list) {
      for (char c : r.line + "\n") {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

std::map<std::string, DagWorkflow> RegisteredFlows(double scale) {
  std::map<std::string, DagWorkflow> flows;
  auto suite = dagperf::TableThreeSuite(scale);
  if (!suite.ok()) throw std::runtime_error(suite.status().ToString());
  for (auto& named : suite.value()) {
    flows.emplace(named.name, std::move(named.flow));
  }
  auto web = dagperf::WebAnalyticsFlow(dagperf::Bytes::FromGB(100.0 * scale));
  if (!web.ok()) throw std::runtime_error(web.status().ToString());
  flows.emplace("web-analytics", std::move(web).value());
  return flows;
}

std::shared_ptr<const DagWorkflow> ResolveFlow(
    const FlowRef& ref, const std::map<std::string, DagWorkflow>& registered) {
  if (!ref.name.empty()) {
    return std::make_shared<const DagWorkflow>(registered.at(ref.name));
  }
  auto json = Json::Parse(ref.doc);
  if (!json.ok()) throw std::runtime_error(json.status().ToString());
  auto flow = dagperf::WorkflowFromJson(json.value());
  if (!flow.ok()) throw std::runtime_error(flow.status().ToString());
  return std::make_shared<const DagWorkflow>(std::move(flow).value());
}

std::vector<Candidate> DistinctCandidates(const Workload& workload) {
  std::set<Candidate> seen;
  for (const auto* list : {&workload.prime, &workload.timed}) {
    for (const Request& r : *list) {
      for (int nodes : r.nodes) seen.insert({r.flow, nodes});
    }
  }
  return {seen.begin(), seen.end()};
}

std::string WireNumber(double value) {
  return Json::MakeNumber(value).DumpCompact();
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

CpuTimes ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  unsigned long long v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealFraction(const CpuTimes& a, const CpuTimes& b) {
  const unsigned long long total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

int HostCpus() {
  // What `nproc` prints: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace perfbench
