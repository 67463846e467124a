// End-to-end runs: spawn the built `dagperf serve`, replay the workload's
// fixed request list over loopback TCP as a closed loop, and check every
// answer against the serial uncached reference.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.h"
#include "perfbench.h"
#include "service/line_client.h"

namespace perfbench {

namespace {

using dagperf::protocol::LineClient;

constexpr int kSetupSamples = 25;    // spawns per run for setup_s
constexpr std::size_t kMinKept = 1000;     // latency samples, at least
constexpr std::size_t kMinSetups = 5;      // steal-free spawns, at least
constexpr double kReplyTimeoutS = 60.0;

double TicksToSeconds(unsigned long long ticks) {
  return static_cast<double>(ticks) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// One `dagperf serve --port 0` child process.
class Server {
 public:
  Server(const RunOptions& options, std::string tag, double scale = kScale)
      : options_(options),
        scale_(scale),
        port_file_(options.out_dir + "/port-" + tag + ".txt"),
        log_file_(options.out_dir + "/server-" + tag + ".log") {}
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the server and returns the seconds from spawn until the port
  /// is published and one `stats` round trip has been answered.
  double Start() {
    ::unlink(port_file_.c_str());
    const std::string scale = std::to_string(scale_);
    const std::string threads = std::to_string(kServerThreads);
    std::vector<std::string> args = {options_.dagperf, "serve",   "--port",
                                     "0",              "--port-file", port_file_,
                                     "--threads",      threads,   "--scale",
                                     scale};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // posix_spawn, not fork: the client may hold hundreds of MB of request
    // text, and copying its page tables would land in setup_s.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const double t0 = NowSeconds();
    const int spawned =
        ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + options_.dagperf);
    }
    for (;;) {
      if (std::ifstream in(port_file_); in >> port_) break;
      if (Reap(false)) throw std::runtime_error("server exited during start-up");
      if (NowSeconds() - t0 > 30.0) throw std::runtime_error("server start timed out");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    LineClient probe;
    if (!probe.Connect(port_).ok()) throw std::runtime_error("connect failed");
    auto reply = probe.Call("{\"op\":\"stats\",\"id\":0}", kReplyTimeoutS);
    if (!reply.ok() || reply.value().find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("stats round trip failed");
    }
    return NowSeconds() - t0;
  }

  int port() const { return port_; }

  /// Reaps the child if it has exited (blocking when `wait`); records its
  /// final CPU time from the kernel's accounting.
  bool Reap(bool wait) {
    if (pid_ <= 0) return true;
    int status = 0;
    rusage usage{};
    const pid_t got = ::wait4(pid_, &status, wait ? 0 : WNOHANG, &usage);
    if (got != pid_) return false;
    final_cpu_s_ = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                              usage.ru_stime.tv_usec);
    final_peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    pid_ = -1;
    return true;
  }

  bool alive() const { return pid_ > 0; }

  /// Server user+sys CPU seconds so far (after exit: at exit).
  double CpuSeconds() const {
    if (pid_ <= 0) return final_cpu_s_;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), {});
    // Fields after the parenthesised command name; utime/stime are 14/15.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    return TicksToSeconds(utime + stime);
  }

  /// VmHWM while alive; the kernel's maximum RSS after exit.
  double PeakRssMb() const {
    if (pid_ <= 0) return final_peak_rss_mb_;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double t0 = NowSeconds();
    while (!Reap(false)) {
      if (NowSeconds() - t0 > 10.0) {
        ::kill(pid_, SIGKILL);
        Reap(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  const RunOptions& options_;
  double scale_;
  std::string port_file_;
  std::string log_file_;
  pid_t pid_ = -1;
  int port_ = 0;
  double final_cpu_s_ = 0.0;
  double final_peak_rss_mb_ = 0.0;
};

enum class Outcome { kOk, kError, kLost };

struct Answer {
  Outcome outcome = Outcome::kLost;
  std::vector<std::string> makespans;  ///< As printed on the wire.
  double sent = 0.0, received = 0.0;   ///< Send and full-reply times (s).
};

/// The raw number token after `"makespan_s":` at or after `from`.
std::string NumberAfter(const std::string& s, std::size_t from) {
  static const std::string key = "\"makespan_s\":";
  const std::size_t at = s.find(key, from);
  if (at == std::string::npos) return "!missing";
  const std::size_t begin = at + key.size();
  return s.substr(begin, s.find_first_of(",}", begin) - begin);
}

/// Live server plus restart bookkeeping shared by the client threads.
struct Fleet {
  const RunOptions& options;
  std::mutex mutex;
  std::unique_ptr<Server> server;
  double scale;
  int generation = 0;
  int exits = 0;
  double exited_cpu_s = 0.0;        ///< CPU of servers that have died.
  double exited_peak_rss_mb = 0.0;  ///< Their peak RSS, summed.

  Fleet(const RunOptions& o, double s) : options(o), scale(s) {
    server = std::make_unique<Server>(options, "main", scale);
  }

  /// CPU seconds of every server so far, the dead ones included.
  double TotalCpuSeconds() {
    std::lock_guard<std::mutex> lock(mutex);
    return exited_cpu_s + server->CpuSeconds();
  }

  /// The live server's port and generation, read together.
  std::pair<int, int> Current() {
    std::lock_guard<std::mutex> lock(mutex);
    return {server->port(), generation};
  }

  /// Called by a client whose connection broke while on `seen_generation`:
  /// the first caller confirms the server died, counts it, and starts a
  /// replacement. Returns the port to reconnect to.
  int Recover(int seen_generation) {
    std::lock_guard<std::mutex> lock(mutex);
    if (generation == seen_generation) {
      // A broken connection with a live server is a server fault too: stop
      // it so the count and the restart stay one-to-one with failures.
      const double t0 = NowSeconds();
      while (!server->Reap(false) && NowSeconds() - t0 < 5.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (server->alive()) server->Stop();
      ++exits;
      exited_cpu_s += server->CpuSeconds();
      exited_peak_rss_mb += server->PeakRssMb();
      server = std::make_unique<Server>(
          options, "restart" + std::to_string(exits), scale);
      server->Start();
      ++generation;
    }
    return server->port();
  }
};

struct Tally {
  long attempted = 0, lost = 0, error = 0, mismatch = 0;
};

/// One closed-loop client: takes the next unsent request until the list is
/// done, reconnecting (and restarting the server) after a loss.
void Serve(Fleet& fleet, const std::vector<Request>& requests,
           std::atomic<std::size_t>& next, std::vector<Answer>* answers) {
  LineClient conn;
  int generation = 0;
  for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
    while (!conn.connected()) {
      const auto [port, seen] = fleet.Current();
      generation = seen;
      if (!conn.Connect(port).ok()) fleet.Recover(seen);
    }
    const double t0 = NowSeconds();
    bool lost = !conn.SendLine(requests[i].line).ok();
    std::string reply;
    if (!lost) {
      auto got = conn.RecvLine(kReplyTimeoutS);
      lost = !got.ok() || got.value().closed;
      if (!lost) reply = std::move(got.value().line);
    }
    const double t1 = NowSeconds();
    Answer& a = (*answers)[i];
    if (lost) {
      // Sent but never answered: the server went away with it.
      conn.Close();
      a.outcome = Outcome::kLost;
      fleet.Recover(generation);
      continue;
    }
    a.sent = t0;
    a.received = t1;
    a.makespans = WireMakespans(requests[i], reply);
    a.outcome = a.makespans == std::vector<std::string>{"!error"} ? Outcome::kError
                                                                  : Outcome::kOk;
  }
}

/// Replays `requests` over `connections` closed-loop clients that take the
/// next unsent request in list order, so all clients end together. Fills
/// one answer per request.
void Replay(Fleet& fleet, const std::vector<Request>& requests, int connections,
            std::vector<Answer>* answers) {
  answers->assign(requests.size(), {});
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // a server that cannot be restarted
  const auto client = [&] {
    try {
      Serve(fleet, requests, next, answers);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      failure = std::current_exception();
      next.store(requests.size());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

/// Samples the host's steal counter and the server's CPU time every 10 ms
/// on its own thread.
class Sampler {
 public:
  struct Sample {
    double t;
    unsigned long long steal;  ///< Host steal, in clock ticks.
    double server_cpu_s;
  };

  explicit Sampler(std::function<double()> server_cpu_s)
      : server_cpu_s_(std::move(server_cpu_s)), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void Loop() {
    for (bool last = false; !last;) {
      last = stop_.load();
      samples_.push_back({NowSeconds(), ReadHostCpu().steal, server_cpu_s_()});
      if (!last) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::function<double()> server_cpu_s_;
  std::atomic<bool> stop_{false};
  std::vector<Sample> samples_;  ///< Written by the thread, read after Stop().
  std::thread thread_;
};

/// Hypervisor steal stalls the closed loop and moves every wall-clock
/// figure. It shows in /proc/stat as whole 10 ms ticks, and a tick only
/// appears once 10 ms of stolen time have added up, so each sample interval
/// is scored by the ticks within `window` intervals on either side. The
/// intervals scoring at most `threshold` are calm.
class StealMask {
 public:
  StealMask(const std::vector<Sampler::Sample>& samples, const std::vector<int>& score,
            int threshold)
      : samples_(samples) {
    calm_.resize(score.size());
    prefix_.assign(score.size() + 1, 0);
    for (std::size_t k = 0; k < score.size(); ++k) {
      calm_[k] = score[k] <= threshold;
      prefix_[k + 1] = prefix_[k] + (calm_[k] ? 0 : 1);
    }
  }

  /// Per interval, the steal ticks within `window` intervals of it.
  static std::vector<int> Scores(const std::vector<Sampler::Sample>& samples,
                                 std::size_t window) {
    const std::size_t n = samples.size() < 2 ? 0 : samples.size() - 1;
    std::vector<long> ticks(n + 1, 0);  // prefix sums of ticks per interval
    for (std::size_t k = 0; k < n; ++k) {
      ticks[k + 1] = ticks[k] + static_cast<long>(samples[k + 1].steal - samples[k].steal);
    }
    std::vector<int> score(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t lo = k >= window ? k - window : 0;
      const std::size_t hi = std::min(n, k + window + 1);
      score[k] = static_cast<int>(ticks[hi] - ticks[lo]);
    }
    return score;
  }

  std::size_t intervals() const { return calm_.size(); }
  bool calm(std::size_t k) const { return calm_[k]; }
  /// Whether [t0, t1] spans only calm intervals.
  bool Calm(double t0, double t1) const {
    return intervals() == 0 || prefix_[Find(t1) + 1] == prefix_[Find(t0)];
  }
  bool CalmAt(double t) const { return intervals() == 0 || calm_[Find(t)]; }

 private:
  std::size_t Find(double t) const {
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), t,
                                     [](double v, const Sampler::Sample& x) { return v < x.t; });
    const std::size_t k = it == samples_.begin() ? 0 : (it - samples_.begin()) - 1;
    return std::min(k, intervals() - 1);
  }

  const std::vector<Sampler::Sample>& samples_;
  std::vector<bool> calm_;
  std::vector<int> prefix_;
};

/// The (window, threshold) pairs to try, strictest first: no tick within
/// 5, 2, 1 or 0 intervals; then, in a steal storm where too little time is
/// that calm, no more than the median score at window 0, then every higher
/// score.
std::vector<std::pair<std::size_t, int>> Rules(const std::vector<Sampler::Sample>& samples) {
  std::vector<std::pair<std::size_t, int>> rules = {{5, 0}, {2, 0}, {1, 0}, {0, 0}};
  std::vector<int> score = StealMask::Scores(samples, 0);
  std::sort(score.begin(), score.end());
  for (std::size_t k = score.empty() ? 0 : (score.size() + 1) / 2 - 1; k < score.size(); ++k) {
    if (score[k] > rules.back().second) rules.push_back({0, score[k]});
  }
  return rules;
}

/// Wall-clock figures of the timed phase over calm time: latencies of the
/// requests that span only calm intervals; throughput and CPU per request
/// from the requests completed, the time and the server CPU of calm
/// intervals. The strictest rule that keeps kMinKept latencies is used.
struct Figures {
  std::vector<double> ms;
  double rps = 0.0;
  double cpu_ms_per_req = 0.0;
  std::size_t window = 0;
  int threshold = 0;
  double calm_share = 0.0;  ///< Of the timed phase.
};

Figures SteadyFigures(const std::vector<Answer>& answers,
                      const std::vector<Sampler::Sample>& samples) {
  Figures f;
  for (const auto& [window, threshold] : Rules(samples)) {
    const StealMask mask(samples, StealMask::Scores(samples, window), threshold);
    f = Figures{};
    f.window = window;
    f.threshold = threshold;
    long completed = 0;
    for (const Answer& a : answers) {
      if (a.outcome == Outcome::kLost) continue;
      if (mask.Calm(a.sent, a.received)) f.ms.push_back((a.received - a.sent) * 1e3);
      completed += mask.CalmAt(a.received);
    }
    if (f.ms.size() < kMinKept) continue;
    double calm_s = 0.0, total_s = 0.0, cpu_s = 0.0;
    for (std::size_t k = 0; k < mask.intervals(); ++k) {
      const double dt = samples[k + 1].t - samples[k].t;
      total_s += dt;
      if (!mask.calm(k)) continue;
      calm_s += dt;
      cpu_s += samples[k + 1].server_cpu_s - samples[k].server_cpu_s;
    }
    f.rps = calm_s > 0 ? completed / calm_s : 0.0;
    f.cpu_ms_per_req = completed > 0 ? 1e3 * cpu_s / completed : 0.0;
    f.calm_share = total_s > 0 ? calm_s / total_s : 0.0;
    break;
  }
  return f;
}

/// setup_s: the median over the spawns that ran in calm time, by the
/// strictest rule that keeps kMinSetups of them.
double SteadySetup(const std::vector<std::pair<double, double>>& spans,
                   const std::vector<double>& seconds,
                   const std::vector<Sampler::Sample>& samples) {
  for (const auto& [window, threshold] : Rules(samples)) {
    const StealMask mask(samples, StealMask::Scores(samples, window), threshold);
    std::vector<double> kept;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (mask.Calm(spans[i].first, spans[i].second)) kept.push_back(seconds[i]);
    }
    if (kept.size() >= kMinSetups) return Median(kept);
  }
  return Median(seconds);
}

void Check(const std::vector<Request>& requests, const std::vector<Answer>& answers,
           const std::map<Candidate, std::string>& reference, Tally* tally) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++tally->attempted;
    const Answer& a = answers[i];
    if (a.outcome == Outcome::kLost) {
      ++tally->lost;
      continue;
    }
    if (a.outcome == Outcome::kError) {
      ++tally->error;
      continue;
    }
    bool same = a.makespans.size() == requests[i].nodes.size();
    for (std::size_t j = 0; same && j < a.makespans.size(); ++j) {
      same = a.makespans[j] == reference.at({requests[i].flow, requests[i].nodes[j]});
    }
    if (!same) ++tally->mismatch;
  }
}

}  // namespace

std::vector<std::string> WireMakespans(const Request& request, const std::string& reply) {
  const std::size_t result = reply.find("\"result\":");
  if (result == std::string::npos || reply.rfind("\"ok\":true", result) == std::string::npos) {
    return {"!error"};
  }
  // Response keys are sorted: result.makespan_s precedes result.stages.
  if (!request.sweep) return {NumberAfter(reply, result)};
  // Sweep candidates are checked one by one; a failed one has no makespan.
  auto parsed = dagperf::Json::Parse(reply);
  const dagperf::Json* candidates =
      parsed.ok() ? parsed.value().Get("result")->Get("candidates") : nullptr;
  if (candidates == nullptr || candidates->type() != dagperf::Json::Type::kArray) {
    return {"!error"};
  }
  std::vector<std::string> out;
  for (const dagperf::Json& c : candidates->AsArray()) {
    const dagperf::Json* m = c.Get("makespan_s");
    out.push_back(m != nullptr && c.GetBool("ok", false) ? WireNumber(m->AsNumber())
                                                          : "!failed");
  }
  return out;
}

RunResult RunEndToEnd(const RunOptions& options) {
  const Workload workload = MakeWorkload(options.workload, options.seed, options.seconds);
  const auto reference =
      ComputeReference(workload, DistinctCandidates(workload), HostCpus());

  RunResult result;
  std::vector<double> setups;
  std::vector<std::pair<double, double>> setup_spans;
  Sampler setup_sampler([] { return 0.0; });
  for (int s = 0; s < kSetupSamples; ++s) {
    Server probe(options, "setup");
    const double t0 = NowSeconds();
    setups.push_back(probe.Start());
    setup_spans.push_back({t0, NowSeconds()});
    probe.Stop();
  }
  setup_sampler.Stop();
  const double setup_s = SteadySetup(setup_spans, setups, setup_sampler.samples());
  Fleet fleet(options, kScale);
  fleet.server->Start();

  std::vector<Answer> prime_answers, answers;
  Replay(fleet, workload.prime, 1, &prime_answers);

  fleet.exited_cpu_s = 0.0;
  fleet.exited_peak_rss_mb = 0.0;
  const double cpu0 = fleet.server->CpuSeconds();
  const CpuTimes host0 = ReadHostCpu();
  Sampler sampler([&fleet] { return fleet.TotalCpuSeconds(); });
  const double t0 = NowSeconds();
  Replay(fleet, workload.timed, workload.connections, &answers);
  const double wall = NowSeconds() - t0;
  const CpuTimes host1 = ReadHostCpu();
  sampler.Stop();
  // The server live at the start of the phase counts from there (whether it
  // survived or died); replacements count whole.
  const double cpu_s = fleet.exited_cpu_s + fleet.server->CpuSeconds() - cpu0;
  // A crash splits the phase's work over two processes; their peaks add up
  // to the memory that work needed, whether or not a crash split it.
  const double peak_rss_mb = fleet.exited_peak_rss_mb + fleet.server->PeakRssMb();
  std::string server_stats;
  {
    LineClient stats;
    if (stats.Connect(fleet.server->port()).ok()) {
      auto reply = stats.Call("{\"op\":\"stats\",\"id\":\"stats\"}", kReplyTimeoutS);
      if (reply.ok()) server_stats = reply.value();
    }
  }
  fleet.server->Stop();

  Tally tally;
  Check(workload.prime, prime_answers, reference, &tally);
  Check(workload.timed, answers, reference, &tally);
  long completed = 0;
  for (const Answer& a : answers) completed += a.outcome != Outcome::kLost;
  const Figures figures = SteadyFigures(answers, sampler.samples());
  result.attempted = tally.attempted;
  result.failed = tally.lost + tally.error + tally.mismatch;
  result.correct = tally.mismatch == 0;
  result.metrics = {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", figures.rps, "req/s"},
      {"latency_p50_ms", Percentile(figures.ms, 0.50), "ms"},
      {"latency_p99_ms", Percentile(figures.ms, 0.99), "ms"},
      {"server_cpu_ms_per_req", figures.cpu_ms_per_req, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::ostringstream host;
  host << "{\"host\":{\"nproc\":" << HostCpus() << ",\"connections\":"
       << workload.connections << ",\"server_threads\":" << kServerThreads
       << ",\"steal_frac\":" << StealFraction(host0, host1)
       << ",\"timed_wall_s\":" << wall << ",\"completed\":" << completed
       << ",\"latency_samples\":" << figures.ms.size()
       << ",\"calm_window\":" << figures.window
       << ",\"calm_threshold_ticks\":" << figures.threshold
       << ",\"calm_share\":" << figures.calm_share
       << ",\"unfiltered\":{\"rps\":" << completed / wall
       << ",\"cpu_ms_per_req\":" << (completed > 0 ? 1e3 * cpu_s / completed : 0.0)
       << "}},\"ops\":{\"attempted\":" << tally.attempted << ",\"failed\":"
       << result.failed << ",\"lost\":" << tally.lost << ",\"error\":" << tally.error
       << ",\"mismatch\":" << tally.mismatch << ",\"server_exits\":" << fleet.exits
       << "},\"digest\":\"" << std::hex << Digest(workload) << "\"}";
  result.notes.push_back(host.str());
  if (!server_stats.empty()) result.notes.push_back(server_stats);
  return result;
}

int RunCrashCheck(const RunOptions& options) {
  // Two inputs known to abort the server with `DAGPERF_CHECK failed:
  // water-fill found no level` (src/cluster/rate_solver.cc).
  struct Case {
    double scale;
    std::string workflow;
    int nodes;
  };
  const Case cases[] = {{1.0, "TS-Q18", 61}, {kScale, "WC-Q20", 7}};
  const auto estimate = [](const std::string& workflow, int nodes, int id) {
    Request r;
    r.nodes = {nodes};
    r.line = "{\"op\":\"estimate\",\"workflow\":\"" + workflow +
             "\",\"nodes\":" + std::to_string(nodes) + ",\"id\":" + std::to_string(id) + "}";
    return r;
  };
  bool pass = true;
  for (const Case& c : cases) {
    Fleet fleet(options, c.scale);
    fleet.server->Start();
    const std::vector<Request> lines = {estimate("TS-Q6", 8, 1),
                                        estimate(c.workflow, c.nodes, 2),
                                        estimate("TS-Q6", 16, 3)};
    std::vector<Answer> answers;
    Replay(fleet, lines, 1, &answers);
    fleet.server->Stop();
    const bool ok = answers[0].outcome == Outcome::kOk &&
                    answers[1].outcome == Outcome::kLost &&
                    answers[2].outcome == Outcome::kOk && fleet.exits == 1;
    pass = pass && ok;
    std::printf(
        "{\"crash_check\":{\"workflow\":\"%s\",\"nodes\":%d,\"scale\":%g,"
        "\"lost\":%d,\"server_exits\":%d,\"answered_after_restart\":%s,\"pass\":%s}}\n",
        c.workflow.c_str(), c.nodes, c.scale,
        answers[1].outcome == Outcome::kLost ? 1 : 0, fleet.exits,
        answers[2].outcome == Outcome::kOk ? "true" : "false", ok ? "true" : "false");
  }
  // The reference isolates the same abort to its one candidate.
  Workload w;
  w.flows = {{"WC-Q20", ""}};
  const auto reference = ComputeReference(w, {{0, 6}, {0, 7}, {0, 8}}, 1);
  const bool isolated = reference.at({0, 7}) == "!crash" &&
                        reference.at({0, 6})[0] != '!' && reference.at({0, 8})[0] != '!';
  pass = pass && isolated;
  std::printf("{\"crash_check\":{\"reference_isolated\":%s}}\n", isolated ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace perfbench
