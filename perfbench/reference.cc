// Forked isolation and the serial uncached reference. A known input aborts
// any process that runs the library (DAGPERF_CHECK in the rate solver), so
// every computation that is not the server itself runs in a child process
// that reports each finished item before starting the next.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "boe/boe_model.h"
#include "cluster/cluster_spec.h"
#include "model/state_estimator.h"
#include "model/task_time_source.h"
#include "perfbench.h"
#include "scheduler/drf.h"

namespace perfbench {

namespace {

struct Child {
  pid_t pid = -1;
  int fd = -1;
  int next = 0;  ///< First item not yet reported.
  int end = 0;
  bool finished = false;
  std::string buffer;
};

void WriteAll(int fd, const std::string& s) {
  std::size_t done = 0;
  while (done < s.size()) {
    const ssize_t n = ::write(fd, s.data() + done, s.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ::_exit(3);
    done += static_cast<std::size_t>(n);
  }
}

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n') c = ' ';
  }
  return s;
}

Child Spawn(int begin, int end, const ChildBody& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const int out = fds[1];
    // Each record is written as soon as its item is done, so the parent
    // knows exactly which item a crash interrupted.
    body(begin, end,
         [out](int i, const std::string& payload) {
           WriteAll(out, "I " + std::to_string(i) + " " + OneLine(payload) + "\n");
         },
         [out](const std::string& payload) {
           WriteAll(out, "F " + OneLine(payload) + "\n");
         });
    ::_exit(0);
  }
  ::close(fds[1]);
  Child child;
  child.pid = pid;
  child.fd = fds[0];
  child.next = begin;
  child.end = end;
  return child;
}

}  // namespace

Isolated RunIsolated(int n, int workers, const ChildBody& body) {
  Isolated out;
  out.items.resize(n);
  std::vector<Child> children;
  workers = std::max(1, std::min(workers, n));
  for (int w = 0; w < workers; ++w) {
    const int begin = static_cast<int>(static_cast<long>(n) * w / workers);
    const int end = static_cast<int>(static_cast<long>(n) * (w + 1) / workers);
    if (begin < end) children.push_back(Spawn(begin, end, body));
  }
  while (!children.empty()) {
    std::vector<pollfd> fds;
    for (const Child& c : children) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    std::vector<Child> respawn;
    for (std::size_t k = 0; k < children.size(); ++k) {
      if (fds[k].revents == 0) continue;
      Child& c = children[k];
      char buf[65536];
      const ssize_t got = ::read(c.fd, buf, sizeof(buf));
      if (got > 0) {
        c.buffer.append(buf, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.buffer.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const std::string line = c.buffer.substr(start, nl - start);
          if (line.rfind("I ", 0) == 0) {
            const std::size_t sp = line.find(' ', 2);
            const int i = std::stoi(line.substr(2, sp - 2));
            out.items[i] = sp == std::string::npos ? "" : line.substr(sp + 1);
            c.next = i + 1;
          } else if (line.rfind("F ", 0) == 0) {
            out.finals.push_back(line.substr(2));
            c.finished = true;
          }
        }
        c.buffer.erase(0, start);
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      // EOF: the child ended. Unless it reported its whole range and its
      // final record, the item it was on crashed it.
      ::close(c.fd);
      int status = 0;
      ::waitpid(c.pid, &status, 0);
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!(clean && c.finished && c.next >= c.end)) {
        ++out.crashes;
        if (c.next + 1 < c.end) respawn.push_back(Spawn(c.next + 1, c.end, body));
      }
      c.pid = -1;
    }
    std::erase_if(children, [](const Child& c) { return c.pid < 0; });
    for (Child& c : respawn) children.push_back(std::move(c));
  }
  return out;
}

std::map<Candidate, std::string> ComputeReference(
    const Workload& workload, const std::vector<Candidate>& candidates,
    int workers) {
  const int n = static_cast<int>(candidates.size());
  const Isolated run = RunIsolated(
      n, workers, [&](int begin, int end, const Emit& emit, const EmitFinal& done) {
        // Flows are resolved here, in parallel, each the first time a
        // candidate of this child needs it.
        const auto registered = RegisteredFlows();
        std::map<int, std::shared_ptr<const dagperf::DagWorkflow>> flows;
        for (int i = begin; i < end; ++i) {
          auto& flow = flows[candidates[i].flow];
          if (!flow) flow = ResolveFlow(workload.flows[candidates[i].flow], registered);
          dagperf::ClusterSpec spec = dagperf::ClusterSpec::PaperCluster();
          spec.num_nodes = candidates[i].nodes;
          const dagperf::BoeModel model(spec.node);
          const dagperf::BoeTaskTimeSource source(model,
                                                  dagperf::Duration::Seconds(1));
          const dagperf::StateBasedEstimator estimator(
              spec, dagperf::SchedulerConfig{}, dagperf::EstimatorOptions{});
          const auto estimate = estimator.Estimate(*flow, source);
          emit(i, estimate.ok()
                      ? WireNumber(estimate.value().makespan.seconds())
                      : "!error " + std::string(dagperf::ErrorCodeName(
                                        estimate.status().code())));
        }
        done("");
      });
  std::map<Candidate, std::string> out;
  for (int i = 0; i < n; ++i) {
    out[candidates[i]] = run.items[i].value_or("!crash");
  }
  return out;
}

}  // namespace perfbench
