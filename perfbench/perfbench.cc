// Benchmark client for `dagperf serve`. See NOTES.md.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --dagperf PATH --out DIR
//   perfbench digest --workload W --seed N --seconds S
//   perfbench crash-check --dagperf PATH --out DIR
//
// `run` prints diagnostic JSON lines, then one result line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "perfbench.h"

namespace {

void PrintResult(const perfbench::RunResult& result) {
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted, result.failed,
              metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run|digest|crash-check [--flag value]...\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const auto get = [&](const std::string& key, const std::string& fallback) {
    auto it = flags.find("--" + key);
    return it == flags.end() ? fallback : it->second;
  };
  try {
    perfbench::RunOptions options;
    options.workload = get("workload", "recurring");
    options.seed = std::stoull(get("seed", "1"));
    options.seconds = std::stoi(get("seconds", "10"));
    options.dagperf = get("dagperf", "");
    options.out_dir = get("out", ".");
    if (options.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    if (mode == "digest") {
      const auto workload =
          perfbench::MakeWorkload(options.workload, options.seed, options.seconds);
      std::printf("%016llx\n",
                  static_cast<unsigned long long>(perfbench::Digest(workload)));
      return 0;
    }
    if (mode == "crash-check") return perfbench::RunCrashCheck(options);
    if (mode == "run") {
      PrintResult(get("trace", "0") == "1" ? perfbench::RunTraced(options)
                                           : perfbench::RunEndToEnd(options));
      return 0;
    }
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
