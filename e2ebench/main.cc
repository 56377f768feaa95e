// e2ebench: the end-to-end MetaDPA benchmark binary. Normally started by
// run.py (which builds it and checks its output against BENCHMARK.json):
//
//   e2ebench --workload train-books|serve-metadpa --seed N
//            --seconds S --trace 0|1 --out DIR
//
// Prints human-readable tables, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n",
               problem.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options.seconds < 1.0 ||
          options.seconds > 60.0) {
        Usage("bad --seconds " + value + " (1..60)");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : e2ebench::WorkloadNames()) known |= name == options.workload;
  if (!known) Usage("unknown workload '" + options.workload + "'");
  if (options.out_dir.empty()) Usage("--out is required");

  const e2ebench::Report report = e2ebench::RunWorkload(options);

  std::printf("\n%s (seed %llu, %s): correct=%s attempted=%lld failed=%lld\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? "traced, per-layer" : "untraced, end-to-end",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const auto& [name, metric] : report.metrics) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  if (!report.printed.empty()) std::printf("wall-clock figures (printed, not gated):\n");
  for (const auto& [name, metric] : report.printed) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.second + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
