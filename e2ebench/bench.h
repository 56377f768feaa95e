// The three workloads of the end-to-end benchmark. See README.md for what
// each measures, why it was chosen, and the metric -> layer -> workload map.
#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;  ///< manifest and span files go here
};

/// \brief A run's result: the correctness verdict, the request (or case)
/// counts, and every metric by name with its unit.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Wall-clock figures of the untraced run that are printed but not part of
  /// the JSON result: on the benchmark host they move by more than any bound
  /// BENCHMARK.json may set (see README.md, "Gated and printed metrics").
  std::map<std::string, std::pair<double, std::string>> printed;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Print(const std::string& name, double value, const std::string& unit) {
    printed[name] = {value, unit};
  }
  /// \brief Records a correctness check; a failed one clears `correct` and is
  /// reported on stderr.
  void Check(bool ok, const std::string& what);
};

/// \brief Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// \brief Runs one workload (untraced end-to-end metrics, or with
/// options.trace the per-layer metrics) and prints its human-readable tables
/// to stdout.
Report RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
