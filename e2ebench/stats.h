// Pure measurement math of the end-to-end benchmark: nearest-rank
// percentiles, the "highest percentile the sample supports" rule, the rate
// ladder's max-rate-at-SLO rule, and span self-time attribution. Everything
// here is deterministic and unit-tested (stats_test.cc).
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// \brief Nearest-rank percentile: the smallest sample such that at least
/// p% of the samples are <= it (rank ceil(p/100 * n), 1-based). p is clamped
/// to (0, 100]; an empty sample gives 0.
double NearestRank(std::vector<double> values, double p);

/// \brief The highest percentile <= `want` whose nearest-rank sample still
/// has at least `min_beyond` samples above its rank (rank <= n - min_beyond).
/// Returns 0 when n <= min_beyond (no percentile is supported).
double SupportedPercentile(size_t n, double want, size_t min_beyond = 10);

/// \brief A latency sample reduced to its median and its supported tail.
struct TailSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< min(want, SupportedPercentile(n, want))
};
TailSummary Summarize(const std::vector<double>& values, double want = 99.0);

/// \brief Summarize over consecutive windows: the samples (in arrival order)
/// are cut into W = clamp(n / kMinWindow, 1, kMaxWindows) equal windows, each
/// is summarized on its own, and p50 / tail are the medians of the windows'
/// values (tail_pct the lowest window's). One host scheduling stall then
/// spoils one window instead of the whole run's tail.
constexpr size_t kMinWindow = 1000;
constexpr size_t kMaxWindows = 8;
TailSummary SummarizeWindows(const std::vector<double>& values, double want = 99.0);

/// \brief Median (nearest-rank p50) of repeated measurements.
double Median(const std::vector<double>& values);

/// \brief One request of a rung, in schedule order.
struct RequestSample {
  enum Kind { kServed, kRefused, kFailed };  ///< kFailed: an error or a wrong answer
  Kind kind = kServed;
  double latency_ms = 0.0;  ///< served only, timed from the request's due time
};

/// \brief One rung of the open-loop rate ladder.
struct RungResult {
  double rate = 0.0;       ///< scheduled arrivals per second
  int64_t attempted = 0;
  int64_t refused = 0;     ///< admission refusals (backpressure)
  int64_t failed = 0;      ///< any other error, or a wrong answer
  TailSummary latency;     ///< SummarizeWindows of the served latencies
  bool backlog_growing = false;
  int windows = 0;         ///< consecutive request windows judged
  int windows_met = 0;     ///< windows with tail <= SLO
};

/// \brief True when the backlog samples (queued requests, sampled evenly
/// over a rung) keep growing: the mean of the second half exceeds
/// 1.5x the mean of the first half plus 2 requests.
bool BacklogGrowing(const std::vector<double>& depth_samples);

/// \brief Judges a rung against a latency limit. The requests are cut into
/// the same windows as SummarizeWindows; a window meets the SLO when it has
/// served requests and its supported tail is <= slo_ms.
RungResult EvaluateRung(double rate, const std::vector<RequestSample>& samples,
                        const std::vector<double>& backlog, double slo_ms);

/// \brief A rung meets the SLO when no request was refused, failed or was
/// answered wrong, the backlog is not growing, and at least half of its
/// windows met the SLO, so one host stall spoils at most one of two windows
/// (a rung short enough to be one window must meet it outright).
bool RungMeetsSlo(const RungResult& rung);

/// \brief The smallest value (0 for none): the estimator for timings whose
/// noise is one-sided, like a host that only ever steals time.
double Fastest(const std::vector<double>& values);

/// \brief Highest rate of an ascending ladder such that it and every lower
/// rung meet the SLO (the ladder stops at its first failing rung). 0 when
/// the first rung fails or the ladder is empty.
double MaxRateAtSlo(const std::vector<RungResult>& ladder);

/// \brief One recorded span on the shared trace clock.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;      ///< -1 for a root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = -1;     ///< spans of one request share this id (-1: none)
  uint64_t thread = 0;      ///< hashed std::thread::id of the recorder
};

/// \brief One row of a self-time table: total self time over every span of
/// that name, and how many spans contributed.
struct SelfTimeRow {
  std::string name;
  int64_t self_ns = 0;
  int64_t count = 0;
};

/// \brief Self-time attribution of the tree under `root_id`.
///
/// A span's self time is its duration minus the part of its interval that
/// its children's intervals cover (union, clipped to the parent). Rows hold
/// every descendant's self time grouped by name, in first-seen order; the
/// root's own self time is reported as `unattributed`. For any tree,
/// sum(rows) + unattributed == total_ns (the root's duration) exactly when
/// children lie inside their parent and siblings do not overlap — the
/// telescoping sum the table prints and checks.
struct SelfTimeTable {
  std::vector<SelfTimeRow> rows;
  int64_t unattributed_ns = 0;
  int64_t total_ns = 0;
  /// sum(rows) + unattributed - total (0 for a well-nested tree).
  int64_t residual_ns = 0;
};
SelfTimeTable BuildSelfTimeTable(const std::vector<SpanRecord>& spans, int64_t root_id);

/// \brief Length of the union of [start, end) intervals clipped to
/// [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
                  int64_t hi);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
