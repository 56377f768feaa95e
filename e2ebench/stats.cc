#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace e2ebench {

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 1e-9, 100.0);
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps an exact rank (e.g. 99% of 1000 = 990) from rounding
  // up through floating-point noise in p / 100 * n.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double SupportedPercentile(size_t n, double want, size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  const double supported =
      100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
  return std::min(want, supported);
}

TailSummary Summarize(const std::vector<double>& values, double want) {
  TailSummary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  summary.p50 = NearestRank(values, 50.0);
  summary.tail_pct = SupportedPercentile(values.size(), want);
  // With too few samples for any supported tail, the maximum is the honest
  // (pessimistic) stand-in.
  summary.tail = summary.tail_pct > 0.0 ? NearestRank(values, summary.tail_pct)
                                        : *std::max_element(values.begin(), values.end());
  return summary;
}

namespace {

size_t WindowCount(size_t n) { return std::clamp<size_t>(n / kMinWindow, 1, kMaxWindows); }

}  // namespace

TailSummary SummarizeWindows(const std::vector<double>& values, double want) {
  const size_t windows = WindowCount(values.size());
  std::vector<double> p50s;
  std::vector<double> tails;
  TailSummary summary;
  summary.n = values.size();
  summary.tail_pct = want;
  for (size_t w = 0; w < windows; ++w) {
    const size_t from = values.size() * w / windows;
    const size_t to = values.size() * (w + 1) / windows;
    const TailSummary s = Summarize(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(from),
                            values.begin() + static_cast<std::ptrdiff_t>(to)),
        want);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    summary.tail_pct = std::min(summary.tail_pct, s.tail_pct);
  }
  summary.p50 = Median(p50s);
  summary.tail = Median(tails);
  return summary;
}

double Median(const std::vector<double>& values) { return NearestRank(values, 50.0); }

bool BacklogGrowing(const std::vector<double>& depth_samples) {
  if (depth_samples.size() < 4) return false;
  const size_t half = depth_samples.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (size_t i = 0; i < half; ++i) first += depth_samples[i];
  for (size_t i = half; i < depth_samples.size(); ++i) second += depth_samples[i];
  first /= static_cast<double>(half);
  second /= static_cast<double>(depth_samples.size() - half);
  return second > 1.5 * first + 2.0;
}

RungResult EvaluateRung(double rate, const std::vector<RequestSample>& samples,
                        const std::vector<double>& backlog, double slo_ms) {
  RungResult rung;
  rung.rate = rate;
  rung.attempted = static_cast<int64_t>(samples.size());
  rung.backlog_growing = BacklogGrowing(backlog);
  std::vector<double> served;
  for (const RequestSample& s : samples) {
    if (s.kind == RequestSample::kServed) served.push_back(s.latency_ms);
    rung.refused += s.kind == RequestSample::kRefused;
    rung.failed += s.kind == RequestSample::kFailed;
  }
  rung.latency = SummarizeWindows(served);
  const size_t windows = WindowCount(samples.size());
  rung.windows = static_cast<int>(windows);
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> latency;
    for (size_t i = samples.size() * w / windows; i < samples.size() * (w + 1) / windows;
         ++i) {
      if (samples[i].kind == RequestSample::kServed) latency.push_back(samples[i].latency_ms);
    }
    rung.windows_met += !latency.empty() && Summarize(latency).tail <= slo_ms;
  }
  return rung;
}

bool RungMeetsSlo(const RungResult& rung) {
  return rung.attempted > 0 && rung.refused == 0 && rung.failed == 0 &&
         !rung.backlog_growing && 2 * rung.windows_met >= rung.windows;
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double MaxRateAtSlo(const std::vector<RungResult>& ladder) {
  double best = 0.0;
  for (const RungResult& rung : ladder) {
    if (!RungMeetsSlo(rung)) break;
    best = rung.rate;
  }
  return best;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
                  int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

SelfTimeTable BuildSelfTimeTable(const std::vector<SpanRecord>& spans, int64_t root_id) {
  std::unordered_map<int64_t, size_t> index;
  std::unordered_map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    children[spans[i].parent].push_back(i);
  }
  SelfTimeTable table;
  auto root = index.find(root_id);
  if (root == index.end()) return table;

  std::unordered_map<std::string, size_t> row_of;
  auto self_ns = [&](size_t i) {
    const SpanRecord& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (size_t c : children[span.id]) kids.emplace_back(spans[c].start_ns, spans[c].end_ns);
    return (span.end_ns - span.start_ns) - CoveredNs(std::move(kids), span.start_ns,
                                                      span.end_ns);
  };
  // Depth-first over the descendants, parents before children so rows
  // appear in the order the run reached them.
  std::vector<size_t> stack;
  for (auto it = children[root_id].rbegin(); it != children[root_id].rend(); ++it) {
    stack.push_back(*it);
  }
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    auto [it, inserted] = row_of.emplace(spans[i].name, table.rows.size());
    if (inserted) table.rows.push_back({spans[i].name, 0, 0});
    table.rows[it->second].self_ns += self_ns(i);
    table.rows[it->second].count += 1;
    const std::vector<size_t>& kids = children[spans[i].id];
    for (auto k = kids.rbegin(); k != kids.rend(); ++k) stack.push_back(*k);
  }
  const SpanRecord& top = spans[root->second];
  table.total_ns = top.end_ns - top.start_ns;
  table.unattributed_ns = self_ns(root->second);
  int64_t sum = table.unattributed_ns;
  for (const SelfTimeRow& row : table.rows) sum += row.self_ns;
  table.residual_ns = sum - table.total_ns;
  return table;
}

}  // namespace e2ebench
