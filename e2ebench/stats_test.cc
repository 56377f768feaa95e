// Unit tests of the benchmark's measurement math (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace e2ebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringP) {
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_EQ(NearestRank(v, 50), 3);   // rank ceil(2.5) = 3
  EXPECT_EQ(NearestRank(v, 20), 1);   // rank 1 exactly
  EXPECT_EQ(NearestRank(v, 21), 2);   // rank ceil(1.05) = 2
  EXPECT_EQ(NearestRank(v, 100), 5);
  EXPECT_EQ(NearestRank(v, 0), 1);    // clamped to the minimum
  EXPECT_EQ(NearestRank({}, 50), 0);
}

TEST(NearestRank, ExactRanksDoNotRoundUp) {
  // 99% of 1000 is rank 990 exactly; 1e-9 noise must not push it to 991.
  EXPECT_EQ(NearestRank(OneTo(1000), 99.0), 990);
  EXPECT_EQ(NearestRank(OneTo(100), 99.0), 99);
  EXPECT_EQ(NearestRank(OneTo(200), 99.5), 199);
}

TEST(SupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 99.0), 99.0);  // 990 + 10 beyond
  EXPECT_DOUBLE_EQ(SupportedPercentile(2000, 99.0), 99.0);  // capped at want
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 99.0), 98.0);   // rank 490
  EXPECT_DOUBLE_EQ(SupportedPercentile(200, 99.0), 95.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(11, 99.0), 100.0 / 11.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10, 99.0), 0.0);  // nothing supported
  for (size_t n : {11, 37, 250, 999, 1000, 1001, 4096}) {
    const double p = SupportedPercentile(n, 99.0);
    const std::vector<double> v = OneTo(static_cast<int>(n));
    const double value = NearestRank(v, p);
    EXPECT_GE(static_cast<double>(n) - value, 10.0) << n;  // >= 10 samples beyond
  }
}

TEST(Summarize, ReportsMedianTailAndCount) {
  const TailSummary s = Summarize(OneTo(500));
  EXPECT_EQ(s.n, 500u);
  EXPECT_EQ(s.p50, 250);
  EXPECT_DOUBLE_EQ(s.tail_pct, 98.0);
  EXPECT_EQ(s.tail, 490);
  // Too few samples for any supported tail: the maximum stands in.
  const TailSummary few = Summarize({3, 9, 1});
  EXPECT_EQ(few.tail_pct, 0.0);
  EXPECT_EQ(few.tail, 9);
}

TEST(SummarizeWindows, OneStallSpoilsOneWindow) {
  // 5000 samples of 1 ms with a stall of 60 samples at 20 ms in the middle:
  // the whole-sample p99 is the stall, the median window's p99 is not.
  std::vector<double> v(5000, 1.0);
  for (size_t i = 2500; i < 2560; ++i) v[i] = 20.0;
  EXPECT_EQ(Summarize(v).tail, 20.0);
  const TailSummary w = SummarizeWindows(v);
  EXPECT_EQ(w.n, 5000u);
  EXPECT_EQ(w.tail, 1.0);
  EXPECT_DOUBLE_EQ(w.tail_pct, 99.0);
  // Below 2 * kMinWindow there is one window: the plain summary.
  const std::vector<double> few = OneTo(1500);
  EXPECT_EQ(SummarizeWindows(few).tail, Summarize(few).tail);
  EXPECT_EQ(SummarizeWindows(few).p50, Summarize(few).p50);
  // The window count is capped: 20000 samples make 8 windows of 2500.
  std::vector<double> ramp = OneTo(20000);
  const TailSummary capped = SummarizeWindows(ramp);
  EXPECT_EQ(capped.p50, 8750);  // window 4 of 8 ([7501, 10000]) has p50 8750
}

std::vector<RequestSample> Served(size_t n, double latency_ms) {
  return std::vector<RequestSample>(n, RequestSample{RequestSample::kServed, latency_ms});
}

RungResult Passing(double rate) { return EvaluateRung(rate, Served(1000, 2.0), {}, 5.0); }

RungResult Missing(double rate) { return EvaluateRung(rate, Served(1000, 6.0), {}, 5.0); }

TEST(Ladder, MaxRateIsTheLastRungBeforeTheFirstFailure) {
  std::vector<RungResult> ladder = {Passing(100), Passing(200), Passing(300), Passing(400)};
  EXPECT_EQ(MaxRateAtSlo(ladder), 400);
  ladder[2] = Missing(300);  // tail over the SLO
  EXPECT_FALSE(RungMeetsSlo(ladder[2]));
  EXPECT_EQ(MaxRateAtSlo(ladder), 200);  // 400 passing again does not count
  EXPECT_EQ(MaxRateAtSlo({}), 0);
  EXPECT_EQ(MaxRateAtSlo({EvaluateRung(50, {}, {}, 5.0), Passing(100)}), 0);
}

TEST(Fastest, IsTheMinimum) {
  EXPECT_EQ(Fastest({5.0, 3.0, 4.0}), 3.0);
  EXPECT_EQ(Fastest({}), 0.0);
}

TEST(Ladder, RefusalsFailuresAndBacklogEachFailARung) {
  // One window: a single refusal fails the rung.
  std::vector<RequestSample> samples = Served(500, 2.0);
  samples[250].kind = RequestSample::kRefused;
  const RungResult refused = EvaluateRung(200, samples, {}, 5.0);
  EXPECT_EQ(refused.refused, 1);
  EXPECT_EQ(refused.windows, 1);
  EXPECT_FALSE(RungMeetsSlo(refused));
  EXPECT_EQ(MaxRateAtSlo({Passing(100), refused, Passing(300)}), 100);

  // A failure or wrong answer fails the rung in any window.
  samples = Served(8000, 2.0);
  samples[10].kind = RequestSample::kFailed;
  EXPECT_FALSE(RungMeetsSlo(EvaluateRung(200, samples, {}, 5.0)));

  // A growing backlog fails it even with every window under the limit.
  const RungResult backlog =
      EvaluateRung(200, Served(1000, 2.0), {2, 6, 10, 14, 18, 22, 26, 30}, 5.0);
  EXPECT_TRUE(backlog.backlog_growing);
  EXPECT_FALSE(RungMeetsSlo(backlog));
}

TEST(Ladder, AtLeastHalfOfTheWindowsMustMeetTheSlo) {
  // 8 windows of 1000; host stalls (slow requests) in windows 0-3 leave
  // 4 of 8 within the limit: the rung passes.
  std::vector<RequestSample> samples = Served(8000, 2.0);
  for (size_t i = 0; i < 80; ++i) samples[i * 50] = {RequestSample::kServed, 40.0};
  RungResult rung = EvaluateRung(1000, samples, {}, 5.0);
  EXPECT_EQ(rung.windows, 8);
  EXPECT_EQ(rung.windows_met, 4);
  EXPECT_TRUE(RungMeetsSlo(rung));
  // Spoil a fifth window: 3 of 8 fails.
  for (size_t i = 4000; i < 4020; ++i) samples[i].latency_ms = 40.0;
  rung = EvaluateRung(1000, samples, {}, 5.0);
  EXPECT_EQ(rung.windows_met, 3);
  EXPECT_FALSE(RungMeetsSlo(rung));
  // Two windows: one spoiled by a stall is forgiven.
  samples = Served(2000, 2.0);
  for (size_t i = 0; i < 20; ++i) samples[i].latency_ms = 40.0;
  rung = EvaluateRung(1000, samples, {}, 5.0);
  EXPECT_EQ(rung.windows, 2);
  EXPECT_EQ(rung.windows_met, 1);
  EXPECT_TRUE(RungMeetsSlo(rung));
}

TEST(Ladder, OneRefusalFailsARungOfManyWindows) {
  std::vector<RequestSample> samples = Served(8000, 2.0);
  samples[7999].kind = RequestSample::kRefused;
  const RungResult rung = EvaluateRung(1000, samples, {}, 5.0);
  EXPECT_EQ(rung.windows_met, 8);
  EXPECT_FALSE(RungMeetsSlo(rung));
}

TEST(Ladder, BacklogGrowthDetection) {
  EXPECT_FALSE(BacklogGrowing({1, 2, 1, 2, 1, 2, 1, 2}));  // steady
  EXPECT_FALSE(BacklogGrowing({0, 0, 0, 1, 0, 0, 2, 1}));  // noise within slack
  EXPECT_TRUE(BacklogGrowing({2, 6, 10, 14, 18, 22, 26, 30}));  // linear growth
  EXPECT_FALSE(BacklogGrowing({30, 26, 22, 18, 14, 10, 6, 2}));  // draining
  EXPECT_FALSE(BacklogGrowing({0, 100}));  // too few samples to judge
}

SpanRecord Span(int64_t id, int64_t parent, const std::string& name, int64_t start,
                int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NestedTreeTelescopesToTheRootDuration) {
  // run [0,100): setup [0,10) > {gen [0,6), splits [6,9)}; train [10,80) >
  // {cvae [12,40), maml [40,79)}; eval [80,98).
  const std::vector<SpanRecord> spans = {
      Span(1, -1, "run", 0, 100),    Span(2, 1, "setup", 0, 10),
      Span(3, 2, "gen", 0, 6),       Span(4, 2, "splits", 6, 9),
      Span(5, 1, "train", 10, 80),   Span(6, 5, "cvae", 12, 40),
      Span(7, 5, "maml", 40, 79),    Span(8, 1, "eval", 80, 98)};
  const SelfTimeTable table = BuildSelfTimeTable(spans, 1);
  EXPECT_EQ(table.total_ns, 100);
  EXPECT_EQ(table.unattributed_ns, 2);  // [98,100)
  EXPECT_EQ(table.residual_ns, 0);
  ASSERT_EQ(table.rows.size(), 7u);
  EXPECT_EQ(table.rows[0].name, "setup");
  EXPECT_EQ(table.rows[0].self_ns, 1);  // [9,10)
  EXPECT_EQ(table.rows[1].name, "gen");
  EXPECT_EQ(table.rows[1].self_ns, 6);
  EXPECT_EQ(table.rows[3].name, "train");
  EXPECT_EQ(table.rows[3].self_ns, 3);  // [10,12) + [79,80)
  int64_t sum = table.unattributed_ns;
  for (const SelfTimeRow& row : table.rows) sum += row.self_ns;
  EXPECT_EQ(sum, 100);
}

TEST(SelfTime, RowsGroupByNameAndCount) {
  const std::vector<SpanRecord> spans = {
      Span(1, -1, "run", 0, 50), Span(2, 1, "eval.scenario", 0, 10),
      Span(3, 1, "eval.scenario", 10, 30), Span(4, 1, "eval.scenario", 30, 35)};
  const SelfTimeTable table = BuildSelfTimeTable(spans, 1);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].count, 3);
  EXPECT_EQ(table.rows[0].self_ns, 35);
  EXPECT_EQ(table.unattributed_ns, 15);
  EXPECT_EQ(table.residual_ns, 0);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndShowAsResidual) {
  // Two concurrent children cover [10,40) together: the parent's self time
  // subtracts the union (30), but their own self times sum to 45, so the
  // telescoping check reports the 15 ns double count.
  const std::vector<SpanRecord> spans = {Span(1, -1, "run", 0, 50),
                                         Span(2, 1, "a", 10, 35), Span(3, 1, "b", 20, 40)};
  const SelfTimeTable table = BuildSelfTimeTable(spans, 1);
  EXPECT_EQ(table.unattributed_ns, 20);
  EXPECT_EQ(table.residual_ns, 15);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(CoveredNs({{-5, 5}, {8, 20}}, 0, 10), 7);
  EXPECT_EQ(CoveredNs({{2, 4}, {3, 6}, {6, 7}}, 0, 10), 5);
  EXPECT_EQ(CoveredNs({}, 0, 10), 0);
  const SelfTimeTable missing = BuildSelfTimeTable({Span(1, -1, "run", 0, 10)}, 42);
  EXPECT_EQ(missing.total_ns, 0);
}

}  // namespace
}  // namespace e2ebench
