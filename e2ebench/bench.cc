#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/metadpa.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/recommend.h"
#include "eval/suite.h"
#include "loadgen.h"
#include "model.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/request_trace.h"
#include "serve/quant.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "tensor/buffer_pool.h"
#include "trace.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace e2ebench {
namespace md = metadpa;
namespace {

using md::Stopwatch;
using md::serve::ModelSnapshot;
using md::serve::quant::Precision;
using SnapshotPtr = std::shared_ptr<const ModelSnapshot>;

// Fixed shape of both workloads (recorded in the run manifest).
constexpr int kTrainThreads = 4;
constexpr int kEvalThreads = 4;
constexpr double kBooksScale = 1.0;
// One fixed model seed (the suite default): hr10/ndcg10 are then exact for
// the code under test instead of varying 10-20% with a training seed.
constexpr uint64_t kModelSeed = 2022;
// serve-metadpa's hot swaps alternate between the model of kModelSeed and
// one of this seed, whose answers differ, so a response scored by the wrong
// snapshot shows as a wrong answer.
constexpr uint64_t kSwapModelSeed = 7;
// train-books trains MetaDPA at effort 1. serve-metadpa trains the same
// model at half the epochs: training is only its set-up, a request costs the
// same (effort scales epochs, not the per-request Adapt), and the time saved
// pays for set-up repeats on both sides of the serving phases.
constexpr double kEffort = 1.0;
constexpr double kServeEffort = 0.5;
// The benchmark host loses stretches of 1-20 ms (sometimes whole seconds of
// them) to its hypervisor. Repeated wall-clock timings (set-up, training,
// eval) report the fastest repeat (Fastest), CPU times the median; latency
// percentiles pool every sample of the run.

// serve-metadpa.
constexpr int kServeWorkers = 2;
constexpr int kCandidates = 100;
constexpr int kTopK = 10;
constexpr size_t kSessions = 400;
constexpr double kZipfExponent = 0.9;
constexpr double kNominalQps = 200;
// 50/s steps from 450/s on, so a run in a slow stretch of the host loses a
// step or two, not a third of its rate.
const std::vector<double> kLadderQps = {150, 450, 500, 550, 600, 650,  700, 750,
                                        800, 850, 900, 1000, 1200, 1400, 2000};
// Length of each of the three nominal parts and of each rung, as a share of
// --seconds (3 s and 4 s at the default 20). A rung from 500/s on then holds
// two or more windows of >= 1000 requests, so one host stall cannot fail it.
constexpr double kPhaseShare = 0.15;
constexpr double kRungShare = 0.2;
// The p99 limit. Host stalls of up to 20 ms put the nominal-rate p99 at
// 8-16 ms, so a 25 ms limit failed rates as low as 150/s in slow stretches;
// at 50 ms a rate fails when the server runs out of capacity.
constexpr double kSloMs = 50.0;
constexpr int kSwapPeriodMs = 250;
// Request-trace cost probe: a model whose scoring costs microseconds, so
// the tracing cost is visible.
constexpr double kProbeQps = 5000;
constexpr int64_t kProbeEmbedDim = 96;

const md::data::Scenario kScenarios[] = {
    md::data::Scenario::kWarm, md::data::Scenario::kColdUser,
    md::data::Scenario::kColdItem, md::data::Scenario::kColdUserItem};

// ---------------------------------------------------------------- set-up ---

struct World {
  md::data::MultiDomainDataset dataset;
  md::data::DatasetSplits splits;
  uint64_t data_seed = 0;
  md::eval::TrainContext ctx() const { return {&dataset, &splits, data_seed}; }
};

// The synthetic Books corpus is the same for every seed, like a public
// dataset; the seed drives the served traffic. See README.md.
std::unique_ptr<World> MakeWorld() {
  auto world = std::make_unique<World>();
  const md::data::SyntheticConfig config = md::data::DefaultConfig("Books", kBooksScale);
  world->data_seed = config.seed;
  {
    ScopedSpan span("data.generate");
    world->dataset = md::data::Generate(config);
  }
  ScopedSpan span("data.splits");
  world->splits = md::data::MakeSplits(world->dataset.target, md::data::SplitOptions{});
  return world;
}

md::core::MetaDpaConfig MetaDpaConfig(int train_threads, uint64_t model_seed, double effort) {
  md::suite::SuiteOptions options;
  options.seed = model_seed;
  options.effort = effort;
  options.train_threads = train_threads;
  return md::suite::DefaultMetaDpaConfig(options);
}

struct Fitted {
  std::shared_ptr<md::eval::Recommender> model;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Fitted FitModel(std::shared_ptr<md::eval::Recommender> model, const World& world,
                Report* report) {
  Fitted fitted;
  fitted.model = std::move(model);
  const double cpu = ProcessCpuSeconds();
  Stopwatch timer;
  const md::Status status = fitted.model->Fit(world.ctx());
  fitted.wall_s = timer.ElapsedSeconds();
  fitted.cpu_s = ProcessCpuSeconds() - cpu;
  report->Check(status.ok(), "Fit: " + status.ToString());
  return fitted;
}

Fitted FitMetaDpa(const World& world, int train_threads, uint64_t model_seed, double effort,
                  Report* report) {
  return FitModel(
      std::make_shared<md::core::MetaDpa>(MetaDpaConfig(train_threads, model_seed, effort)),
      world, report);
}

SnapshotPtr Capture(std::shared_ptr<md::eval::Recommender> model, uint64_t version,
                    Precision precision) {
  md::serve::SnapshotOptions options;
  options.precision = precision;
  auto snapshot = ModelSnapshot::Capture(std::move(model), version, options);
  MDPA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ValueOrDie();
}

// ------------------------------------------------------------------ eval ---

struct EvalPass {
  std::vector<std::string> rows;  // per scenario, every metric at full precision
  double hr10 = 0.0;
  double ndcg10 = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t cases = 0;
};

EvalPass Evaluate(md::eval::Recommender* model, const World& world) {
  EvalPass pass;
  md::eval::EvalOptions options;
  options.num_threads = kEvalThreads;
  const double cpu = ProcessCpuSeconds();
  Stopwatch timer;
  for (md::data::Scenario scenario : kScenarios) {
    ScopedSpan span("eval.scenario");
    const md::eval::ScenarioResult r =
        md::eval::EvaluateScenario(model, world.ctx(), scenario, options);
    char row[256];
    std::snprintf(row, sizeof(row), "%s,%.17g,%.17g,%.17g,%.17g,%" PRId64,
                  md::data::ScenarioName(scenario), r.at_k.hr, r.at_k.mrr, r.at_k.ndcg,
                  r.at_k.auc, r.num_cases);
    pass.rows.push_back(row);
    pass.hr10 += r.at_k.hr / 4.0;
    pass.ndcg10 += r.at_k.ndcg / 4.0;
    pass.cases += r.num_cases;
  }
  pass.wall_s = timer.ElapsedSeconds();
  pass.cpu_s = ProcessCpuSeconds() - cpu;
  return pass;
}

// Bit-identity check of two eval passes; one mismatch counts one failure.
void CheckSameRows(const EvalPass& a, const EvalPass& b, const std::string& what,
                   Report* report) {
  report->attempted += 1;
  if (a.rows != b.rows) report->failed += 1;
  report->Check(a.rows == b.rows, what + ": eval metrics differ");
}

// --------------------------------------------------------------- serving ---

bool SameAnswer(const std::vector<md::eval::Recommendation>& a,
                const std::vector<md::eval::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].score != b[i].score) return false;
  }
  return true;
}

// Answers of a direct CloneForScoring() scorer of each served model, in the
// Swapper's order, computed per session after the timed phases. A response
// from snapshot version v must equal model (v - 1) % n's answer, and a
// version never published is wrong too.
class Reference {
 public:
  Reference(const std::vector<SnapshotPtr>& snapshots, const std::vector<Session>* sessions,
            uint64_t last_version)
      : snapshots_(snapshots), sessions_(sessions), last_version_(last_version) {
    for (const SnapshotPtr& snapshot : snapshots_) {
      scorers_.push_back(snapshot->NewScorer());
      answers_.emplace_back();
    }
  }

  bool IsWrong(const Outcome& o) {
    if (o.status != Outcome::kServed) return false;
    const uint64_t version = o.response.snapshot_version;
    if (version < 1 || version > last_version_) return true;
    const size_t model = (version - 1) % scorers_.size();
    models_seen_ |= uint64_t{1} << model;
    return !SameAnswer(o.response.items, Get(model, o.session));
  }

  int64_t CountWrong(const PhaseRun& run) {
    return std::count_if(run.outcomes.begin(), run.outcomes.end(),
                         [this](const Outcome& o) { return IsWrong(o); });
  }

  /// \brief How many of the models answered a checked response.
  int ModelsSeen() const { return __builtin_popcountll(models_seen_); }

  /// \brief Sessions checked so far on which the first two models' answers
  /// differ: with none, a swap mix-up could not show.
  int64_t DifferingSessions() {
    if (scorers_.size() < 2) return 0;
    std::vector<int32_t> seen;
    for (const auto& [session, answer] : answers_[0]) seen.push_back(session);
    return std::count_if(seen.begin(), seen.end(), [this](int32_t session) {
      return !SameAnswer(Get(0, session), Get(1, session));
    });
  }

 private:
  const std::vector<md::eval::Recommendation>& Get(size_t model, int32_t session) {
    auto& answers = answers_[model];
    auto it = answers.find(session);
    if (it != answers.end()) return it->second;
    const Session& s = (*sessions_)[static_cast<size_t>(session)];
    return answers[session] = md::eval::RecommendTopK(scorers_[model].get(), s.user,
                                                      s.candidates, s.support, kTopK);
  }

  std::vector<SnapshotPtr> snapshots_;  // keep the scorers' models alive
  const std::vector<Session>* sessions_;
  uint64_t last_version_;
  std::vector<std::unique_ptr<md::eval::CaseScorer>> scorers_;
  std::vector<std::unordered_map<int32_t, std::vector<md::eval::Recommendation>>> answers_;
  uint64_t models_seen_ = 0;
};

md::serve::ServerConfig ServerConfigFor(Precision precision, bool trace_requests) {
  md::serve::ServerConfig config;
  config.num_workers = kServeWorkers;
  config.max_queue = 256;
  config.max_batch = 8;
  config.default_k = kTopK;
  config.precision = precision;
  config.trace_requests = trace_requests;
  return config;
}

// Once per period, captures the next of `models` (in turn) under a new
// version and swaps it in: the writes beside the reads. Version v serves
// models[(v - 1) % n], which is what Reference expects. Driven from the load
// generator's collector thread (see RunPhase), so the benchmark never runs
// more than four busy threads.
class Swapper {
 public:
  Swapper(md::serve::ScoringServer* server,
          std::vector<std::shared_ptr<md::eval::Recommender>> models)
      : server_(server),
        models_(std::move(models)),
        next_ns_(md::obs::TraceNowNs() + kPeriodNs) {}

  /// \brief The RunPhase tick hook.
  std::function<void()> Hook() {
    return [this] { Tick(); };
  }

  const std::vector<double>& capture_ms() const { return capture_ms_; }
  const std::vector<double>& swap_us() const { return swap_us_; }
  uint64_t last_version() const { return version_; }

 private:
  static constexpr int64_t kPeriodNs = int64_t{kSwapPeriodMs} * 1'000'000;

  void Tick() {
    const int64_t now = md::obs::TraceNowNs();
    if (now < next_ns_) return;
    next_ns_ = now + kPeriodNs;
    ++version_;
    Stopwatch capture;
    SnapshotPtr next = Capture(models_[(version_ - 1) % models_.size()], version_,
                               Precision::kFp32);
    capture_ms_.push_back(capture.ElapsedMillis());
    Stopwatch swap;
    server_->UpdateSnapshot(std::move(next));
    swap_us_.push_back(swap.ElapsedMillis() * 1e3);
  }

  md::serve::ScoringServer* server_;
  std::vector<std::shared_ptr<md::eval::Recommender>> models_;
  int64_t next_ns_;
  uint64_t version_ = 1;
  std::vector<double> capture_ms_;
  std::vector<double> swap_us_;
};

std::vector<double> ServedLatencyMs(const PhaseRun& run) {
  std::vector<double> ms;
  for (const Outcome& o : run.outcomes) {
    if (o.status == Outcome::kServed) ms.push_back(1e-6 * static_cast<double>(o.latency_ns));
  }
  return ms;
}

int64_t CountStatus(const PhaseRun& run, Outcome::Status status) {
  return std::count_if(run.outcomes.begin(), run.outcomes.end(),
                       [status](const Outcome& o) { return o.status == status; });
}

// A phase's requests for EvaluateRung; with a reference, wrong answers count
// as failures.
RungResult ToRung(const PhaseRun& run, Reference* reference) {
  std::vector<RequestSample> samples;
  samples.reserve(run.outcomes.size());
  for (const Outcome& o : run.outcomes) {
    RequestSample sample;
    sample.latency_ms = 1e-6 * static_cast<double>(o.latency_ns);
    if (o.status == Outcome::kRefused) sample.kind = RequestSample::kRefused;
    if (o.status == Outcome::kFailed || (reference != nullptr && reference->IsWrong(o))) {
      sample.kind = RequestSample::kFailed;
    }
    samples.push_back(sample);
  }
  return EvaluateRung(run.rate, samples, run.backlog, kSloMs);
}

uint64_t PhaseSeed(uint64_t seed, uint64_t phase) { return md::MixSeeds(seed, 0xe2eb, phase); }

struct ServeOutcome {
  std::vector<PhaseRun> nominal;  // three parts, spread over the run
  std::vector<PhaseRun> ladder;   // one phase per rung, ascending
  double repeat_share = 0.0;
};

// Warm-up, then the ladder (ascending, stopping at the first rung that misses
// the SLO; answers are checked afterwards) with the nominal rate measured in
// three parts: before, amid and after the ladder, so that one slow stretch
// of the host spoils at most one part.
ServeOutcome ServeLoad(md::serve::ScoringServer* server, const std::vector<Session>& sessions,
                       uint64_t seed, double seconds, const std::function<void()>& tick) {
  ServeOutcome out;
  RunPhase(server, sessions,
           MakeSchedule(kNominalQps, 0.5, kSessions, kZipfExponent, PhaseSeed(seed, 0)),
           kTopK, tick);
  auto nominal_part = [&] {
    const Schedule schedule = MakeSchedule(kNominalQps, kPhaseShare * seconds, kSessions,
                                           kZipfExponent, PhaseSeed(seed, 1 + out.nominal.size()));
    if (out.nominal.empty()) out.repeat_share = RepeatShare(schedule);
    out.nominal.push_back(RunPhase(server, sessions, schedule, kTopK, tick));
  };
  nominal_part();
  for (size_t i = 0; i < kLadderQps.size(); ++i) {
    if (i == 3) nominal_part();  // amid the ladder, after its third rung
    out.ladder.push_back(RunPhase(server, sessions,
                                  MakeSchedule(kLadderQps[i], kRungShare * seconds, kSessions,
                                               kZipfExponent, PhaseSeed(seed, 10 + i)),
                                  kTopK, tick));
    if (!RungMeetsSlo(ToRung(out.ladder.back(), nullptr))) break;
  }
  while (out.nominal.size() < 3) nominal_part();
  return out;
}

// ------------------------------------------------------------- reporting ---

void PrintTable(const std::string& title, const md::TextTable& table) {
  std::cout << "\n" << title << "\n" << table.ToString();
}

void PrintSelfTimeTable(const std::string& workload, const std::vector<SpanRecord>& spans,
                        int64_t root, Report* report) {
  const SelfTimeTable table = BuildSelfTimeTable(spans, root);
  md::TextTable text;
  text.SetHeader({"layer", "spans", "self s", "share"});
  const double total = 1e-9 * static_cast<double>(table.total_ns);
  for (const SelfTimeRow& row : table.rows) {
    const double s = 1e-9 * static_cast<double>(row.self_ns);
    text.AddRow({row.name, std::to_string(row.count), md::TextTable::Num(s),
                 md::TextTable::Num(s / total)});
  }
  const double unattributed = 1e-9 * static_cast<double>(table.unattributed_ns);
  text.AddRow({"unattributed", "-", md::TextTable::Num(unattributed),
               md::TextTable::Num(unattributed / total)});
  text.AddSeparator();
  text.AddRow({"traced wall", "-", md::TextTable::Num(total), "1"});
  PrintTable(workload + ": self time of the traced run (rows + unattributed = wall)", text);
  report->Check(table.residual_ns == 0, "self-time rows do not add up to the traced wall");
  report->Set("trace.unattributed_share", unattributed / total, "ratio");
}

int64_t Counter(const md::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

// Durations (ms) of the named spans whose start lies in [from, to).
std::vector<double> SpanMs(const std::vector<SpanRecord>& spans, const std::string& name,
                           int64_t from, int64_t to) {
  std::vector<double> ms;
  for (const SpanRecord& s : spans) {
    if (s.name == name && s.start_ns >= from && s.start_ns < to) {
      ms.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return ms;
}

double SpanTotalS(const std::vector<SpanRecord>& spans, const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) total += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

// Layer counters over a traced section: obs counters are reset at its start,
// the buffer- and thread-pool counters are differenced.
class LayerCounters {
 public:
  LayerCounters()
      : pool_(md::pool::GlobalStats()), threads_(md::ThreadPool::Global().GetStats()) {
    md::obs::ResetMetrics();
  }

  void Report(e2ebench::Report* report, bool per_request, int64_t requests) const {
    const md::obs::MetricsSnapshot snap = md::obs::SnapshotMetrics();
    const md::pool::Stats pool = md::pool::GlobalStats();
    const md::ThreadPool::Stats threads = md::ThreadPool::Global().GetStats();
    const double hits = static_cast<double>(pool.hits - pool_.hits);
    const double misses = static_cast<double>(pool.misses - pool_.misses);
    report->Set("cvae.optimizer_steps", Counter(snap, "cvae/optimizer_steps"), "count");
    report->Set("maml.outer_steps", Counter(snap, "maml/outer_steps"), "count");
    report->Set("maml.inner_steps", Counter(snap, "maml/inner_steps"), "count");
    const double nodes = static_cast<double>(Counter(snap, "autograd/nodes_executed"));
    report->Set("autograd.nodes_executed",
                per_request && requests > 0 ? nodes / static_cast<double>(requests) : nodes,
                "count");
    report->Set("tensor_pool.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                "ratio");
    report->Set("tensor_pool.misses", misses, "count");
    report->Set("thread_pool.idle_s", threads.idle_seconds - threads_.idle_seconds, "s");
    report->Set("thread_pool.tasks_executed",
                static_cast<double>(threads.tasks_executed - threads_.tasks_executed), "count");
  }

 private:
  md::pool::Stats pool_;
  md::ThreadPool::Stats threads_;
};

void StartTracedSection() {
  SetTracing(true);
  md::obs::SetEnabled(true);
  md::ThreadPool::Global().SetIdleTimingEnabled(true);
}

// Per-request split of the server's score stage (pin -> RecommendTopK
// returned) into: batch_wait (earlier requests of the same batch), task /
// adapt / forward (the scorer's spans), rank (top-k after scoring) and
// unattributed (the rest: candidate dedup before scoring, scorer glue, and
// whole stages of requests whose spans could not be matched). The rows add
// up to the stage by construction. A scorer span carries its case's user
// until it is matched to a request (same user, inside the request's slot of
// its batch); the matched spans then take the request's id.
struct ScoreSplit {
  std::vector<double> stage, batch_wait, task, adapt, forward, rank, unattributed;
  int64_t unmatched = 0;
};

ScoreSplit SplitScoreStage(const PhaseRun& run, std::vector<SpanRecord>* recorded) {
  std::vector<SpanRecord>& spans = *recorded;
  std::unordered_map<int64_t, std::vector<size_t>> score_by_user;
  std::unordered_map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "score") score_by_user[spans[i].request].push_back(i);
    children[spans[i].parent].push_back(i);
  }
  for (auto& [user, list] : score_by_user) {
    std::sort(list.begin(), list.end(),
              [&](size_t a, size_t b) { return spans[a].start_ns < spans[b].start_ns; });
  }
  std::vector<const md::obs::RequestTrace*> traces;
  for (const Outcome& o : run.outcomes) {
    if (o.status == Outcome::kServed && o.response.trace.request_id >= 0) {
      traces.push_back(&o.response.trace);
    }
  }
  // Batch members share their pin stamp; within a batch requests run in
  // score order, each starting after the previous one was fulfilled.
  std::sort(traces.begin(), traces.end(), [](auto* a, auto* b) {
    return a->pin_ns != b->pin_ns ? a->pin_ns < b->pin_ns : a->score_ns < b->score_ns;
  });
  std::vector<bool> used(spans.size(), false);
  ScoreSplit split;
  for (size_t t = 0; t < traces.size(); ++t) {
    const md::obs::RequestTrace& trace = *traces[t];
    const bool first = t == 0 || traces[t - 1]->pin_ns != trace.pin_ns;
    const int64_t begin = first ? trace.pin_ns : traces[t - 1]->fulfill_ns;
    const double stage = 1e-6 * static_cast<double>(trace.score_ns - trace.pin_ns);
    const double wait = 1e-6 * static_cast<double>(begin - trace.pin_ns);
    SpanRecord* match = nullptr;
    for (size_t i : score_by_user[trace.user]) {
      if (!used[i] && spans[i].start_ns >= begin && spans[i].end_ns <= trace.score_ns) {
        used[i] = true;
        match = &spans[i];
        break;
      }
    }
    split.stage.push_back(stage);
    split.batch_wait.push_back(wait);
    double task = 0.0, adapt = 0.0, forward = 0.0, rank = 0.0;
    if (match != nullptr) {
      match->request = trace.request_id;
      for (size_t c : children[match->id]) {
        spans[c].request = trace.request_id;
        const double ms = 1e-6 * static_cast<double>(spans[c].end_ns - spans[c].start_ns);
        if (spans[c].name == "score.task") task += ms;
        if (spans[c].name == "score.adapt") adapt += ms;
        if (spans[c].name == "score.forward") forward += ms;
      }
      rank = 1e-6 * static_cast<double>(trace.score_ns - match->end_ns);
    } else {
      ++split.unmatched;
    }
    split.task.push_back(task);
    split.adapt.push_back(adapt);
    split.forward.push_back(forward);
    split.rank.push_back(rank);
    split.unattributed.push_back(stage - wait - task - adapt - forward - rank);
  }
  return split;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void PrintScoreSplit(const ScoreSplit& split) {
  md::TextTable text;
  text.SetHeader({"score sub-stage", "mean ms", "p50 ms", "tail ms", "tail pct"});
  const std::pair<const char*, const std::vector<double>*> rows[] = {
      {"batch_wait", &split.batch_wait}, {"task", &split.task},
      {"adapt", &split.adapt},           {"forward", &split.forward},
      {"rank", &split.rank},             {"unattributed", &split.unattributed}};
  for (const auto& [name, values] : rows) {
    const TailSummary s = Summarize(*values);
    text.AddRow({name, md::TextTable::Num(Mean(*values)), md::TextTable::Num(s.p50),
                 md::TextTable::Num(s.tail), md::TextTable::Num(s.tail_pct, 1)});
  }
  text.AddSeparator();
  const TailSummary s = Summarize(split.stage);
  text.AddRow({"score stage", md::TextTable::Num(Mean(split.stage)), md::TextTable::Num(s.p50),
               md::TextTable::Num(s.tail), md::TextTable::Num(s.tail_pct, 1)});
  PrintTable("serve-metadpa: per-request score stage (" + std::to_string(s.n) +
                 " requests; mean rows add up to the stage mean)",
             text);
}

// Request-stage metrics from the RequestTraces of a traced phase.
void ReportServeStages(const PhaseRun& run, const md::serve::ScoringServer& server,
                       Report* report) {
  std::vector<double> submit_us, queue, score, fulfill, late;
  for (const Outcome& o : run.outcomes) {
    submit_us.push_back(1e-3 * static_cast<double>(o.submit_ns));
    late.push_back(1e-6 * static_cast<double>(o.late_ns));
    if (o.status != Outcome::kServed || o.response.trace.request_id < 0) continue;
    const md::obs::StageBreakdown b = md::obs::ComputeStageBreakdown(o.response.trace);
    queue.push_back(b.queue_ms);
    score.push_back(b.score_ms);
    fulfill.push_back(b.fulfill_ms);
  }
  const md::serve::ScoringServer::Stats stats = server.GetStats();
  const TailSummary submit = Summarize(submit_us), q = Summarize(queue), s = Summarize(score);
  report->Set("serve.submit_us.p50", submit.p50, "us");
  report->Set("serve.submit_us.p99", submit.tail, "us");
  report->Set("serve.queue_ms.p50", q.p50, "ms");
  report->Set("serve.queue_ms.p99", q.tail, "ms");
  report->Set("serve.score_ms.p50", s.p50, "ms");
  report->Set("serve.score_ms.p99", s.tail, "ms");
  report->Set("serve.fulfill_ms.p99", Summarize(fulfill).tail, "ms");
  report->Set("serve.batch_size_mean",
              stats.batches > 0 ? static_cast<double>(stats.completed) /
                                      static_cast<double>(stats.batches)
                                : 0.0,
              "count");
  report->Set("serve.peak_queue", static_cast<double>(stats.peak_queue_depth), "count");
  report->Set("serve.rejected_full", static_cast<double>(stats.rejected_full), "count");
  report->Set("loadgen.late_ms.p99", Summarize(late).tail, "ms");
}

double CpuMsPerRequest(const PhaseRun& run) {
  const int64_t served = CountStatus(run, Outcome::kServed);
  return served > 0 ? 1e3 * run.server_cpu_s / static_cast<double>(served) : 0.0;
}

void WriteManifest(const RunOptions& options) {
  md::suite::SuiteOptions suite_options;
  suite_options.seed = kModelSeed;
  suite_options.effort = options.workload == "serve-metadpa" ? kServeEffort : kEffort;
  suite_options.train_threads = kTrainThreads;
  md::obs::RunManifest manifest = md::suite::BuildRunManifest(suite_options);
  manifest.Set("bench", "workload", options.workload);
  manifest.SetInt("bench", "seed", static_cast<int64_t>(options.seed));
  manifest.SetDouble("bench", "seconds", options.seconds);
  manifest.SetBool("bench", "trace", options.trace);
  manifest.SetInt("bench", "host_cores",
                  static_cast<int64_t>(std::thread::hardware_concurrency()));
  manifest.Set("bench", "target", "Books");
  manifest.SetDouble("bench", "scale", kBooksScale);
  manifest.SetInt("bench", "train_threads", kTrainThreads);
  manifest.SetInt("bench", "eval_threads", kEvalThreads);
  if (options.workload == "serve-metadpa") {
    manifest.Set("serve", "model", "MetaDPA");
    manifest.Set("serve", "precision", "fp32");
    manifest.SetInt("serve", "workers", kServeWorkers);
    manifest.SetInt("serve", "candidates", kCandidates);
    manifest.SetInt("serve", "k", kTopK);
    manifest.SetDouble("serve", "nominal_qps", kNominalQps);
    std::string ladder;
    for (double rate : kLadderQps) {
      if (!ladder.empty()) ladder += ',';
      ladder += std::to_string(static_cast<int>(rate));
    }
    manifest.Set("serve", "ladder_qps", ladder);
    manifest.SetDouble("serve", "slo_p99_ms", kSloMs);
    manifest.SetInt("serve", "sessions", static_cast<int64_t>(kSessions));
    manifest.SetDouble("serve", "zipf_exponent", kZipfExponent);
    manifest.SetInt("serve", "swap_period_ms", kSwapPeriodMs);
    manifest.SetInt("serve", "swap_model_seed", static_cast<int64_t>(kSwapModelSeed));
    manifest.SetDouble("serve", "rung_s", kRungShare * options.seconds);
    manifest.SetDouble("serve", "nominal_part_s", kPhaseShare * options.seconds);
  }
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".manifest.json";
  const md::Status status = manifest.WriteJson(path);
  std::fprintf(stderr, "manifest: %s\n",
               status.ok() ? path.c_str() : status.ToString().c_str());
}

void WriteSpans(const RunOptions& options, const std::vector<SpanRecord>& spans) {
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.jsonl";
  std::fprintf(stderr, "spans: %s%s\n", path.c_str(),
               WriteSpansJsonl(path, spans) ? "" : " (write failed)");
}

// Per-block timings of a traced Fit, from its spans.
void ReportTrainSpans(const std::vector<SpanRecord>& spans, Report* report) {
  report->Set("data.generate_s", 1e-3 * Median(SpanMs(spans, "data.generate", 0, INT64_MAX)),
              "s");
  report->Set("data.splits_s", 1e-3 * Median(SpanMs(spans, "data.splits", 0, INT64_MAX)), "s");
  report->Set("cvae.fit_s", SpanTotalS(spans, "cvae.fit"), "s");
  report->Set("cvae.generate_s", SpanTotalS(spans, "cvae.generate"), "s");
  report->Set("meta.tasks_s", SpanTotalS(spans, "meta.tasks"), "s");
  report->Set("maml.train_s", SpanTotalS(spans, "maml.train"), "s");
}

// Per-case scorer spans recorded from `from` on (an eval phase).
void ReportEvalCases(const std::vector<SpanRecord>& spans, int64_t from, int64_t to,
                     int64_t cases, Report* report) {
  const TailSummary case_ms = Summarize(SpanMs(spans, "score", from, to));
  report->Set("eval.case_ms.p50", case_ms.p50, "ms");
  report->Set("eval.case_ms.p99", case_ms.tail, "ms");
  report->Set("eval.cases", static_cast<double>(cases), "count");
}

// ----------------------------------------------------------- train-books ---

Report TrainBooksTraced(const RunOptions& options) {
  Report report;
  const md::core::MetaDpaConfig config = MetaDpaConfig(kTrainThreads, kModelSeed, kEffort);
  // Untraced reference first: same calls, no spans, obs off. It runs twice
  // and the second pass is timed, so process warm-up (first-touch pages,
  // empty buffer pools) does not count as tracing overhead.
  double untraced_s = 0.0;
  EvalPass reference_eval;
  std::vector<double> reference_case_ms;
  for (int rep = 0; rep < 2; ++rep) {
    Stopwatch untraced;
    const std::unique_ptr<World> world = MakeWorld();
    const Fitted reference = FitMetaDpa(*world, kTrainThreads, kModelSeed, kEffort, &report);
    CaseTimer timer(reference.model.get());
    reference_eval = Evaluate(&timer, *world);
    untraced_s = untraced.ElapsedSeconds();
    reference_case_ms = timer.case_ms();
  }
  // The per-case tail of the untraced pass (lat_p99_ms's end-to-end meaning).
  report.Set("lat_p99_ms", Summarize(reference_case_ms).tail, "ms");

  StartTracedSection();
  LayerCounters counters;
  auto traced = std::make_shared<TracedMetaDpa>(config);
  std::unique_ptr<World> traced_world;
  int64_t root_id = -1;
  int64_t eval_from = 0;
  EvalPass traced_eval;
  {
    ScopedSpan root("run");
    root_id = root.id();
    {
      ScopedSpan span("setup");
      traced_world = MakeWorld();
    }
    {
      ScopedSpan span("train");
      report.Check(traced->Fit(traced_world->ctx()).ok(), "traced Fit");
    }
    ScopedSpan span("eval");
    eval_from = md::obs::TraceNowNs();
    traced_eval = Evaluate(traced.get(), *traced_world);
  }
  counters.Report(&report, false, 0);
  const std::vector<SpanRecord> spans = RecordedSpans();
  CheckSameRows(reference_eval, traced_eval, "traced vs untraced train-books", &report);
  PrintSelfTimeTable(options.workload, spans, root_id, &report);
  report.Set("trace.overhead_pct", 100.0 * (SpanTotalS(spans, "run") / untraced_s - 1.0), "%");
  ReportTrainSpans(spans, &report);
  report.Set("meta.tasks", static_cast<double>(traced->num_tasks()), "count");
  ReportEvalCases(spans, eval_from, INT64_MAX, traced_eval.cases, &report);
  const TailSummary adapt = Summarize(SpanMs(spans, "score.adapt", eval_from, INT64_MAX));
  report.Set("score.adapt_ms.p50", adapt.p50, "ms");
  report.Set("score.adapt_ms.p99", adapt.tail, "ms");
  report.Set("score.forward_ms.p50",
             Summarize(SpanMs(spans, "score.forward", eval_from, INT64_MAX)).p50, "ms");
  report.Set("err_share", static_cast<double>(report.failed) /
                              static_cast<double>(std::max<int64_t>(report.attempted, 1)),
             "ratio");
  WriteSpans(options, spans);
  return report;
}

Report TrainBooks() {
  Report report;
  // Three 4-thread and two 1-thread Fits, each after three timed set-ups
  // (data + splits) and followed by an eval, with the thread counts
  // interleaved so a slow stretch of the host hits both alike. Every model is
  // fresh, so every eval scores each case exactly once per model. The
  // 4-thread Fit gets more repeats: it waits on its slowest thread at every
  // meta-batch, so host stalls spread it the most.
  std::vector<double> setup_s, train_s, train_1t_s, train_cpu_s, eval_s, case_ms;
  std::vector<EvalPass> passes;
  std::unique_ptr<World> world;
  double eval_cpu_s = 0.0;
  int64_t cases = 0;
  for (int threads : {kTrainThreads, 1, kTrainThreads, 1, kTrainThreads}) {
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch timer;
      world = MakeWorld();
      setup_s.push_back(timer.ElapsedSeconds());
    }
    const Fitted fitted = FitMetaDpa(*world, threads, kModelSeed, kEffort, &report);
    (threads == 1 ? train_1t_s : train_s).push_back(fitted.wall_s);
    if (threads != 1) train_cpu_s.push_back(fitted.cpu_s);
    CaseTimer timer(fitted.model.get());
    passes.push_back(Evaluate(&timer, *world));
    eval_s.push_back(passes.back().wall_s);
    eval_cpu_s += passes.back().cpu_s;
    cases += passes.back().cases;
    const std::vector<double> more = timer.case_ms();
    case_ms.insert(case_ms.end(), more.begin(), more.end());
  }
  // One attempted check per model after the first, so one failure moves
  // ok_share by a quarter.
  for (size_t i = 1; i < passes.size(); ++i) {
    CheckSameRows(passes[0], passes[i], "eval of every 4- and 1-thread model", &report);
  }
  const TailSummary latency = Summarize(case_ms);
  double eval_wall_s = 0.0;
  for (double s : eval_s) eval_wall_s += s;
  report.Set("setup_s", Fastest(setup_s), "s");
  report.Print("train_s", Fastest(train_s), "s");
  report.Print("train_1t_s", Fastest(train_1t_s), "s");
  report.Set("train_cpu_s", Median(train_cpu_s), "s");
  report.Print("eval_s", Fastest(eval_s), "s");
  report.Set("hr10", passes[0].hr10, "ratio");
  report.Set("ndcg10", passes[0].ndcg10, "ratio");
  report.Print("lat_p50_ms", latency.p50, "ms");
  // An offline batch: its rate is eval cases completed per second, while
  // the per-case tail stays within the serving SLO.
  report.Print("max_qps_at_slo",
               latency.tail <= kSloMs ? static_cast<double>(cases) / eval_wall_s : 0.0, "1/s");
  report.Set("cpu_ms_per_req", 1e3 * eval_cpu_s / static_cast<double>(cases), "ms");
  report.Set("ok_share",
             1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");
  std::fprintf(stderr, "train-books: %zu case latencies, p99 %.3f ms\n", case_ms.size(),
               latency.tail);
  return report;
}

// --------------------------------------------------------- serve-metadpa ---

// trace_requests on vs off (nothing else traced), interleaved, on an
// EmbeddingDot int8 server whose ~12 us scoring makes the tracing cost
// visible. Returns the process-CPU-per-request increase in percent.
double RequestTraceCpuPct(const World& world, const std::vector<Session>& sessions,
                          uint64_t seed, double seconds) {
  md::Rng rng(world.data_seed);
  std::shared_ptr<md::eval::Recommender> model = md::serve::DotProductRecommender::MakeRandom(
      world.dataset.target.num_users(), world.dataset.target.num_items(), kProbeEmbedDim, &rng);
  const SnapshotPtr snapshot = Capture(model, 1, Precision::kInt8);
  md::serve::ScoringServer off(snapshot, ServerConfigFor(Precision::kInt8, false));
  md::serve::ScoringServer on(snapshot, ServerConfigFor(Precision::kInt8, true));
  const Schedule schedule =
      MakeSchedule(kProbeQps, seconds, kSessions, kZipfExponent, PhaseSeed(seed, 50));
  std::vector<double> on_cpu, off_cpu;
  for (int rep = 0; rep < 3; ++rep) {
    on_cpu.push_back(CpuMsPerRequest(RunPhase(&on, sessions, schedule, kTopK)));
    off_cpu.push_back(CpuMsPerRequest(RunPhase(&off, sessions, schedule, kTopK)));
  }
  return 100.0 * (Median(on_cpu) / Median(off_cpu) - 1.0);
}

Report ServeMetaDpaTraced(const RunOptions& options) {
  Report report;
  std::unique_ptr<World> world = MakeWorld();
  const Fitted fitted = FitMetaDpa(*world, kTrainThreads, kModelSeed, kServeEffort, &report);
  const SnapshotPtr snapshot = Capture(fitted.model, 1, Precision::kFp32);
  const std::vector<Session> sessions =
      MakeSessions(world->splits, kSessions, kCandidates, PhaseSeed(options.seed, 99));
  // The first nominal part of the untraced run, served by one model through
  // the same hot swaps (the two-model swap check is the untraced run's).
  const Schedule nominal = MakeSchedule(kNominalQps, kPhaseShare * options.seconds, kSessions,
                                        kZipfExponent, PhaseSeed(options.seed, 1));

  // Untraced reference phase: trace_requests off, obs off, no spans.
  PhaseRun untraced;
  uint64_t untraced_versions = 1;
  {
    md::serve::ScoringServer server(snapshot, ServerConfigFor(Precision::kFp32, false));
    Swapper swapper(&server, {fitted.model});
    RunPhase(&server, sessions,
             MakeSchedule(kNominalQps, 0.5, kSessions, kZipfExponent, PhaseSeed(options.seed, 0)),
             kTopK, swapper.Hook());
    untraced = RunPhase(&server, sessions, nominal, kTopK, swapper.Hook());
    untraced_versions = swapper.last_version();
  }
  report.Set("obs.request_trace_cpu_pct",
             RequestTraceCpuPct(*world, sessions, options.seed, 0.1 * options.seconds), "%");

  StartTracedSection();
  LayerCounters counters;
  auto traced =
      std::make_shared<TracedMetaDpa>(MetaDpaConfig(kTrainThreads, kModelSeed, kServeEffort));
  int64_t root_id = -1;
  int64_t serve_from = 0;
  int64_t serve_nodes = 0;
  PhaseRun traced_run;
  EvalPass traced_eval;
  // Declared before the server: the served model points into this world.
  std::unique_ptr<World> traced_world;
  std::unique_ptr<md::serve::ScoringServer> server;
  std::unique_ptr<Swapper> swapper;
  {
    ScopedSpan root("run");
    root_id = root.id();
    {
      ScopedSpan span("setup");
      traced_world = MakeWorld();
    }
    {
      ScopedSpan span("train");
      report.Check(traced->Fit(traced_world->ctx()).ok(), "traced Fit");
    }
    SnapshotPtr traced_snapshot;
    {
      ScopedSpan span("snapshot.capture");
      traced_snapshot = Capture(traced, 1, Precision::kFp32);
    }
    {
      ScopedSpan span("eval");
      traced_eval = Evaluate(traced.get(), *traced_world);
    }
    ScopedSpan span("serve.nominal");
    server = std::make_unique<md::serve::ScoringServer>(traced_snapshot,
                                                        ServerConfigFor(Precision::kFp32, true));
    swapper = std::make_unique<Swapper>(
        server.get(), std::vector<std::shared_ptr<md::eval::Recommender>>{traced});
    const int64_t nodes_before = Counter(md::obs::SnapshotMetrics(), "autograd/nodes_executed");
    serve_from = md::obs::TraceNowNs();
    traced_run = RunPhase(server.get(), sessions, nominal, kTopK, swapper->Hook());
    serve_nodes = Counter(md::obs::SnapshotMetrics(), "autograd/nodes_executed") - nodes_before;
  }
  server->Stop();
  const int64_t served = CountStatus(traced_run, Outcome::kServed);
  counters.Report(&report, true, served);
  report.Set("autograd.nodes_executed",
             served > 0 ? static_cast<double>(serve_nodes) / static_cast<double>(served) : 0.0,
             "count");
  std::vector<SpanRecord> spans = RecordedSpans();
  PrintSelfTimeTable(options.workload, spans, root_id, &report);

  // Same model, same schedule: the traced answers must equal the untraced
  // ones request for request, and both the direct scorer's.
  Reference untraced_reference({snapshot}, &sessions, untraced_versions);
  Reference traced_reference({snapshot}, &sessions, swapper->last_version());
  int64_t wrong =
      untraced_reference.CountWrong(untraced) + traced_reference.CountWrong(traced_run);
  for (size_t i = 0; i < traced_run.outcomes.size(); ++i) {
    const Outcome& a = traced_run.outcomes[i];
    const Outcome& b = untraced.outcomes[i];
    if (a.status == Outcome::kServed && b.status == Outcome::kServed &&
        !SameAnswer(a.response.items, b.response.items)) {
      ++wrong;
    }
  }
  report.Check(wrong == 0, std::to_string(wrong) + " wrong served answers");
  const int64_t attempted =
      static_cast<int64_t>(untraced.outcomes.size() + traced_run.outcomes.size());
  const int64_t errors = wrong + CountStatus(untraced, Outcome::kFailed) +
                         CountStatus(untraced, Outcome::kRefused) +
                         CountStatus(traced_run, Outcome::kFailed) +
                         CountStatus(traced_run, Outcome::kRefused);
  report.attempted += attempted;
  report.failed += errors;
  report.Set("err_share", static_cast<double>(errors) / static_cast<double>(attempted), "ratio");
  report.Set("trace.overhead_pct",
             100.0 * (CpuMsPerRequest(traced_run) / CpuMsPerRequest(untraced) - 1.0), "%");
  // The nominal-rate tail of the untraced phase (lat_p99_ms's end-to-end
  // meaning).
  report.Set("lat_p99_ms", SummarizeWindows(ServedLatencyMs(untraced)).tail, "ms");
  ReportServeStages(traced_run, *server, &report);
  report.Set("loadgen.repeat_share", RepeatShare(nominal), "ratio");
  report.Set("lat.samples", static_cast<double>(served), "count");
  report.Set("snapshot.capture_ms", Median(swapper->capture_ms()), "ms");
  report.Set("snapshot.swap_us", Median(swapper->swap_us()), "us");
  report.Set("serve.swaps", static_cast<double>(swapper->swap_us().size()), "count");
  ReportTrainSpans(spans, &report);
  report.Set("meta.tasks", static_cast<double>(traced->num_tasks()), "count");
  ReportEvalCases(spans, 0, serve_from, traced_eval.cases, &report);
  const ScoreSplit split = SplitScoreStage(traced_run, &spans);
  PrintScoreSplit(split);
  const TailSummary adapt = Summarize(split.adapt);
  report.Set("score.adapt_ms.p50", adapt.p50, "ms");
  report.Set("score.adapt_ms.p99", adapt.tail, "ms");
  report.Set("score.forward_ms.p50", Summarize(split.forward).p50, "ms");
  report.Set("score.rank_ms.p50", Summarize(split.rank).p50, "ms");
  report.Set("score.unattributed_ms.p50", Summarize(split.unattributed).p50, "ms");
  report.Check(split.unmatched == 0,
               std::to_string(split.unmatched) + " requests had no matching scorer span");
  WriteSpans(options, spans);
  return report;
}

Report ServeMetaDpa(const RunOptions& options) {
  Report report;
  // Set-up: data + splits + training + snapshot capture, three times: for
  // the served model, for the model the hot swaps alternate with (another
  // model seed), and once more after serving, so a slow stretch of the host
  // cannot spoil every repeat. The 1-thread Fit of each served model is timed
  // too, one before and one after serving. Each model's 4- and 1-thread evals,
  // and the repeated set-up's, must agree bit for bit.
  std::vector<double> setup_s, train_s, train_1t_s, train_cpu_s, eval_s;
  std::vector<std::unique_ptr<World>> worlds;
  std::vector<Fitted> served;
  std::vector<SnapshotPtr> snapshots;
  std::vector<EvalPass> evals;  // evals[m]: served model m at 4 threads
  auto set_up = [&](uint64_t model_seed) {
    Stopwatch timer;
    worlds.push_back(MakeWorld());
    served.push_back(
        FitMetaDpa(*worlds.back(), kTrainThreads, model_seed, kServeEffort, &report));
    snapshots.push_back(Capture(served.back().model, 1, Precision::kFp32));
    setup_s.push_back(timer.ElapsedSeconds());
    train_s.push_back(served.back().wall_s);
    train_cpu_s.push_back(served.back().cpu_s);
  };
  auto evaluate = [&](size_t world, const Fitted& fitted) {
    const EvalPass pass = Evaluate(fitted.model.get(), *worlds[world]);
    eval_s.push_back(pass.wall_s);
    return pass;
  };
  auto fit_one_thread = [&](size_t model, uint64_t model_seed) {
    const Fitted fitted = FitMetaDpa(*worlds[model], 1, model_seed, kServeEffort, &report);
    train_1t_s.push_back(fitted.wall_s);
    evals.push_back(evaluate(model, served[model]));
    CheckSameRows(evals[model], evaluate(model, fitted),
                  "served model " + std::to_string(model) + " at 4 vs 1 threads", &report);
  };
  set_up(kModelSeed);
  set_up(kSwapModelSeed);
  fit_one_thread(0, kModelSeed);

  const std::vector<Session> sessions =
      MakeSessions(worlds[0]->splits, kSessions, kCandidates, PhaseSeed(options.seed, 99));
  md::serve::ScoringServer server(snapshots[0], ServerConfigFor(Precision::kFp32, false));
  Swapper swapper(&server, {served[0].model, served[1].model});
  const ServeOutcome load = ServeLoad(&server, sessions, options.seed, options.seconds,
                                      swapper.Hook());
  server.Stop();

  // Correctness, outside the timed phases.
  Reference reference(snapshots, &sessions, swapper.last_version());
  int64_t wrong = 0;
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t nominal_errors = 0;
  int64_t served_requests = 0;
  double server_cpu_s = 0.0;
  std::vector<double> latency_ms;
  for (const PhaseRun& part : load.nominal) {
    const int64_t part_wrong = reference.CountWrong(part);
    wrong += part_wrong;
    attempted += static_cast<int64_t>(part.outcomes.size());
    nominal_errors += part_wrong + CountStatus(part, Outcome::kFailed) +
                      CountStatus(part, Outcome::kRefused);
    const std::vector<double> ms = ServedLatencyMs(part);
    latency_ms.insert(latency_ms.end(), ms.begin(), ms.end());
    served_requests += CountStatus(part, Outcome::kServed);
    server_cpu_s += part.server_cpu_s;
  }
  errors += nominal_errors;
  std::vector<RungResult> rungs;
  md::TextTable ladder;
  ladder.SetHeader({"rate/s", "sent", "refused", "failed", "p50 ms", "tail ms", "tail pct",
                    "windows met", "backlog", "meets SLO"});
  for (const PhaseRun& run : load.ladder) {
    const int64_t run_wrong = reference.CountWrong(run);
    wrong += run_wrong;
    rungs.push_back(ToRung(run, &reference));
    const RungResult& r = rungs.back();
    // Refusals above the highest passing rate are the intended backpressure
    // of an overloaded server; failures and wrong answers count everywhere.
    attempted += r.attempted;
    errors += CountStatus(run, Outcome::kFailed) + run_wrong;
    ladder.AddRow({md::TextTable::Num(r.rate, 0), std::to_string(r.attempted),
                   std::to_string(r.refused), std::to_string(r.failed),
                   md::TextTable::Num(r.latency.p50, 3), md::TextTable::Num(r.latency.tail, 3),
                   md::TextTable::Num(r.latency.tail_pct, 1),
                   std::to_string(r.windows_met) + "/" + std::to_string(r.windows),
                   r.backlog_growing ? "growing" : "steady", RungMeetsSlo(r) ? "yes" : "no"});
  }
  const double max_qps = MaxRateAtSlo(rungs);
  for (const RungResult& r : rungs) {
    if (r.rate <= max_qps) errors += r.refused;
  }
  PrintTable(options.workload + ": rate ladder (a rung meets the SLO with tail <= " +
                 md::TextTable::Num(kSloMs, 1) +
                 " ms in at least half of its windows, no refusal or failure and a steady "
                 "backlog)",
             ladder);
  report.Check(wrong == 0, std::to_string(wrong) + " wrong served answers");
  report.Check(nominal_errors == 0, std::to_string(nominal_errors) +
                                        " requests at the nominal rate failed, were refused "
                                        "or were answered wrong");
  report.Check(reference.ModelsSeen() == 2, "the hot swaps did not serve both models");
  const int64_t differing = reference.DifferingSessions();
  report.Check(differing > 0, "the two swapped models answer alike: a swap mix-up cannot show");

  fit_one_thread(1, kSwapModelSeed);
  set_up(kModelSeed);
  CheckSameRows(evals[0], evaluate(2, served[2]), "served model 0 set up again", &report);

  const TailSummary latency = Summarize(latency_ms);
  std::fprintf(stderr,
               "serve-metadpa: nominal %.0f/s: %zu latency samples in %zu parts, p99 %.3f ms, "
               "repeat share %.3f, %llu snapshot versions, models differ on %lld sessions\n",
               kNominalQps, latency.n, load.nominal.size(), latency.tail, load.repeat_share,
               static_cast<unsigned long long>(swapper.last_version()),
               static_cast<long long>(differing));
  report.attempted += attempted;
  report.failed += errors;
  report.Set("setup_s", Fastest(setup_s), "s");
  report.Print("train_s", Fastest(train_s), "s");
  report.Print("train_1t_s", Fastest(train_1t_s), "s");
  report.Set("train_cpu_s", Median(train_cpu_s), "s");
  report.Print("eval_s", Fastest(eval_s), "s");
  report.Set("hr10", evals[0].hr10, "ratio");
  report.Set("ndcg10", evals[0].ndcg10, "ratio");
  report.Print("lat_p50_ms", latency.p50, "ms");
  report.Print("max_qps_at_slo", max_qps, "1/s");
  report.Set("cpu_ms_per_req",
             served_requests > 0 ? 1e3 * server_cpu_s / static_cast<double>(served_requests)
                                 : 0.0,
             "ms");
  report.Set("ok_share",
             1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");
  return report;
}

}  // namespace

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train-books", "serve-metadpa"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  WriteManifest(options);
  const HostCpuTicks host_before = ReadHostCpuTicks();
  Report report;
  if (options.workload == "train-books") {
    report = options.trace ? TrainBooksTraced(options) : TrainBooks();
  } else {
    MDPA_CHECK(options.workload == "serve-metadpa") << "unknown workload " << options.workload;
    report = options.trace ? ServeMetaDpaTraced(options) : ServeMetaDpa(options);
  }
  if (!options.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");
  // Host noise, for reading the run's timings: the share of all CPU time
  // the hypervisor gave to other guests.
  const HostCpuTicks host_after = ReadHostCpuTicks();
  if (host_after.total > host_before.total) {
    std::fprintf(stderr, "host: %.2f%% of CPU time stolen by the hypervisor during the run\n",
                 100.0 * static_cast<double>(host_after.steal - host_before.steal) /
                     static_cast<double>(host_after.total - host_before.total));
  }
  return report;
}

}  // namespace e2ebench
