#include "loadgen.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <future>
#include <thread>
#include <unordered_set>

#include "obs/obs.h"
#include "util/rng.h"

namespace e2ebench {
namespace md = metadpa;
namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Sleeps most of the way to `due_ns` and spins the rest: a plain sleep would
// add the kernel's wakeup latency to every request's lateness.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 150'000;
  for (;;) {
    const int64_t left = due_ns - md::obs::TraceNowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostCpuTicks ReadHostCpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string label;
  HostCpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::vector<Session> MakeSessions(const md::data::DatasetSplits& splits, size_t count,
                                  int candidates, uint64_t seed) {
  md::Rng rng(seed);
  const md::data::ScenarioData& cold = splits.ForScenario(md::data::Scenario::kColdUser);
  const std::vector<int64_t>& pool = splits.CandidateItems(md::data::Scenario::kColdUser);
  // A cold user's observed positives: the scenario support plus the held-out
  // item (the benchmark is not scoring the held-out protocol here).
  std::vector<std::pair<int64_t, std::vector<int64_t>>> users;
  for (const md::data::EvalCase& c : cold.cases) {
    std::vector<int64_t> known = c.support_items;
    known.push_back(c.test_positive);
    if (known.size() >= 2) users.emplace_back(c.user, std::move(known));
  }
  MDPA_CHECK(!users.empty()) << "no cold user has two observed positives";
  std::vector<Session> sessions(count);
  for (Session& session : sessions) {
    const auto& [user, known] = users[rng.UniformInt(users.size())];
    session.user = user;
    const size_t want = 2 + rng.UniformInt(3);
    for (size_t i : rng.SampleWithoutReplacement(known.size(), std::min(want, known.size()))) {
      session.support.push_back(known[i]);
    }
    std::unordered_set<int64_t> excluded(session.support.begin(), session.support.end());
    std::vector<size_t> order = rng.SampleWithoutReplacement(pool.size(), pool.size());
    for (size_t i : order) {
      if (static_cast<int>(session.candidates.size()) == candidates) break;
      if (excluded.count(pool[i]) == 0) session.candidates.push_back(pool[i]);
    }
  }
  return sessions;
}

Schedule MakeSchedule(double rate, double seconds, size_t pool_size, double zipf_s,
                      uint64_t seed) {
  md::Rng rng(seed);
  std::vector<double> cdf(pool_size);
  double total = 0.0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf[r] = total;
  }
  Schedule schedule;
  schedule.rate = rate;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    const double u = rng.Uniform() * total;
    const size_t r = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                         cdf.begin());
    schedule.due_ns.push_back(static_cast<int64_t>(t * 1e9));
    schedule.session.push_back(static_cast<int32_t>(std::min(r, pool_size - 1)));
  }
  return schedule;
}

double RepeatShare(const Schedule& schedule) {
  if (schedule.session.empty()) return 0.0;
  std::unordered_set<int32_t> seen;
  size_t repeats = 0;
  for (int32_t s : schedule.session) {
    if (!seen.insert(s).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(schedule.session.size());
}

PhaseRun RunPhase(md::serve::ScoringServer* server, const std::vector<Session>& sessions,
                  const Schedule& schedule, int k, const std::function<void()>& tick) {
  const size_t n = schedule.due_ns.size();
  PhaseRun run;
  run.rate = schedule.rate;
  run.outcomes.resize(n);
  std::vector<std::future<md::serve::ScoreResponse>> futures(n);
  std::vector<int64_t> submitted_at(n, 0);
  std::atomic<size_t> published{0};
  std::atomic<double> collector_cpu{0.0};
  int64_t last_ready = 0;

  // Exact sleeps for the submitting thread; restored after the phase.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const double cpu_start = ProcessCpuSeconds();
  const double submit_cpu_start = ThreadCpuSeconds();
  const int64_t t0 = md::obs::TraceNowNs() + 2'000'000;

  std::thread collector([&] {
    const double start = ThreadCpuSeconds();
    double tick_cpu = 0.0;
    for (size_t i = 0; i < n; ++i) {
      size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      Outcome& outcome = run.outcomes[i];
      if (outcome.status != Outcome::kServed) continue;
      outcome.response = futures[i].get();
      const int64_t observed = md::obs::TraceNowNs();
      // total_ms runs from admission (inside Submit) to the response being
      // ready; Submit's return bounds admission from above, the collector's
      // own observation bounds readiness from above.
      const int64_t ready = std::min(
          observed, submitted_at[i] + static_cast<int64_t>(outcome.response.total_ms * 1e6));
      outcome.latency_ns = ready - (t0 + schedule.due_ns[i]);
      last_ready = std::max(last_ready, ready);
      // The top-k keeps the capacity of every candidate it ranked. Kept for
      // the checks, that would grow the process by ~1.6 KB per request and
      // make peak RSS follow how many requests a run sent.
      outcome.response.items.shrink_to_fit();
      if (tick) {
        const double before = ThreadCpuSeconds();
        tick();
        tick_cpu += ThreadCpuSeconds() - before;
      }
    }
    // Work done by `tick` is server-side work: it stays in server CPU.
    collector_cpu.store(ThreadCpuSeconds() - start - tick_cpu);
  });

  int64_t next_sample = t0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + schedule.due_ns[i];
    WaitUntil(due);
    const Session& session = sessions[static_cast<size_t>(schedule.session[i])];
    md::serve::ScoreRequest request;
    request.user = session.user;
    request.candidates = session.candidates;
    request.support_items = session.support;
    request.k = k;
    Outcome& outcome = run.outcomes[i];
    outcome.session = schedule.session[i];
    const int64_t start = md::obs::TraceNowNs();
    md::Result<std::future<md::serve::ScoreResponse>> admitted =
        server->Submit(std::move(request));
    const int64_t end = md::obs::TraceNowNs();
    outcome.late_ns = start - due;
    outcome.submit_ns = end - start;
    submitted_at[i] = end;
    if (admitted.ok()) {
      futures[i] = std::move(admitted.ValueOrDie());
      outcome.status = Outcome::kServed;
    } else {
      outcome.status = admitted.status().code() == md::StatusCode::kFailedPrecondition
                           ? Outcome::kRefused
                           : Outcome::kFailed;
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
    if (end >= next_sample) {
      run.backlog.push_back(static_cast<double>(server->GetStats().queue_depth));
      next_sample = end + 5'000'000;
    }
  }
  const double submit_cpu = ThreadCpuSeconds() - submit_cpu_start;
  collector.join();
  run.server_cpu_s = ProcessCpuSeconds() - cpu_start - submit_cpu - collector_cpu.load();
  run.wall_s = 1e-9 * static_cast<double>(std::max(last_ready, t0) - t0);
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);
  return run;
}

}  // namespace e2ebench
