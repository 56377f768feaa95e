// The benchmark's open-loop load generator.
//
// serve::RunLoadgen is closed-loop: each client submits its next request only
// after the previous one returns, and it times a request from Submit. A
// server stall therefore slows the clients down instead of piling requests
// up, and the requests that would have queued behind the stall never exist.
// This generator instead fixes an arrival schedule up front (Poisson, seeded)
// and times every request from its DUE time, so a stall counts against every
// request scheduled behind it, and it reports how late it submitted.
//
// Threads: the calling thread submits on schedule; one collector thread waits
// on the futures in submission order. Both threads' CPU time is measured so
// it can be subtracted from process CPU (server CPU per request).
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/splits.h"
#include "serve/server.h"

namespace e2ebench {

/// \brief One cold-user session: what a page view asks the server for.
struct Session {
  int64_t user = -1;
  std::vector<int64_t> support;     ///< 2-4 observed positives
  std::vector<int64_t> candidates;  ///< items to rank (support excluded)
};

/// \brief `count` sessions over the cold users of the C-U scenario: each
/// takes 2-4 of its user's observed positives as support and `candidates`
/// items drawn from the scenario's candidate pool.
std::vector<Session> MakeSessions(const metadpa::data::DatasetSplits& splits, size_t count,
                                  int candidates, uint64_t seed);

/// \brief A seeded arrival schedule: Poisson arrivals at `rate` per second for
/// `seconds`, each naming a session drawn with Zipf(`zipf_s`) popularity over
/// the pool (rank 0 most popular).
struct Schedule {
  double rate = 0.0;
  std::vector<int64_t> due_ns;     ///< offsets from the phase start
  std::vector<int32_t> session;
};
Schedule MakeSchedule(double rate, double seconds, size_t pool_size, double zipf_s,
                      uint64_t seed);

/// \brief Share of a schedule's requests whose session already appeared
/// earlier in the same schedule.
double RepeatShare(const Schedule& schedule);

/// \brief What happened to one scheduled request.
struct Outcome {
  enum Status : uint8_t { kServed, kRefused, kFailed };
  Status status = kFailed;
  int32_t session = -1;
  int64_t late_ns = 0;     ///< submit start - due
  int64_t submit_ns = 0;   ///< duration of the Submit call
  int64_t latency_ns = 0;  ///< due -> response ready (served only)
  metadpa::serve::ScoreResponse response;
};

/// \brief One executed phase.
struct PhaseRun {
  double rate = 0.0;
  std::vector<Outcome> outcomes;
  std::vector<double> backlog;  ///< queued requests, sampled every ~5 ms
  double wall_s = 0.0;          ///< phase start -> last response
  double server_cpu_s = 0.0;    ///< process CPU minus generator + collector
};

/// \brief Runs `schedule` against `server` (which must outlive the call) and
/// returns after every admitted request has been answered. `tick`, when set,
/// runs on the collector thread after each collected response (the hot-swap
/// hook: the collector only waits, and a response's readiness is taken from
/// the server's own clock, so work done there delays no measurement). Its CPU
/// time counts as server CPU.
PhaseRun RunPhase(metadpa::serve::ScoringServer* server, const std::vector<Session>& sessions,
                  const Schedule& schedule, int k, const std::function<void()>& tick = {});

/// \brief Process CPU seconds (all threads) and calling-thread CPU seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// \brief Process high-water resident set size in MB.
double PeakRssMb();

/// \brief The host's CPU time counters (all CPUs, from /proc/stat): ticks
/// stolen by the hypervisor and all ticks. Zero when unreadable.
struct HostCpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpuTicks ReadHostCpuTicks();

}  // namespace e2ebench

#endif  // E2EBENCH_LOADGEN_H_
