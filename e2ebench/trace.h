// The benchmark's own span recorder. Spans are opened by the benchmark's code
// around each public library call it makes (never inside the library), kept
// in memory, and written out as JSON lines when the run ends. Timestamps are
// obs::TraceNowNs() readings, the clock serve::ScoringServer stamps its
// RequestTraces with, so request stages and scorer spans line up.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace e2ebench {

/// \brief Turns span recording on or off (off: ScopedSpan records nothing).
void SetTracing(bool enabled);
bool TracingEnabled();

/// \brief Copies of every span recorded so far, in completion order.
std::vector<SpanRecord> RecordedSpans();

/// \brief Writes `spans` as one JSON object per line.
bool WriteSpansJsonl(const std::string& path, const std::vector<SpanRecord>& spans);

/// \brief RAII span. Its parent is the innermost open ScopedSpan on the same
/// thread (-1 at a thread's top level). `name` must outlive the run (string
/// literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// \brief This span's id (-1 when tracing is off).
  int64_t id() const { return id_; }

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t request_ = -1;
  int64_t start_ns_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
