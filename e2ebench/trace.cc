#include "trace.h"

#include <atomic>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace e2ebench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
thread_local int64_t t_open = -1;

}  // namespace

void SetTracing(bool enabled) { g_enabled.store(enabled); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

bool WriteSpansJsonl(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"request\":" << s.request << ",\"thread\":" << s.thread << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) : name_(name) {
  if (!TracingEnabled()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_open;
  request_ = request;
  t_open = id_;
  start_ns_ = metadpa::obs::TraceNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  SpanRecord record;
  record.end_ns = metadpa::obs::TraceNowNs();
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  record.start_ns = start_ns_;
  record.request = request_;
  record.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  t_open = parent_;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(record));
}

}  // namespace e2ebench
