#include "obs/trace.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace flexmoe {
namespace obs {

namespace {

/// Microsecond timestamp rendering: fixed 3 decimals gives nanosecond
/// resolution on the sim clock, and fixed-format printf of a double is
/// deterministic for a given binary.
void AppendMicros(std::string* out, double seconds) {
  out->append(StrFormat("%.3f", seconds * 1e6));
}

void AppendArg(std::string* out, const char* key, double value, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  // %.9g round-trips every integer-valued arg up to 2^30 exactly and keeps
  // fractional args readable; fixed-format, so deterministic per binary.
  out->append(StrFormat("\"%s\":%.9g", key, value));
}

void AppendMetaEvent(std::string* out, const char* meta, int tid,
                     const std::string& name, bool* first_event) {
  if (!*first_event) out->push_back(',');
  *first_event = false;
  out->append(StrFormat(
      "\n{\"name\":\"%s\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
      "\"args\":{\"name\":\"%s\"}}",
      meta, tid, name.c_str()));
}

std::string LaneName(int tid) {
  switch (tid) {
    case kControlLane:
      return "control";
    case kPolicyLane:
      return "policy";
    case kServingLane:
      return "serving";
    default:
      return StrFormat("gpu%d", tid);
  }
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void Tracer::Push(const TraceEvent& event) {
  // The ring's first block is reserved by the first event, not by the
  // constructor: a disabled handle builds a tracer it never records into.
  if (ring_.capacity() == 0) {
    ring_.reserve(std::min(capacity_, size_t{1} << 16));
  }
  if (size_ < capacity_) {
    if (ring_.size() < capacity_ && ring_.size() == head_ + size_) {
      ring_.push_back(event);
    } else {
      ring_[(head_ + size_) % capacity_] = event;
    }
    ++size_;
    return;
  }
  // Full: overwrite the oldest (the most recent window is the useful one
  // when debugging the end of a long run).
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

const TraceEvent& Tracer::at(size_t i) const {
  FLEXMOE_CHECK(i < size_);
  return ring_[(head_ + i) % capacity_];
}

void Tracer::Span(const char* name, const char* category, int tid,
                  double start, double end) {
  Span(name, category, tid, start, end, nullptr, 0.0, nullptr, 0.0);
}

void Tracer::Span(const char* name, const char* category, int tid,
                  double start, double end, const char* key0, double val0) {
  Span(name, category, tid, start, end, key0, val0, nullptr, 0.0);
}

void Tracer::Span(const char* name, const char* category, int tid,
                  double start, double end, const char* key0, double val0,
                  const char* key1, double val1) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.tid = tid;
  e.ts_seconds = start;
  e.dur_seconds = std::max(0.0, end - start);
  e.arg_key0 = key0;
  e.arg_val0 = val0;
  e.arg_key1 = key1;
  e.arg_val1 = val1;
  Push(e);
}

void Tracer::Instant(const char* name, const char* category, int tid,
                     double ts) {
  Instant(name, category, tid, ts, nullptr, 0.0);
}

void Tracer::Instant(const char* name, const char* category, int tid,
                     double ts, const char* key0, double val0) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.tid = tid;
  e.ts_seconds = ts;
  e.arg_key0 = key0;
  e.arg_val0 = val0;
  Push(e);
}

void Tracer::Counter(const char* name, int tid, double ts, const char* key,
                     double value) {
  TraceEvent e;
  e.name = name;
  e.category = "counter";
  e.phase = 'C';
  e.tid = tid;
  e.ts_seconds = ts;
  e.arg_key0 = key;
  e.arg_val0 = value;
  Push(e);
}

std::string Tracer::ToChromeJson() const {
  std::string out;
  out.reserve(128 + size_ * 96);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first_event = true;

  // Lane metadata: process name once, a thread name per lane seen (plus
  // every GPU lane up front, so an idle GPU still renders as a track).
  AppendMetaEvent(&out, "process_name", 0, "flexmoe-sim", &first_event);
  std::set<int> lanes;
  for (int g = 0; g < num_gpus_; ++g) lanes.insert(g);
  for (size_t i = 0; i < size_; ++i) lanes.insert(at(i).tid);
  for (const int tid : lanes) {
    AppendMetaEvent(&out, "thread_name", tid, LaneName(tid), &first_event);
  }

  for (size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = at(i);
    if (!first_event) out.push_back(',');
    first_event = false;
    out.append(StrFormat("\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                         "\"pid\":0,\"tid\":%d,\"ts\":",
                         e.name, e.category, e.phase, e.tid));
    AppendMicros(&out, e.ts_seconds);
    if (e.phase == 'X') {
      out.append(",\"dur\":");
      AppendMicros(&out, e.dur_seconds);
    }
    if (e.phase == 'i') out.append(",\"s\":\"t\"");
    out.append(",\"args\":{");
    bool first_arg = true;
    if (e.arg_key0 != nullptr) AppendArg(&out, e.arg_key0, e.arg_val0,
                                         &first_arg);
    if (e.arg_key1 != nullptr) AppendArg(&out, e.arg_key1, e.arg_val1,
                                         &first_arg);
    out.append("}}");
  }
  out.append(StrFormat("\n],\"otherData\":{\"dropped_events\":%llu}}\n",
                       static_cast<unsigned long long>(dropped_)));
  return out;
}

}  // namespace obs
}  // namespace flexmoe
