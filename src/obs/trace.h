// Span tracer: sim-time-keyed events recorded into a per-run ring buffer
// and exported as Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Design constraints (DESIGN.md Section 9):
//  * RECORDING IS ALLOCATION-FREE — an event is a POD struct of literal
//    string pointers and numeric fields; names and categories MUST be
//    string literals (the tracer stores the pointer, not a copy). The
//    first event reserves the ring (up to 64 Ki events), so a tracer that
//    never records, like a disabled handle's, never allocates it.
//  * DETERMINISM — timestamps are the simulator's virtual seconds, passed
//    in by the caller (executors already compute them); no clock is read,
//    so the export is a pure function of the simulated run.
//  * BOUNDED — the ring keeps the most recent `capacity` events and counts
//    what it overwrote; a drop is deterministic because recording order is.
//
// Lane (tid) scheme: 0..num_gpus-1 are per-GPU lanes (dispatch A2A, expert
// compute, combine, sync, recovery, recirculation); the named lanes below
// carry cross-cutting activity.

#ifndef FLEXMOE_OBS_TRACE_H_
#define FLEXMOE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace flexmoe {
namespace obs {

/// Non-GPU trace lanes (kept far above any plausible GPU count).
inline constexpr int kControlLane = 10000;  ///< step/phase structure, faults
inline constexpr int kPolicyLane = 10001;   ///< scheduler + policy maker
inline constexpr int kServingLane = 10002;  ///< ServeExecutor batching

/// \brief One recorded event. POD: literal strings + numbers, no owned
/// memory. `phase` follows the Chrome trace-event phases this tracer
/// emits: 'X' (complete span), 'i' (instant), 'C' (counter).
struct TraceEvent {
  const char* name = "";
  const char* category = "";
  char phase = 'X';
  int tid = kControlLane;
  double ts_seconds = 0.0;   ///< sim virtual time
  double dur_seconds = 0.0;  ///< 'X' only
  /// Up to two numeric args; a nullptr key terminates the list.
  const char* arg_key0 = nullptr;
  double arg_val0 = 0.0;
  const char* arg_key1 = nullptr;
  double arg_val1 = 0.0;
};

/// \brief Ring-buffered span tracer.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 20;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  /// GPU-lane count for the exported thread-name metadata (0 = none).
  void set_num_gpus(int num_gpus) { num_gpus_ = num_gpus; }
  int num_gpus() const { return num_gpus_; }

  /// Records a complete span [start, end] on `tid`. `name`/`category` and
  /// arg keys must be string literals. Spans with end < start are clamped
  /// to zero duration rather than rejected (collective phases can be
  /// empty).
  void Span(const char* name, const char* category, int tid, double start,
            double end);
  void Span(const char* name, const char* category, int tid, double start,
            double end, const char* key0, double val0);
  void Span(const char* name, const char* category, int tid, double start,
            double end, const char* key0, double val0, const char* key1,
            double val1);

  /// Records an instant event at `ts`.
  void Instant(const char* name, const char* category, int tid, double ts);
  void Instant(const char* name, const char* category, int tid, double ts,
               const char* key0, double val0);

  /// Records a counter sample (rendered as a track in chrome://tracing).
  void Counter(const char* name, int tid, double ts, const char* key,
               double value);

  /// Events currently held (<= capacity).
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  /// Events overwritten by the ring since construction.
  uint64_t dropped() const { return dropped_; }

  /// The i-th oldest held event (0 <= i < size()).
  const TraceEvent& at(size_t i) const;

  /// \brief Chrome trace-event JSON: {"displayTimeUnit":"ms",
  /// "traceEvents":[...]} with process/thread-name metadata for every lane
  /// seen, then the held events oldest-first. Timestamps are sim seconds
  /// scaled to microseconds.
  std::string ToChromeJson() const;

 private:
  void Push(const TraceEvent& event);

  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  ///< index of the oldest event
  size_t size_ = 0;
  uint64_t dropped_ = 0;
  int num_gpus_ = 0;
};

}  // namespace obs
}  // namespace flexmoe

#endif  // FLEXMOE_OBS_TRACE_H_
