// TraceSource: where an experiment's per-step routing assignments come
// from. Systems only ever consume a stream of per-layer Assignments, so a
// live TraceGenerator and a replayed RoutingTrace are interchangeable —
// the replay contract (DESIGN.md Section 7) is that a recorded run and its
// replay feed byte-identical steps to the system under test.

#ifndef FLEXMOE_GATE_TRACE_SOURCE_H_
#define FLEXMOE_GATE_TRACE_SOURCE_H_

#include <memory>
#include <vector>

#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "moe/moe_layer.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Abstract stream of per-step, per-layer routing assignments.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The next step's per-layer assignments. Requires StepsRemaining() != 0.
  virtual std::vector<Assignment> NextStep() = 0;

  /// Steps this source can still produce; < 0 means unbounded.
  virtual int64_t StepsRemaining() const { return -1; }
};

/// \brief Live source: owns a TraceGenerator and streams its steps.
class GeneratorTraceSource : public TraceSource {
 public:
  explicit GeneratorTraceSource(TraceGenerator gen) : gen_(std::move(gen)) {}

  std::vector<Assignment> NextStep() override { return gen_.Step(); }

  const TraceGenerator& generator() const { return gen_; }

 private:
  TraceGenerator gen_;
};

/// \brief Replay source: streams the steps of a recorded RoutingTrace.
class ReplayTraceSource : public TraceSource {
 public:
  explicit ReplayTraceSource(RoutingTrace trace) : trace_(std::move(trace)) {}

  std::vector<Assignment> NextStep() override;
  int64_t StepsRemaining() const override {
    return trace_.num_steps() - cursor_;
  }

  const RoutingTrace& trace() const { return trace_; }

 private:
  RoutingTrace trace_;
  int64_t cursor_ = 0;
};

/// \brief Decorator that appends every step it hands out to `sink` (not
/// owned; must outlive the source). Used by the harness's record mode.
class RecordingTraceSource : public TraceSource {
 public:
  RecordingTraceSource(std::unique_ptr<TraceSource> inner, RoutingTrace* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::vector<Assignment> NextStep() override;
  int64_t StepsRemaining() const override {
    return inner_->StepsRemaining();
  }

 private:
  std::unique_ptr<TraceSource> inner_;
  RoutingTrace* sink_;
};

/// \brief FNV-1a hash of one step's assignments, chained from `h`. Seed
/// the chain with kTraceHashSeed; identical streams hash identically, so
/// live-vs-replay and record-vs-golden comparisons are one integer.
constexpr uint64_t kTraceHashSeed = 1469598103934665603ULL;
uint64_t HashStep(const std::vector<Assignment>& step, uint64_t h);

/// \brief FNV-1a of one 64-bit word — its eight bytes, least significant
/// first — chained from `h`. HashStep hashes every count as one word.
uint64_t HashWord(uint64_t v, uint64_t h);

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_TRACE_SOURCE_H_
