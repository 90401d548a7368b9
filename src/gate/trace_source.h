// TraceSource: where an experiment's per-step routing assignments come
// from. Systems only ever consume a stream of per-layer Assignments, so a
// live TraceGenerator and a replayed RoutingTrace are interchangeable —
// the replay contract (DESIGN.md Section 7) is that a recorded run and its
// replay feed byte-identical steps to the system under test.

#ifndef FLEXMOE_GATE_TRACE_SOURCE_H_
#define FLEXMOE_GATE_TRACE_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
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

/// \brief Live source: owns a TraceGenerator and streams its steps,
/// generating the next ones on a helper thread while the caller runs the
/// system on the current one (DESIGN.md Section 6.3).
///
/// - Order: the generator is driven by one thread at a time, in step
///   order — the caller inline until the helper starts, the helper until
///   it stops at the horizon, then the caller again — so the stream is
///   byte-identical to calling TraceGenerator::Step in a loop, whichever
///   thread made each step.
/// - Depth: the helper runs at most two steps ahead; it waits while two
///   finished steps are queued.
/// - Horizon: with `horizon` >= 0 the helper stops once `horizon` steps
///   have been made, so it never makes a step the run will not pull;
///   pulls past the horizon generate inline. < 0 means unbounded.
/// - Free-core budget: the helper starts at a pull only when the process
///   has a hardware thread free (util/thread_budget.h). Until then each
///   pull generates inline, and the next pull tries again.
/// - Teardown: the destructor stops the helper and joins it, after the
///   step it may be generating; queued steps are dropped.
/// - Failures: an exception from a helper-side Step() reaches the caller
///   at the pull that needed that step; a helper that cannot be started
///   leaves the pulls inline.
class GeneratorTraceSource : public TraceSource {
 public:
  explicit GeneratorTraceSource(TraceGenerator gen, int64_t horizon = -1)
      : gen_(std::move(gen)), horizon_(horizon) {}
  ~GeneratorTraceSource() override;

  GeneratorTraceSource(const GeneratorTraceSource&) = delete;
  GeneratorTraceSource& operator=(const GeneratorTraceSource&) = delete;

  std::vector<Assignment> NextStep() override;

  /// Steps the helper thread has generated so far (the rest, if any,
  /// were generated inline by NextStep).
  int64_t helper_steps() const;

 private:
  static constexpr size_t kDepth = 2;

  /// True while a step remains to generate within the horizon.
  bool WithinHorizon() const { return horizon_ < 0 || generated_ < horizon_; }
  /// Starts the helper if the thread budget has a core free.
  void MaybeStartHelper();
  /// The helper thread's entry: GenerateAhead, then hands back its core.
  void HelperMain();
  void GenerateAhead();

  TraceGenerator gen_;
  const int64_t horizon_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Guarded by mu_ while the helper runs; the caller's alone otherwise.
  std::deque<std::vector<Assignment>> ready_;
  int64_t generated_ = 0;   ///< steps made so far, by either thread
  int64_t helper_made_ = 0;  ///< of which by the helper
  bool helper_done_ = false;
  bool stop_ = false;
  /// What a helper-side Step() raised; NextStep rethrows it at the pull
  /// that needed the step, as an inline Step() would have.
  std::exception_ptr failure_;

  std::thread helper_;  ///< last: it uses every member above
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
