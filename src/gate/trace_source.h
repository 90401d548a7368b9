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
/// sampling the next ones on helper threads while the caller runs the
/// system on the current one (DESIGN.md Section 6.3).
///
/// - Order: TraceGenerator::Prepare runs in step order, one thread at a
///   time (a step is claimed under the source's mutex only while no other
///   thread is preparing); the Sample half runs on whichever thread
///   prepared that step, concurrently with other steps' samples. Steps
///   are handed out in step order, so the stream is byte-identical to
///   calling TraceGenerator::Step in a loop, whichever threads made it.
/// - Demand-driven helpers: a pull whose step is not finished is starved.
///   If nobody has prepared the step yet, the pull makes it inline; either
///   way, a starved pull starts one more helper when the process has a
///   hardware thread free (util/thread_budget.h). So helpers start only at
///   pulls, never while the source is built, and their count is bounded
///   by the starved pulls and by the free cores.
/// - Depth: with n helpers, at most n + 1 steps are prepared ahead of the
///   pulls (in flight or finished); a helper waits for room beyond that.
/// - Horizon: with `horizon` >= 0 helpers stop once `horizon` steps have
///   been prepared, so they never make a step the run will not pull;
///   pulls past the horizon generate inline. < 0 means unbounded.
/// - Teardown: the destructor stops the helpers and joins them, after the
///   step each may be sampling; finished steps are dropped.
/// - Failures: an exception from a helper-side Prepare or Sample reaches
///   the caller at the pull that needed that step, and no helper prepares
///   a step after it; a helper that cannot be started leaves the pulls
///   as they were.
class GeneratorTraceSource : public TraceSource {
 public:
  explicit GeneratorTraceSource(TraceGenerator gen, int64_t horizon = -1)
      : gen_(std::move(gen)), horizon_(horizon) {}
  ~GeneratorTraceSource() override;

  GeneratorTraceSource(const GeneratorTraceSource&) = delete;
  GeneratorTraceSource& operator=(const GeneratorTraceSource&) = delete;

  std::vector<Assignment> NextStep() override;

  /// Steps the helper threads have made so far (the rest, if any, were
  /// made inline by NextStep).
  int64_t helper_steps() const;

  /// Helper threads started so far.
  int helpers_started() const;

 private:
  /// A step a helper has claimed: in flight until `done`.
  struct Slot {
    bool done = false;
    std::vector<Assignment> step;
    /// What the helper's Prepare or Sample raised; NextStep rethrows it at
    /// the pull that needed the step, as an inline Step() would have.
    std::exception_ptr failure;
  };

  /// True while a step remains to prepare within the horizon. Needs mu_.
  bool WithinHorizon() const { return horizon_ < 0 || prepared_ < horizon_; }
  /// Starts a helper if the thread budget has a core free. Needs mu_.
  void MaybeStartHelper();
  /// Runs gen_.Prepare() for the step just claimed (`preparing_` set), then
  /// clears `preparing_`, also when Prepare throws. Called without mu_.
  TraceGenerator::PreparedStep PrepareAndRelease();
  /// A helper thread's entry: claims, prepares and samples steps until
  /// stopped, then hands back its core.
  void HelperMain();

  TraceGenerator gen_;
  const int64_t horizon_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  ///< the caller waits for its step
  std::condition_variable claim_cv_;  ///< helpers wait for a turn to claim
  // Guarded by mu_.
  /// Steps [next_out_, prepared_) in step order, claimed by helpers.
  std::deque<Slot> slots_;
  int64_t prepared_ = 0;     ///< steps claimed for Prepare, by any thread
  int64_t next_out_ = 0;     ///< the step the next pull hands out
  int64_t helper_made_ = 0;  ///< steps helpers have made
  /// A thread is in gen_.Prepare(): steps are claimed and prepared one at
  /// a time, so Prepare runs in step order.
  bool preparing_ = false;
  bool stop_ = false;
  bool failed_ = false;  ///< a helper-side step raised; no more claims

  std::vector<std::thread> helpers_;  ///< last: they use every member above
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
