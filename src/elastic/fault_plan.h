// Fault plans: deterministic schedules of cluster-membership and
// performance events (GPU fail-stop, transient slowdown, recovery, node
// join/leave) injected into a training run. A plan is either authored
// explicitly, derived from a named scenario, or generated pseudo-randomly
// from a seed via util/rng — in every case the resulting event sequence is
// a pure function of its inputs, so runs replay bit-for-bit.

#ifndef FLEXMOE_ELASTIC_FAULT_PLAN_H_
#define FLEXMOE_ELASTIC_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Kinds of injected cluster events.
enum class FaultType {
  kFailStop,  ///< GPU dies abruptly; resident tokens and states are lost
  kSlowdown,  ///< GPU becomes a straggler (compute/bandwidth multipliers)
  kRecover,   ///< straggler returns to full speed
  kLeave,     ///< GPU leaves gracefully (drained, nothing lost)
  kJoin,      ///< a failed/left GPU rejoins with empty memory
};

/// \brief One timed cluster event. Events fire at the boundary *before*
/// the step they are stamped with executes.
struct FaultEvent {
  int64_t step = 0;
  FaultType type = FaultType::kFailStop;
  GpuId gpu = -1;

  /// kSlowdown only: execution-time multipliers (>= 1; 2.0 = half speed).
  double compute_multiplier = 1.0;
  double bandwidth_multiplier = 1.0;

  bool operator==(const FaultEvent& o) const;
};

/// \brief Parameters for scenario-based / random plan generation.
struct FaultPlanOptions {
  /// "none" | "failstop" | "straggler" | "churn" | "random".
  std::string scenario = "none";
  /// Must be set before Generate; 0 means "inherit" for harness callers
  /// (ResolveFaultOptions fills it from the experiment — same for seed).
  int num_gpus = 0;
  uint64_t seed = 0;

  /// Scenario event timing. `fault_step` is when the primary event fires;
  /// `recover_step` (straggler recovery / churn rejoin) < 0 means never.
  int64_t fault_step = 30;
  int64_t recover_step = -1;
  /// Target GPU; < 0 picks one deterministically from the seed.
  GpuId gpu = -1;

  /// Straggler severity.
  double compute_multiplier = 2.5;
  double bandwidth_multiplier = 2.0;

  /// "random" scenario: Bernoulli event draws per step over the horizon.
  int64_t horizon_steps = 200;
  double fail_rate_per_step = 0.002;
  double straggle_rate_per_step = 0.004;
  int64_t mean_outage_steps = 40;
  int64_t mean_straggle_steps = 25;

  Status Validate() const;
};

/// \brief An immutable, step-ordered schedule of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Stable-sorts `events` by step (relative order within a step is kept).
  static FaultPlan FromEvents(std::vector<FaultEvent> events);

  /// Builds the plan for a named scenario; "none" yields an empty plan.
  /// "random" draws events with the options' rates from an Rng stream
  /// seeded by `options.seed` (deterministic).
  static Result<FaultPlan> Generate(const FaultPlanOptions& options);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  explicit FaultPlan(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  std::vector<FaultEvent> events_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_ELASTIC_FAULT_PLAN_H_
