// FaultScheduler: walks a FaultPlan during a run and applies due events to
// a ClusterHealth. Delivery is step-driven: training systems call
// AdvanceTo(step) at each step boundary (membership changes in real
// clusters surface between steps: a NCCL error, a lost heartbeat, an
// elastic-agent rendezvous).
//
// Events whose precondition no longer holds (e.g. a random plan's Recover
// for a GPU that a later fail-stop took down) are skipped and counted, not
// fatal — mirroring real fault handlers, which must tolerate stale alerts.

#ifndef FLEXMOE_ELASTIC_FAULT_SCHEDULER_H_
#define FLEXMOE_ELASTIC_FAULT_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "elastic/cluster_health.h"
#include "elastic/fault_plan.h"

namespace flexmoe {

/// \brief Applies a FaultPlan's events as a run progresses.
class FaultScheduler {
 public:
  explicit FaultScheduler(FaultPlan plan);

  /// Applies every not-yet-fired event with event.step <= step to `health`
  /// (in plan order) and returns the successfully applied ones. Skipped
  /// (stale) events are dropped and counted in skipped_events().
  std::vector<FaultEvent> AdvanceTo(int64_t step, ClusterHealth* health);

  bool done() const { return next_ >= plan_.events().size(); }
  size_t remaining() const { return plan_.events().size() - next_; }
  int64_t skipped_events() const { return skipped_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  size_t next_ = 0;
  int64_t skipped_ = 0;
};

}  // namespace flexmoe

#endif  // FLEXMOE_ELASTIC_FAULT_SCHEDULER_H_
