// Best-effort placement executor (paper Section 4, "Best-Effort
// Adjustment"): modifications run on a separate background copy stream,
// concurrently with training, and take effect at the first step boundary
// after their transfer completes. A blocking mode — execute every pending
// op synchronously before the step — models the static scheduling baseline
// of Figure 6(b).

#ifndef FLEXMOE_PLACEMENT_EXECUTOR_H_
#define FLEXMOE_PLACEMENT_EXECUTOR_H_

#include <vector>

#include "collective/engine_ops.h"
#include "elastic/cluster_health.h"
#include "placement/op_queue.h"
#include "placement/placement.h"

namespace flexmoe {

/// \brief Executor configuration.
struct ExecutorOptions {
  /// Synchronous mode: apply everything immediately, charging the transfer
  /// time to the training step.
  bool blocking = false;
};

/// \brief Applies queued placement modifications to the live placement.
class PlacementExecutor {
 public:
  PlacementExecutor(const ExecutorOptions& options,
                    const HardwareProfile* profile,
                    double expert_state_bytes);

  /// Queues scheduler-produced ops (already in dependency order:
  /// shrinks before the expands that reuse their slots).
  void Enqueue(const std::vector<ModOp>& ops);

  /// Drops pending (not yet launched) ops; used when the scheduler
  /// re-plans from scratch after a workload shift.
  void ClearPending();

  /// Drops in-flight transfers with `gpu` as an endpoint — they died with
  /// the device. Call together with ClearPending when a device departs.
  /// Returns the number of transfers dropped.
  int DropOpsInvolving(GpuId gpu);

  struct TickResult {
    int ops_applied = 0;      ///< ops that took effect on `live` this tick
    int ops_launched = 0;     ///< transfers started this tick
    int ops_dropped = 0;      ///< ops invalidated by placement drift
    double blocking_seconds = 0.0;  ///< only in blocking mode
  };

  /// Step-boundary hook: applies completed transfers to `live`, then (best
  /// effort) launches the next batch if the involved background streams are
  /// idle. In blocking mode everything executes and applies now. With
  /// `health` set, stale-source fixups never pick a dead device (its state
  /// is lost) — such ops are dropped instead.
  TickResult OnStepBoundary(double now, ClusterState* cluster,
                            Placement* live,
                            const ClusterHealth* health = nullptr);

  size_t pending_ops() const { return queue_.size(); }
  size_t in_flight_ops() const { return in_flight_.size(); }

 private:
  struct InFlight {
    ModOp op;
    double finish_time = 0.0;
    int retries_left = 0;
  };

  /// Applies an op to the live placement, fixing up stale expand sources;
  /// returns false if the op is no longer applicable.
  bool ApplyToLive(const ModOp& op, Placement* live,
                   const ClusterHealth* health);

  ExecutorOptions options_;
  const HardwareProfile* profile_;
  double expert_state_bytes_;
  ModificationQueue queue_;
  std::vector<InFlight> in_flight_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_PLACEMENT_EXECUTOR_H_
