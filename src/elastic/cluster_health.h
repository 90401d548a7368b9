// ClusterHealth: the dynamic-membership view layered over the static
// Topology/ClusterState. The topology enumerates every device slot the
// cluster could have; ClusterHealth tracks which of them are currently
// alive, which are degraded (stragglers), and which are gone — and versions
// those facts so schedulers and controllers can react to capacity changes
// without polling every device each step.

#ifndef FLEXMOE_ELASTIC_CLUSTER_HEALTH_H_
#define FLEXMOE_ELASTIC_CLUSTER_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "elastic/fault_plan.h"
#include "topology/topology.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Health state of one device.
enum class DeviceState {
  kHealthy,
  kDegraded,  ///< alive but slowed (straggler)
  kFailed,    ///< fail-stopped; resident state lost
  kLeft,      ///< departed gracefully (drained first)
};

/// \brief Mutable per-device health registry.
class ClusterHealth {
 public:
  explicit ClusterHealth(int num_gpus);

  int num_gpus() const { return static_cast<int>(states_.size()); }
  DeviceState state(GpuId g) const;

  /// Healthy or degraded — the device participates in training.
  bool alive(GpuId g) const;
  int num_alive() const;
  std::vector<GpuId> AliveGpus() const;
  bool AllHealthy() const;
  bool AnyDead() const { return num_alive() < num_gpus(); }
  bool AnyDegraded() const;

  /// Execution-time multipliers (1.0 for healthy devices, >= 1 otherwise).
  double compute_multiplier(GpuId g) const;
  double bandwidth_multiplier(GpuId g) const;

  /// Bumped on every state change (including slowdown/recover).
  int64_t version() const { return version_; }
  /// Bumped only on alive <-> dead edges (fail-stop, leave, join).
  int64_t membership_version() const { return membership_version_; }

  /// Applies one event. Impossible transitions (failing a dead GPU,
  /// recovering a healthy one) return FailedPrecondition and change
  /// nothing.
  Status Apply(const FaultEvent& event);

 private:
  std::vector<DeviceState> states_;
  std::vector<double> compute_mult_;
  std::vector<double> bandwidth_mult_;
  int64_t version_ = 0;
  int64_t membership_version_ = 0;
};

}  // namespace flexmoe

#endif  // FLEXMOE_ELASTIC_CLUSTER_HEALTH_H_
