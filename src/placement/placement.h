// The vExpert abstraction and the expert-to-device mapping P (paper
// Section 3.2).
//
// Each GPU owns a fixed number of vExpert slots — the minimum schedulable
// units of expert computation. Every slot is assigned to exactly one expert;
// slots of the same expert on the same GPU are "packed" (they share weights
// and merely increase that GPU's capacity share for the expert). An
// expert's tokens are partitioned evenly across all of its vExperts.

#ifndef FLEXMOE_PLACEMENT_PLACEMENT_H_
#define FLEXMOE_PLACEMENT_PLACEMENT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "topology/topology.h"
#include "util/matrix.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Sizing parameters of a placement.
struct PlacementOptions {
  int num_experts = 64;
  int num_gpus = 64;
  /// vExpert slots per GPU; 0 selects the default granularity
  /// max(4, 2 * ceil(num_experts / num_gpus)).
  int slots_per_gpu = 0;

  int EffectiveSlotsPerGpu() const;
  Status Validate() const;
};

/// One expert's replicas: (gpu, vExpert count) pairs, ascending by gpu,
/// every count positive. A flat list rather than a std::map so that a
/// mutation allocates only when a list outgrows its capacity — steady-state
/// planning (add a host, remove it again) never touches the heap.
using ReplicaList = std::vector<std::pair<GpuId, int>>;

/// \brief The mutable expert-to-device mapping P.
class Placement {
 public:
  /// Canonical initial state: classic expert parallelism. Experts are
  /// block-distributed over GPUs and each expert's initial vExperts all
  /// live on its home GPU (fully packed).
  static Result<Placement> ExpertParallel(const PlacementOptions& options);

  /// Builds a placement from an explicit replica map (`replicas[e]`: gpu ->
  /// vExpert count, one entry per expert). `options.slots_per_gpu` must
  /// accommodate the densest GPU; every expert needs >= 1 vExpert. Used by
  /// the elastic subsystem to rebuild placements after membership changes.
  static Result<Placement> FromReplicaMap(
      const PlacementOptions& options,
      const std::vector<std::map<GpuId, int>>& replicas);

  int num_experts() const { return options_.num_experts; }
  int num_gpus() const { return options_.num_gpus; }
  int slots_per_gpu() const { return slots_per_gpu_; }
  int total_slots() const { return num_gpus() * slots_per_gpu_; }

  /// Total vExperts allocated to `expert` (n_e >= 1 always). O(1): served
  /// from the flat count cache kept in sync by the mutators.
  int VExperts(int expert) const;

  /// vExperts of `expert` on `gpu` (n_{e,g}). O(1) flat-array read — this
  /// sits in the router's innermost loop.
  int VExpertsOn(int expert, GpuId gpu) const {
    FLEXMOE_CHECK(expert >= 0 && expert < num_experts());
    FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus());
    return counts_(expert, gpu);
  }

  /// Contiguous per-GPU vExpert counts of `expert` (size num_gpus).
  const int* CountsRow(int expert) const { return counts_.row(expert); }

  /// GPUs hosting at least one vExpert of `expert`, ascending.
  std::vector<GpuId> HostGpus(int expert) const;

  /// The per-expert replica list ((gpu, vExpert count), ascending gpu).
  const ReplicaList& Replicas(int expert) const;

  /// Experts hosted on `gpu`, ascending (used for ordered synchronization).
  std::vector<int> ExpertsOn(GpuId gpu) const;

  int UsedSlots(GpuId gpu) const;
  int FreeSlots(GpuId gpu) const;

  /// Ideal per-vExpert token capacity for a batch of `total_tokens`
  /// (paper: B / (G * E)).
  double IdealVExpertCapacity(int64_t total_tokens) const;

  // --- Mutations (used by the placement primitives) ----------------------

  /// Adds one vExpert of `expert` on `gpu`. Fails if the GPU has no free
  /// slot.
  Status AddVExpert(int expert, GpuId gpu);

  /// Removes one vExpert of `expert` from `gpu`. Fails if absent or if it
  /// would leave the expert with zero vExperts.
  Status RemoveVExpert(int expert, GpuId gpu);

  /// Full invariant check: every slot bound, every expert >= 1 vExpert,
  /// per-GPU slot limits respected.
  Status Validate() const;

  std::string ToString() const;

  bool operator==(const Placement& other) const;

 private:
  Placement(const PlacementOptions& options, int slots_per_gpu);

  PlacementOptions options_;
  int slots_per_gpu_ = 0;
  /// replicas_[e]: (gpu, vExpert count), ascending (sparse source of
  /// truth).
  std::vector<ReplicaList> replicas_;
  /// Flat [expert][gpu] mirror of replicas_ for O(1) hot-path reads.
  Matrix<int> counts_;
  /// vexperts_[e]: total vExperts of expert e (mirror of row sums).
  std::vector<int> vexperts_;
  /// used_slots_[g]: bound slots on GPU g.
  std::vector<int> used_slots_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_PLACEMENT_PLACEMENT_H_
