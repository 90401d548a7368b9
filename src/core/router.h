// Flexible token routing (paper Algorithm 3).
//
// Given the gate's assignment I (tokens per expert per source GPU) and the
// current placement P, decide which replica processes each token:
//   1. capacity per vExpert of expert e is cap_e = ceil(I_e / n_e) — even
//      partitioning across the expert's vExperts (Section 3.2);
//   2. locality first: tokens stay on their source GPU up to the local
//      replica quota (cap_e x n_{e,g});
//   3. the remainder spills to other replicas proportionally to their
//      remaining available capacity.
// Routing never drops or invents tokens (token conservation is property-
// tested in router_test.cc).

#ifndef FLEXMOE_CORE_ROUTER_H_
#define FLEXMOE_CORE_ROUTER_H_

#include <cstdint>
#include <vector>

#include "moe/moe_layer.h"
#include "placement/placement.h"
#include "util/matrix.h"

namespace flexmoe {

/// \brief One cell of an expert's routing contribution: `take` of the
/// expert's tokens move from source GPU `src` to compute GPU `dst` (src ==
/// dst for a local claim). int32 ids keep a recorded contribution compact.
struct RouteEntry {
  int32_t dst = 0;
  int32_t src = 0;
  int64_t take = 0;
};

/// \brief The routing outcome for one MoE layer at one step.
struct RoutedAssignment {
  int num_experts = 0;
  int num_gpus = 0;

  /// expert_gpu_tokens[e][g]: tokens of expert e computed on GPU g.
  Matrix<int64_t> expert_gpu_tokens;

  /// dispatch_to[dst][src]: tokens moved from source GPU src to compute
  /// GPU dst (src == dst entries are device-local). Stored destination-
  /// major because both hot loops walk a fixed destination across all
  /// sources: the router's spill writes (every spilling source sends to
  /// one of the expert's few hosts) and Eq. 8's inbound fold. Source-major
  /// storage made each of those a G-stride scatter — at G = 512 one fresh
  /// cacheline+TLB line per source, the dominant cost of a re-route.
  Matrix<int64_t> dispatch_to;

  /// Convenience accessors in (src, dst) order.
  int64_t dispatch(GpuId src, GpuId dst) const { return dispatch_to(dst, src); }
  int64_t& dispatch(GpuId src, GpuId dst) { return dispatch_to(dst, src); }

  /// Sizes the matrices for an (experts x gpus) routing and zeroes them,
  /// reusing their allocations.
  void Clear(int experts, int gpus);

  /// Adds (`sign` = +1) or retracts (`sign` = -1) one expert's recorded
  /// contribution (FlexibleRouter::RouteExpertInto). Integer adds only,
  /// so a retraction cancels its addition exactly.
  void AddEntries(int expert, const RouteEntry* begin, const RouteEntry* end,
                  int sign);

  /// Tokens of expert computation landing on each GPU.
  std::vector<int64_t> PerGpuComputeTokens() const;
  void PerGpuComputeTokensInto(std::vector<int64_t>* out) const;
  std::vector<double> PerGpuComputeLoads() const;

  /// Total routed tokens (== I.Total() for lossless routing).
  int64_t Total() const;

  /// Tokens that crossed GPUs (dispatch off-diagonal mass).
  int64_t CrossGpuTokens() const;
};

/// \brief Stateless implementation of Algorithm 3.
class FlexibleRouter {
 public:
  /// Routes `assignment` under `placement`. Requires matching shapes.
  static RoutedAssignment Route(const Assignment& assignment,
                                const Placement& placement);

  /// Routes into caller-owned scratch, reusing its matrix allocations —
  /// the allocation-free steady-state form of Route (scratch-ownership
  /// rules: DESIGN.md "Performance architecture").
  static void RouteInto(const Assignment& assignment,
                        const Placement& placement, RoutedAssignment* out);

  /// Routes expert `expert` alone under `placement`: adds its cells into
  /// `out` (sized by a Route or RoutedAssignment::Clear) and appends them
  /// to `entries`. Each expert routes independently of the others (its
  /// quota/avail/spill state is per-expert), and its cells are a pure
  /// function of its assignment row and placement count row, so
  ///   Route(A, P')  ==  Route(A, P)
  ///                     - cells of changed experts under P
  ///                     + cells of changed experts under P'
  /// holds EXACTLY (integer arithmetic, RoutedAssignment::AddEntries).
  /// LayerCostState records every expert's cells once and memoizes new
  /// ones, so its candidate search never repeats a routing walk.
  static void RouteExpertInto(const Assignment& assignment,
                              const Placement& placement, int expert,
                              RoutedAssignment* out,
                              std::vector<RouteEntry>* entries);
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_ROUTER_H_
