// Discrete-event executors for the communication and compute primitives.
//
// These reserve intervals on per-GPU streams (compute, NIC egress/ingress,
// background adjust) and therefore capture serialization and contention that
// the analytic models in comm_cost.h ignore. Experiment step times come from
// here; Policy Maker estimates come from the analytic side. Comparing the
// two reproduces the paper's cost-model validation (Figure 6(c)).

#ifndef FLEXMOE_COLLECTIVE_ENGINE_OPS_H_
#define FLEXMOE_COLLECTIVE_ENGINE_OPS_H_

#include <vector>

#include "collective/comm_cost.h"
#include "sim/stream.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief Timing of one executed collective.
struct CollectiveResult {
  double start = 0.0;   ///< earliest stream activity
  double finish = 0.0;  ///< global completion (max over participants)
  /// Completion per GPU (size = num_gpus; untouched GPUs keep `start`).
  std::vector<double> per_gpu_finish;
};

/// \brief Executes an All-to-All described by a byte matrix.
///
/// Messages follow the standard shifted schedule (round r: src -> (src+r) mod
/// G) used by NCCL to avoid ingress hotspots; each message occupies the
/// source egress port and destination ingress port simultaneously.
///
/// `port_scale` (nullable, size = num_gpus) stretches each port's
/// serialization time by that GPU's factor: a message src -> dst holds
/// egress(src) for duration * scale[src] and ingress(dst) for
/// duration * scale[dst]. This is how straggler bandwidth degradation
/// enters the engine — the slow endpoint's port stretches, the healthy
/// peer's does not (the stretch applies exactly once, on the slow side).
CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const ByteMatrix& bytes, double earliest,
                              const std::vector<double>* port_scale = nullptr);

/// \brief Executes a ring AllReduce of `bytes` over `group`.
///
/// 2*(k-1) phases; each phase every member forwards a chunk to its ring
/// successor with a phase barrier, so a busy NIC on any member stalls the
/// whole ring (this is the global-synchronization cost FasterMoE pays when
/// it shadows an expert on all GPUs). `port_scale` as in ExecAllToAll:
/// a degraded member stretches its own ring hop's ports only; the
/// collective still finishes at the slowest member, so the whole ring
/// waits, but healthy ports are released on time.
CollectiveResult ExecRingAllReduce(ClusterState* cluster,
                                   const HardwareProfile& profile,
                                   double bytes,
                                   const std::vector<GpuId>& group,
                                   double earliest,
                                   const std::vector<double>* port_scale =
                                       nullptr);

/// \brief Executes a point-to-point transfer on the NIC streams.
CollectiveResult ExecP2p(ClusterState* cluster, const HardwareProfile& profile,
                         double bytes, GpuId src, GpuId dst, double earliest);

/// \brief Executes a P2P transfer on the background adjust streams (used by
/// best-effort Expand/Migrate so that training-critical NIC ports are not
/// blocked; bandwidth sharing is approximated by a configurable slowdown).
CollectiveResult ExecBackgroundCopy(ClusterState* cluster,
                                    const HardwareProfile& profile,
                                    double bytes, GpuId src, GpuId dst,
                                    double earliest, double slowdown);

/// \brief Executes expert compute of `tokens` tokens on `gpu`'s compute
/// stream. Returns the completion time; *start_out (optional) gets the
/// reservation start (`earliest` when there is nothing to compute).
double ExecCompute(ClusterState* cluster, const HardwareProfile& profile,
                   GpuId gpu, double tokens, double flops_per_token,
                   double earliest, double* start_out = nullptr);

/// \brief Executes a pipelined ring broadcast of `bytes` from `root` to
/// every GPU in `group` (FasterMoE-style shadow-parameter distribution).
/// `port_scale` as in ExecAllToAll (per-hop, per-port stretch).
CollectiveResult ExecBroadcast(ClusterState* cluster,
                               const HardwareProfile& profile, double bytes,
                               GpuId root, const std::vector<GpuId>& group,
                               double earliest,
                               const std::vector<double>* port_scale = nullptr);

}  // namespace flexmoe

#endif  // FLEXMOE_COLLECTIVE_ENGINE_OPS_H_
