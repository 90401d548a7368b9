// Analytic communication cost helpers shared by the Policy Maker's cost
// model (paper Eqs. 8–9) and the benches. These deliberately ignore
// cross-flow contention — the discrete-event executors in engine_ops.h are
// the ground truth they are validated against (paper Figure 6(c)).

#ifndef FLEXMOE_COLLECTIVE_COMM_COST_H_
#define FLEXMOE_COLLECTIVE_COMM_COST_H_

#include "topology/profile.h"
#include "util/matrix.h"

namespace flexmoe {

/// Dense src x dst byte matrix describing one All-to-All exchange:
/// bytes[src][dst] is the payload GPU `src` sends to GPU `dst`. Flat
/// row-major storage — one allocation per matrix, contiguous rows.
using ByteMatrix = Matrix<double>;

/// \brief Allocates a zeroed G x G byte matrix.
ByteMatrix MakeByteMatrix(int num_gpus);

/// \brief Receiver-side serialization time at GPU `dst`:
/// sum over sources of bytes/Bw (the inner sum of paper Eq. 8).
double A2AReceiverSeconds(const ByteMatrix& bytes, GpuId dst,
                          const HardwareProfile& profile);

/// \brief Sender-side serialization time at GPU `src`.
double A2ASenderSeconds(const ByteMatrix& bytes, GpuId src,
                        const HardwareProfile& profile);

/// \brief Analytic All-to-All makespan: the slowest GPU's max of send-side
/// and receive-side serialization. Latency is charged once per non-empty
/// peer message.
double A2ASecondsAnalytic(const ByteMatrix& bytes,
                          const HardwareProfile& profile);

}  // namespace flexmoe

#endif  // FLEXMOE_COLLECTIVE_COMM_COST_H_
