// Placement modification primitives (paper Section 3.3):
//
//  * Expand  — allocate one extra vExpert for a hot expert. If the target
//              GPU already hosts the expert this is pure packing (weight
//              sharing, free); otherwise model states are copied from a
//              source replica via P2P.
//  * Shrink  — release one vExpert of a cold expert; executed by marking a
//              tag, no communication.
//  * Migrate — exchange the model states of two vExperts on different GPUs
//              to consolidate replica groups and cut AllReduce cost.

#ifndef FLEXMOE_PLACEMENT_PRIMITIVES_H_
#define FLEXMOE_PLACEMENT_PRIMITIVES_H_

#include <string>

#include "placement/placement.h"

namespace flexmoe {

enum class ModOpType { kExpand, kShrink, kMigrate };

/// \brief One placement modification.
struct ModOp {
  ModOpType type = ModOpType::kExpand;
  int expert = -1;

  /// Expand: replica source GPU (-1 if dst already hosts the expert — pure
  /// packing, no transfer). Shrink: the GPU losing a vExpert.
  GpuId src = -1;
  /// Expand: the GPU receiving the new vExpert. Migrate: see below.
  GpuId dst = -1;

  /// Migrate only: the partner expert whose vExpert on `dst` swaps with
  /// `expert`'s vExpert on `src`.
  int partner_expert = -1;

  std::string ToString() const;
};

/// \brief Convenience constructors.
ModOp MakeExpand(int expert, GpuId copy_from, GpuId dst);
ModOp MakeShrink(int expert, GpuId gpu);
ModOp MakeMigrate(int expert, GpuId src, int partner_expert, GpuId dst);

/// \brief Applies `op` to `placement`, enforcing primitive preconditions.
Status ApplyOp(const ModOp& op, Placement* placement);

/// \brief Bytes of model states moved by `op` (0 for Shrink and for packing
/// Expands). `expert_state_bytes` is per-expert (paper: parameters +
/// optimizer states).
double OpTransferBytes(const ModOp& op, double expert_state_bytes);

}  // namespace flexmoe

#endif  // FLEXMOE_PLACEMENT_PRIMITIVES_H_
