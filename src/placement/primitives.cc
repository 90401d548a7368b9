#include "placement/primitives.h"

#include <algorithm>

#include "util/string_util.h"

namespace flexmoe {

std::string ModOp::ToString() const {
  switch (type) {
    case ModOpType::kExpand:
      return StrFormat("Expand(e%d, g%d->g%d)", expert, src, dst);
    case ModOpType::kShrink:
      return StrFormat("Shrink(e%d, g%d)", expert, src);
    case ModOpType::kMigrate:
      return StrFormat("Migrate(e%d@g%d <-> e%d@g%d)", expert, src,
                       partner_expert, dst);
  }
  return "?";
}

ModOp MakeExpand(int expert, GpuId copy_from, GpuId dst) {
  ModOp op;
  op.type = ModOpType::kExpand;
  op.expert = expert;
  op.src = copy_from;
  op.dst = dst;
  return op;
}

ModOp MakeShrink(int expert, GpuId gpu) {
  ModOp op;
  op.type = ModOpType::kShrink;
  op.expert = expert;
  op.src = gpu;
  return op;
}

ModOp MakeMigrate(int expert, GpuId src, int partner_expert, GpuId dst) {
  ModOp op;
  op.type = ModOpType::kMigrate;
  op.expert = expert;
  op.src = src;
  op.partner_expert = partner_expert;
  op.dst = dst;
  return op;
}

Status ApplyOp(const ModOp& op, Placement* placement) {
  FLEXMOE_CHECK(placement != nullptr);
  switch (op.type) {
    case ModOpType::kExpand: {
      if (op.src >= 0 && placement->VExpertsOn(op.expert, op.src) == 0) {
        return Status::FailedPrecondition(
            StrFormat("expand source g%d holds no replica of e%d", op.src,
                      op.expert));
      }
      return placement->AddVExpert(op.expert, op.dst);
    }
    case ModOpType::kShrink:
      return placement->RemoveVExpert(op.expert, op.src);
    case ModOpType::kMigrate: {
      if (placement->VExpertsOn(op.expert, op.src) == 0) {
        return Status::FailedPrecondition(
            StrFormat("migrate: e%d absent from g%d", op.expert, op.src));
      }
      if (placement->VExpertsOn(op.partner_expert, op.dst) == 0) {
        return Status::FailedPrecondition(
            StrFormat("migrate: e%d absent from g%d", op.partner_expert,
                      op.dst));
      }
      if (op.src == op.dst) {
        return Status::InvalidArgument("migrate within one GPU is a no-op");
      }
      // Swap one vExpert of each expert between the two GPUs. The removal
      // frees a slot on each side, so the adds cannot fail on capacity;
      // they may fail the >=1-vExpert invariant, which Remove checks first.
      FLEXMOE_RETURN_IF_ERROR(placement->RemoveVExpert(op.expert, op.src));
      Status s = placement->RemoveVExpert(op.partner_expert, op.dst);
      if (!s.ok()) {
        FLEXMOE_CHECK_OK(placement->AddVExpert(op.expert, op.src));
        return s;
      }
      FLEXMOE_CHECK_OK(placement->AddVExpert(op.expert, op.dst));
      FLEXMOE_CHECK_OK(placement->AddVExpert(op.partner_expert, op.src));
      return Status::OK();
    }
  }
  return Status::Internal("unknown op type");
}

double OpTransferBytes(const ModOp& op, double expert_state_bytes) {
  switch (op.type) {
    case ModOpType::kExpand:
      // Packing (dst already hosts the expert) shares weights — free.
      return op.src < 0 ? 0.0 : expert_state_bytes;
    case ModOpType::kShrink:
      return 0.0;  // executed by marking a tag
    case ModOpType::kMigrate:
      // Both directions transfer concurrently over a full-duplex link; the
      // wall-clock equals one state transfer, but total bytes are two.
      return 2.0 * expert_state_bytes;
  }
  return 0.0;
}

}  // namespace flexmoe
