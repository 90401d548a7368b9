#include "elastic/cluster_health.h"

#include "util/string_util.h"

namespace flexmoe {

ClusterHealth::ClusterHealth(int num_gpus)
    : states_(static_cast<size_t>(num_gpus), DeviceState::kHealthy),
      compute_mult_(static_cast<size_t>(num_gpus), 1.0),
      bandwidth_mult_(static_cast<size_t>(num_gpus), 1.0) {
  FLEXMOE_CHECK(num_gpus > 0);
}

DeviceState ClusterHealth::state(GpuId g) const {
  FLEXMOE_CHECK(g >= 0 && g < num_gpus());
  return states_[static_cast<size_t>(g)];
}

bool ClusterHealth::alive(GpuId g) const {
  const DeviceState s = state(g);
  return s == DeviceState::kHealthy || s == DeviceState::kDegraded;
}

int ClusterHealth::num_alive() const {
  int n = 0;
  for (int g = 0; g < num_gpus(); ++g) {
    if (alive(g)) ++n;
  }
  return n;
}

std::vector<GpuId> ClusterHealth::AliveGpus() const {
  std::vector<GpuId> out;
  out.reserve(states_.size());
  for (int g = 0; g < num_gpus(); ++g) {
    if (alive(g)) out.push_back(g);
  }
  return out;
}

bool ClusterHealth::AllHealthy() const {
  for (const DeviceState s : states_) {
    if (s != DeviceState::kHealthy) return false;
  }
  return true;
}

bool ClusterHealth::AnyDegraded() const {
  for (const DeviceState s : states_) {
    if (s == DeviceState::kDegraded) return true;
  }
  return false;
}

double ClusterHealth::compute_multiplier(GpuId g) const {
  FLEXMOE_CHECK(g >= 0 && g < num_gpus());
  return compute_mult_[static_cast<size_t>(g)];
}

double ClusterHealth::bandwidth_multiplier(GpuId g) const {
  FLEXMOE_CHECK(g >= 0 && g < num_gpus());
  return bandwidth_mult_[static_cast<size_t>(g)];
}

Status ClusterHealth::Apply(const FaultEvent& event) {
  if (event.gpu < 0 || event.gpu >= num_gpus()) {
    return Status::InvalidArgument(
        StrFormat("event gpu %d out of range", event.gpu));
  }
  const size_t gi = static_cast<size_t>(event.gpu);
  const DeviceState s = states_[gi];
  switch (event.type) {
    case FaultType::kFailStop:
      if (!alive(event.gpu)) {
        return Status::FailedPrecondition("fail-stop on a dead device");
      }
      states_[gi] = DeviceState::kFailed;
      compute_mult_[gi] = 1.0;
      bandwidth_mult_[gi] = 1.0;
      ++membership_version_;
      break;
    case FaultType::kLeave:
      if (!alive(event.gpu)) {
        return Status::FailedPrecondition("leave on a dead device");
      }
      states_[gi] = DeviceState::kLeft;
      compute_mult_[gi] = 1.0;
      bandwidth_mult_[gi] = 1.0;
      ++membership_version_;
      break;
    case FaultType::kJoin:
      if (alive(event.gpu)) {
        return Status::FailedPrecondition("join on a live device");
      }
      states_[gi] = DeviceState::kHealthy;
      compute_mult_[gi] = 1.0;
      bandwidth_mult_[gi] = 1.0;
      ++membership_version_;
      break;
    case FaultType::kSlowdown:
      if (!alive(event.gpu)) {
        return Status::FailedPrecondition("slowdown on a dead device");
      }
      if (event.compute_multiplier < 1.0 || event.bandwidth_multiplier < 1.0) {
        return Status::InvalidArgument("slowdown multipliers must be >= 1");
      }
      states_[gi] = DeviceState::kDegraded;
      compute_mult_[gi] = event.compute_multiplier;
      bandwidth_mult_[gi] = event.bandwidth_multiplier;
      break;
    case FaultType::kRecover:
      if (s != DeviceState::kDegraded) {
        return Status::FailedPrecondition("recover on a non-degraded device");
      }
      states_[gi] = DeviceState::kHealthy;
      compute_mult_[gi] = 1.0;
      bandwidth_mult_[gi] = 1.0;
      break;
  }
  ++version_;
  return Status::OK();
}

}  // namespace flexmoe
