#include "sim/stream.h"

#include <algorithm>

#include "util/status.h"

namespace flexmoe {

double Stream::Reserve(double earliest, double duration) {
  FLEXMOE_CHECK(duration >= 0.0);
  const double start = std::max(earliest, busy_until_);
  busy_until_ = start + duration;
  busy_time_ += duration;
  return start;
}

void Stream::ReserveInterval(double start, double end) {
  FLEXMOE_CHECK(end >= start);
  busy_until_ = std::max(busy_until_, end);
  busy_time_ += end - start;
}

void Stream::Reset() {
  busy_until_ = 0.0;
  busy_time_ = 0.0;
}

ClusterState::ClusterState(const Topology* topo) : topo_(topo) {
  FLEXMOE_CHECK(topo != nullptr);
  const size_t n = static_cast<size_t>(topo->num_gpus());
  compute_.resize(n);
  egress_.resize(n);
  ingress_.resize(n);
  adjust_.resize(n);
}

double ClusterState::GpuFreeAt(GpuId g) const {
  FLEXMOE_CHECK(g >= 0 && g < num_gpus());
  return std::max({compute_[g].busy_until(), egress_[g].busy_until(),
                   ingress_[g].busy_until()});
}

double ClusterState::AllFreeAt() const {
  double t = 0.0;
  for (int g = 0; g < num_gpus(); ++g) {
    t = std::max(t, GpuFreeAt(g));
    t = std::max(t, adjust_[g].busy_until());
  }
  return t;
}

double ClusterState::ComputeUtilization(double elapsed) const {
  if (elapsed <= 0.0) return 0.0;
  double busy = 0.0;
  for (const Stream& s : compute_) busy += s.busy_time();
  return busy / (elapsed * static_cast<double>(num_gpus()));
}

void ClusterState::BlockAll(double start, double duration) {
  FLEXMOE_CHECK(duration >= 0.0);
  const double end = start + duration;
  for (int g = 0; g < num_gpus(); ++g) {
    compute_[static_cast<size_t>(g)].ReserveInterval(end, end);
    egress_[static_cast<size_t>(g)].ReserveInterval(end, end);
    ingress_[static_cast<size_t>(g)].ReserveInterval(end, end);
  }
}

void ClusterState::Reset() {
  for (auto& s : compute_) s.Reset();
  for (auto& s : egress_) s.Reset();
  for (auto& s : ingress_) s.Reset();
  for (auto& s : adjust_) s.Reset();
}

}  // namespace flexmoe
